(** AST → SSA lowering, using the on-the-fly SSA construction of
    Braun et al. ("Simple and Efficient Construction of Static Single
    Assignment Form", CC 2013): local variables are written and read
    per-block; reads in unsealed blocks create operandless phis that are
    completed when the block's predecessors are final; trivial phis are
    removed recursively.

    Short-circuit [&&]/[||] lower to control flow and therefore introduce
    merges with phis — prime duplication candidates, mirroring how Java
    bytecode produces them. *)

exception Lower_error of string

(** Lower a type-checked program to an IR program.  The entry function is
    ["main"] when present, otherwise the first function. *)
val lower_program : Ast.program -> Ir.Program.t
