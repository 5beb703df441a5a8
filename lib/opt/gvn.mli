(** Dominator-scoped global value numbering: a pure instruction whose
    (kind, operands) key already has a definition in a dominating block is
    replaced by that definition.  The key canonicalizes commutative
    operand order; constants and parameters participate so duplicated
    literals unify. *)

open Ir.Types

(** The key of a pure instruction: two candidates are equivalent iff
    their keys are equal.  The definition that {!Valtab}'s three-int key
    is tested against; the passes themselves key through {!Valtab}. *)
val key_of_kind : instr_kind -> instr_kind

(** Is this kind subject to value numbering?  (Pure and position
    independent — phis are not.) *)
val is_candidate : instr_kind -> bool

val run : Phase.ctx -> Ir.Graph.t -> bool
val phase : Phase.t
