(** Core type definitions for the SSA intermediate representation.

    The IR is a classic block-scheduled SSA form: a function is a graph of
    basic blocks; each block holds a list of phi instructions, a list of
    ordinary instructions, and one terminator.  Values are identified with
    the instruction that produces them.

    Arithmetic semantics (shared exactly with the interpreter and the
    canonicalizer, see DESIGN.md §5): native OCaml ints; [Div]/[Rem] are
    floor division and modulo with division by zero yielding 0; shift
    amounts are taken modulo 64 (an amount of 63 yields 0 for [Shl] and
    the sign for [Shr]). *)

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | And
  | Or
  | Xor
  | Shl
  | Shr

type cmpop = Eq | Ne | Lt | Le | Gt | Ge

type instr_id = int
type block_id = int

(** A value is the id of the instruction producing it. *)
type value = instr_id

(** Placeholder for a phi input that has not been filled in yet; the
    verifier rejects graphs that still contain it. *)
val invalid_value : value

type instr_kind =
  | Const of int  (** integer (and boolean 0/1) constant *)
  | Null  (** the null reference *)
  | Param of int  (** i-th function parameter *)
  | Binop of binop * value * value
  | Cmp of cmpop * value * value
  | Neg of value  (** arithmetic negation *)
  | Not of value  (** boolean negation of a 0/1 value *)
  | Phi of value array  (** inputs aligned with the block's predecessor list *)
  | New of string * value array
      (** allocation of class instance; arguments initialize the fields in
          declaration order *)
  | Load of value * string  (** field read: [obj.field] *)
  | Store of value * string * value  (** field write: [obj.field <- v] *)
  | Load_global of string
  | Store_global of string * value
  | Call of string * value array  (** call to a named function *)

type terminator =
  | Jump of block_id
  | Branch of {
      cond : value;
      if_true : block_id;
      if_false : block_id;
      prob : float;  (** profile probability of taking the true branch *)
    }
  | Return of value option
  | Unreachable

val binop_to_string : binop -> string
val cmpop_to_string : cmpop -> string

(** [eval_binop op a b] evaluates a binary operation with the semantics
    documented above.  This single definition is used by both the
    canonicalizer (constant folding) and the interpreter, which makes
    differential testing of optimizations sound by construction. *)
val eval_binop : binop -> int -> int -> int

(** [eval_cmp op a b] evaluates an integer comparison to 0 or 1. *)
val eval_cmp : cmpop -> int -> int -> int

(** Swapped comparison: [cmp a b = swap_cmp cmp b a]. *)
val swap_cmp : cmpop -> cmpop

(** Negated comparison: [cmp a b = 1 - negate_cmp cmp a b]. *)
val negate_cmp : cmpop -> cmpop

(** Apply a function to every input of a kind, in order. *)
val iter_inputs : (value -> unit) -> instr_kind -> unit

(** Rewrite every input of a kind through the function. *)
val map_inputs : (value -> value) -> instr_kind -> instr_kind

(** An instruction is pure if it has no side effect, does not observe
    mutable state, and can be removed when unused.  [Div]/[Rem] are pure
    because division by zero is defined (it yields 0, it does not trap). *)
val is_pure : instr_kind -> bool

(** Instructions with a visible side effect (cannot be re-ordered or
    removed without an analysis proving them dead). *)
val has_side_effect : instr_kind -> bool
