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
let invalid_value : value = -1

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

let binop_to_string = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"

let cmpop_to_string = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"

(** [eval_binop op a b] evaluates a binary operation with the semantics
    documented above.  This single definition is used by both the
    canonicalizer (constant folding) and the interpreter, which makes
    differential testing of optimizations sound by construction. *)
let eval_binop op a b =
  match op with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Div ->
      if b = 0 then 0
      else
        let q = a / b and r = a mod b in
        if r <> 0 && (r < 0) <> (b < 0) then q - 1 else q
  | Rem ->
      if b = 0 then 0
      else
        let r = a mod b in
        if r <> 0 && (r < 0) <> (b < 0) then r + b else r
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Shl ->
      let s = b land 63 in
      if s >= 63 then 0 else a lsl s
  | Shr ->
      let s = b land 63 in
      a asr (min s 62)

(** [eval_cmp op a b] evaluates an integer comparison to 0 or 1. *)
let eval_cmp op a b =
  let r =
    match op with
    | Eq -> a = b
    | Ne -> a <> b
    | Lt -> a < b
    | Le -> a <= b
    | Gt -> a > b
    | Ge -> a >= b
  in
  if r then 1 else 0

(** Swapped comparison: [cmp a b = swap_cmp cmp b a]. *)
let swap_cmp = function
  | Eq -> Eq
  | Ne -> Ne
  | Lt -> Gt
  | Le -> Ge
  | Gt -> Lt
  | Ge -> Le

(** Negated comparison: [cmp a b = 1 - negate_cmp cmp a b]. *)
let negate_cmp = function
  | Eq -> Ne
  | Ne -> Eq
  | Lt -> Ge
  | Le -> Gt
  | Gt -> Le
  | Ge -> Lt

(** Apply [f] to every input of a kind, in order. *)
let iter_inputs f = function
  | Const _ | Null | Param _ | Load_global _ -> ()
  | Binop (_, a, b) | Cmp (_, a, b) | Store (a, _, b) ->
      f a;
      f b
  | Neg a | Not a | Load (a, _) | Store_global (_, a) -> f a
  | Phi vs | New (_, vs) | Call (_, vs) -> Array.iter f vs

(** Rewrite every input of a kind through [f]. *)
let map_inputs f = function
  | (Const _ | Null | Param _ | Load_global _) as k -> k
  | Binop (op, a, b) -> Binop (op, f a, f b)
  | Cmp (op, a, b) -> Cmp (op, f a, f b)
  | Neg a -> Neg (f a)
  | Not a -> Not (f a)
  | Load (a, fld) -> Load (f a, fld)
  | Store (a, fld, b) -> Store (f a, fld, f b)
  | Store_global (g, a) -> Store_global (g, f a)
  | Phi vs -> Phi (Array.map f vs)
  | New (c, vs) -> New (c, Array.map f vs)
  | Call (c, vs) -> Call (c, Array.map f vs)

(** An instruction is pure if it has no side effect, does not observe
    mutable state, and can be removed when unused.  [Div]/[Rem] are pure
    because division by zero is defined (it yields 0, it does not trap). *)
let is_pure = function
  | Const _ | Null | Param _ | Binop _ | Cmp _ | Neg _ | Not _ | Phi _ -> true
  | New _ | Load _ | Store _ | Load_global _ | Store_global _ | Call _ -> false

(** Instructions with a visible side effect (cannot be re-ordered or
    removed without an analysis proving them dead). *)
let has_side_effect = function
  | Store _ | Store_global _ | Call _ | New _ -> true
  | Const _ | Null | Param _ | Binop _ | Cmp _ | Neg _ | Not _ | Phi _
  | Load _ | Load_global _ ->
      false
