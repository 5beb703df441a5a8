(** The scoped value-numbering table of the dominator walks: {!Gvn}'s
    (the gvn pass and its region form) and the DBDS simulation's, whose
    DSTs look their candidates up in it.

    A key is the shape of a value-numbering candidate (a pure kind,
    {!Gvn.is_candidate}) as three ints: an op tag and two operands,
    with a commutative operator's operands and a comparison's operands
    in increasing order (the comparison swapped to match), exactly as
    {!Gvn.key_of_kind} orders them.  Two kinds share a key iff their
    [key_of_kind]s are equal.

    Entries are undone in reverse insertion order: {!mark} names the
    current state and {!pop_to} returns to it, so the walk marks on
    entering a block and pops on leaving its subtree.  (See DESIGN.md
    §12 for why a cleared slot cannot break a probe chain.) *)

open Ir.Types

type t

(** An empty table. *)
val create : unit -> t

(** The value recorded under [kind]'s key, or [-1].  A kind that is not
    a candidate has no key: [-1]. *)
val find : t -> instr_kind -> value

(** [find_or_add t kind v]: the value recorded under [kind]'s key if
    there is one; otherwise records [v] under it and returns [-1].  A
    kind that is not a candidate records nothing: [-1]. *)
val find_or_add : t -> instr_kind -> value -> value

(** The current state, for {!pop_to}. *)
val mark : t -> int

(** Undo every entry added since [mark]. *)
val pop_to : t -> int -> unit

(** Entries recorded. *)
val length : t -> int

(** [same_key k l]: do [k] and [l] share a key?  (False when they are
    not candidates.)  [same_key k] computes [k]'s key once, for testing
    many [l]. *)
val same_key : instr_kind -> instr_kind -> bool

(** The first operand of [kind]'s key — an operand every kind with that
    key reads — or [-1] for a constant, null or parameter. *)
val key_operand : instr_kind -> value
