(** Abstract memory state for read elimination: which field/global reads
    are available, and what value a read would yield.  Shared between the
    {!Readelim} phase and the DBDS read-elimination applicability check
    (the simulation tier threads a memory state through the dominator
    traversal and into duplication simulation traversals).

    Aliasing model: two bases may alias when they agree on the field
    name, so a store to [b.f] kills every recorded [_.f] except its own;
    distinct field names never alias; calls kill everything. *)

open Ir.Types

type t

val empty : t

(** Value known to be in [base.field], if any. *)
val load : t -> value -> string -> value option

(** Record a field write (killing same-field entries of other bases). *)
val store : t -> value -> string -> value -> t

(** Record the effect of one instruction, returning the new state and
    (for a load whose location is available) the value making it
    redundant.  [id] is the value the instruction defines. *)
val transfer : t -> value -> instr_kind -> t * value option

(** With class metadata: after [New (cls, args)] producing [id], each
    field holds the matching constructor argument. *)
val seed_new : t -> fields:string list -> value -> value array -> t
