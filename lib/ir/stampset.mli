(** Sets of small integer ids (instructions, blocks) that empty in
    O(1), for scratch sets reused many times over one arena: a slot of
    one byte per id holds a stamp, and emptying takes a new stamp
    (clearing the slots once every 255 times).  Ids are non-negative. *)

type t

(** An empty set with no slots. *)
val create : unit -> t

(** Empty the set. *)
val clear : t -> unit

val mem : t -> int -> bool

(** Add an id, growing the slots if it has none. *)
val add : t -> int -> unit
