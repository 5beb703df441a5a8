(** Dense bitsets over small integer ids, backed by [Bytes]; grows on
    [add].  See {!Graph} and {!Dom} for the hot-path uses. *)

type t

val create : int -> t

(** Capacity in bits (a multiple of 8). *)
val length : t -> int

val mem : t -> int -> bool
val add : t -> int -> unit
val remove : t -> int -> unit
val set : t -> int -> bool -> unit
val clear : t -> unit

(** Iterate members in increasing order. *)
val iter : t -> (int -> unit) -> unit
