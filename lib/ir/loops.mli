(** Loop headers.  A back edge is an edge [t -> h] where [h] dominates
    [t]; its target is a natural-loop header.  The block-frequency
    estimator multiplies a header's incoming frequency by its loop
    factor, and the simulation stops its paths at headers; neither
    needs loop bodies or nesting depths, so none are built. *)

type t

val is_header : t -> Types.block_id -> bool
val compute : Dom.t -> t

(** Equality of two header sets over the same graph. *)
val equal : t -> t -> bool
