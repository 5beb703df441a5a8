(** Static block execution-frequency estimation.

    The entry block has frequency 1.  Frequencies propagate along forward
    edges in reverse postorder, split by branch probabilities; each loop
    level multiplies its header's incoming frequency by 10
    (approximating an average trip count, as JIT profiles would).  DBDS
    consumes the frequency of a block {e relative to the maximum frequency
    in the compilation unit} (paper §5.3–5.4). *)

type t

(** Probability of the [p -> s] edge being taken when control leaves
    [p]. *)
val edge_prob : Graph.t -> Types.block_id -> Types.block_id -> float

val compute : Dom.t -> Loops.t -> t

(** Absolute estimated frequency (entry = 1.0). *)
val frequency : t -> Types.block_id -> float

(** Frequency relative to the hottest block of the unit, in [0, 1]. *)
val relative : t -> Types.block_id -> float

(** Equality of two frequency estimates over the same graph, within a
    small relative tolerance. *)
val equal : t -> t -> bool
