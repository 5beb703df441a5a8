(** Whole-graph static estimates built on the node cost model: code size
    (the budget currency of the trade-off tier) and frequency-weighted
    cycles (the static performance estimator used to rank candidates and
    by the backtracking comparator to detect progress). *)

(** Cost-model size of one block (instructions + terminator). *)
val block_size : Ir.Graph.t -> Ir.Types.block_id -> int

(** Static code size of the whole graph, in abstract bytes (reachable
    blocks only). *)
val graph_size : Ir.Graph.t -> int

(** Frequency-weighted cycle estimate of the whole graph: the static
    performance estimator of paper §5.3 (Figure 4 computes exactly this
    quantity for a two-block example). *)
val weighted_cycles : Ir.Graph.t -> float
