(** Whole-graph static estimates built on the node cost model: code size
    (the budget currency of the trade-off tier) and frequency-weighted
    cycles (the static performance estimator used to rank candidates and
    by the backtracking comparator to detect progress). *)

let block_size g bid =
  let size = ref (Cost.of_term (Ir.Graph.term g bid)).Cost.size in
  Ir.Graph.iter_block_instrs g bid (fun id ->
      size := !size + Cost.size_of_kind (Ir.Graph.kind g id));
  !size

(** Static code size of the whole graph, in abstract bytes. *)
let graph_size g =
  List.fold_left (fun acc bid -> acc + block_size g bid) 0 (Ir.Graph.rpo g)

let block_cycles g bid =
  let instrs =
    List.fold_left
      (fun acc id -> acc +. Cost.cycles_of_kind (Ir.Graph.kind g id))
      0.0
      (Ir.Graph.block_instrs g bid)
  in
  instrs +. (Cost.of_term (Ir.Graph.term g bid)).Cost.cycles

(** Frequency-weighted cycle estimate of the whole graph: the static
    performance estimator of paper §5.3 (Figure 4 computes exactly this
    quantity for a two-block example). *)
let weighted_cycles g =
  let freq = Ir.Analyses.frequency g in
  List.fold_left
    (fun acc bid -> acc +. (block_cycles g bid *. Ir.Frequency.frequency freq bid))
    0.0 (Ir.Graph.rpo g)
