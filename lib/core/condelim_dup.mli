(** Conditional elimination through code duplication (after arXiv
    1106.3478): a greedy duplication tier, the comparator for DBDS's
    simulation-driven choice.  Every (merge, predecessor) pair whose
    duplicate would let conditional elimination fire is duplicated, with
    no benefit scaling and no size budget. *)

(** [run ~iters ctx g] performs up to [iters] rounds, each duplicating
    every pair that passes the check on that round's graph, until a
    round duplicates nothing.  Charges [ctx] one pass over the graph
    plus what each duplication touched.  Returns the number of
    duplications performed. *)
val run : iters:int -> Opt.Phase.ctx -> Ir.Graph.t -> int
