(** Dominator tree via the Cooper–Harvey–Kennedy iterative algorithm,
    plus O(1) dominance queries, tree children and dominance frontiers
    (the latter feed SSA construction and repair). *)

type t

val graph : t -> Graph.t

(** Reverse postorder of reachable blocks. *)
val order : t -> Types.block_id list

val compute : Graph.t -> t

(** Immediate dominator; [None] for the entry block.
    Unreachable blocks report -1. *)
val idom : t -> Types.block_id -> Types.block_id option

(** Dominator-tree children, in reverse postorder. *)
val children : t -> Types.block_id -> Types.block_id list

val is_reachable : t -> Types.block_id -> bool

(** [dominates t a b]: does [a] dominate [b] (reflexively)?  O(1):
    [compute] numbers the tree in preorder, so [a] dominates [b] when
    [b]'s interval nests in [a]'s.  False when either is unreachable. *)
val dominates : t -> Types.block_id -> Types.block_id -> bool

val strictly_dominates : t -> Types.block_id -> Types.block_id -> bool

(** Preorder traversal of the dominator tree with entry/exit callbacks —
    the skeleton of both the DBDS simulation tier and the dominator-scoped
    optimizations. *)
val walk :
  t -> enter:(Types.block_id -> unit) -> exit:(Types.block_id -> unit) -> unit

(** Blocks in dominator-tree preorder. *)
val preorder : t -> Types.block_id list

(** Dominance frontiers, indexed by block id. *)
val frontiers : t -> Types.block_id list array

(** Structural equality of two dominator trees over the same graph: same
    reverse postorder, same immediate dominator per reachable block (the
    preservation-contract check of {!Analyses}). *)
val equal : t -> t -> bool

(** Iterated dominance frontier of a set of blocks — the phi-placement set
    for SSA construction/repair. *)
val iterated_frontier :
  t ->
  frontiers:Types.block_id list array ->
  Types.block_id list ->
  Types.block_id list
