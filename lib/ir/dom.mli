(** Dominator tree via the Cooper–Harvey–Kennedy iterative algorithm,
    plus O(1) dominance queries and tree children.  SSA repair after
    duplication places its phis on demand ({!Ssa_repair}), not through
    dominance frontiers. *)

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

(** Structural equality of two dominator trees over the same graph: same
    reverse postorder, same immediate dominator per reachable block (the
    preservation-contract check of {!Analyses}). *)
val equal : t -> t -> bool
