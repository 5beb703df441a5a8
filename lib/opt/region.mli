(** Shared pieces of the passes' region forms (see {!Phase.t.region}):
    reading the graph's mutation log since a clean stamp. *)

(** [iter_instrs g ~since f] calls [f] once on every live instruction
    with an [Instr] entry at or after [since]: created, rewritten or
    moved since. *)
val iter_instrs :
  Ir.Graph.t -> since:int -> (Ir.Types.instr_id -> unit) -> unit

(** [iter_cfg_blocks g ~since f] calls [f] once on every live block with
    a [Cfg] entry at or after [since]. *)
val iter_cfg_blocks :
  Ir.Graph.t -> since:int -> (Ir.Types.block_id -> unit) -> unit

(** Calls [f] on every live instruction that reads a value. *)
val iter_instr_users :
  Ir.Graph.t -> Ir.Types.value -> (Ir.Types.instr_id -> unit) -> unit

(** Did the graph change at or after [since] in more than deleted
    instructions that nothing read?  Such deletions leave every other
    instruction, terminator and edge as it was, so a pass whose
    opportunities lie in those sees none.  [effects] counts a deleted
    side effect as a change (for a pass that reads memory order). *)
val beyond_deletions : ?effects:bool -> Ir.Graph.t -> since:int -> bool

(** Did the log record a CFG change at or after [since]? *)
val cfg_changed : Ir.Graph.t -> since:int -> bool

(** [iter_gained ~old dom f] calls [f] on the blocks that may have
    gained dominators since the stamp's tree [old]: reachable under
    [dom] but not under [old], or with a new immediate dominator that
    did not dominate them under [old].  Every other block's dominators
    are a subset of its old ones, so a dominator walk that only gains
    from what dominates a block finds nothing new in a subtree whose
    root [f] was not called on. *)
val iter_gained :
  old:Ir.Dom.t -> Ir.Dom.t -> (Ir.Types.block_id -> unit) -> unit

(** {2 Marks for a dominator walk}

    A region form of a dominator-tree walk marks the blocks it must
    examine and the blocks whose whole subtree it must examine, then
    walks the tree as the whole-graph run does, skipping every subtree
    with no mark in it.  Marks set during the walk count for the blocks
    it has yet to enter. *)

type marks

(** No marks, over the dominator tree [dom] of the graph. *)
val marks : Ir.Dom.t -> Ir.Graph.t -> marks

(** Examine this block.  (Unreachable blocks are ignored.) *)
val mark_block : marks -> Ir.Types.block_id -> unit

(** Examine this block's whole dominator subtree. *)
val mark_subtree : marks -> Ir.Types.block_id -> unit

(** Is the block itself marked? *)
val marked : marks -> Ir.Types.block_id -> bool

(** Is the block in a marked subtree, given whether its parent was
    ([inherited])? *)
val in_marked_subtree : marks -> inherited:bool -> Ir.Types.block_id -> bool

(** May the walk skip the block's whole subtree: it is not in a marked
    subtree and nothing at or below it is marked? *)
val skip : marks -> inherited:bool -> Ir.Types.block_id -> bool
