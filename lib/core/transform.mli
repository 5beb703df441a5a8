(** The duplication transformation (the optimization tier's primitive,
    paper §4.3): copy a merge block into one of its predecessors.

    Given merge [bm] and predecessor [bp]:
    + a fresh block [bm'] receives a copy of [bm]'s body, with [bm]'s
      phis resolved to their inputs along the [bp] edge;
    + [bm']'s terminator replicates [bm]'s, so [bm]'s successors gain
      [bm'] as a predecessor (their phis receive the copied values);
    + the [bp → bm] edge is redirected to [bm'];
    + SSA is reconstructed: every value defined in [bm] (including its
      phis) now has an alternate definition on the duplicated path, and
      uses in blocks [bm] no longer dominates are rewritten through
      freshly placed phis ({!Ir.Ssa_repair}).

    Loop headers are rejected: duplicating one is loop peeling/rotation,
    not tail duplication (see the regression test for the off-by-one-
    iteration hazard). *)

exception Not_applicable of string

(** One DBDS round's view of dominance: the dominator tree when the
    round started, and the blocks its duplications touched since (every
    merge duplicated and every block created).  A tail duplication
    changes no dominance relation between two blocks it did not touch,
    so the loop-header check answers from this tree unless the merge or
    one of its predecessors is touched; then it takes a fresh tree. *)
type round

(** [round ~phase g] starts a round at [g]'s current dominator tree
    (the analysis cache's: right after the simulation, the tree it
    walked).  [phase] names the round's duplication row
    (["<tier>.duplicate"]) for paranoid mode. *)
val round : phase:string -> Ir.Graph.t -> round

(** Perform the transformation; returns the duplicate block's id.
    [round] answers the loop-header check and records what this
    duplication touched.  [ctx] is charged what the duplication touched:
    one unit per copied phi, body instruction and terminator, per
    patched successor phi, and per SSA-repair class, use examined and
    block visited; plus one pass over the graph when the check had to
    recompute the dominator tree.  Under a paranoid [ctx] every answer
    from [round]'s tree is checked against a fresh, uncached and
    uncharged tree; a disagreement raises {!Opt.Phase.Phase_invalid}
    at [round]'s phase.
    @raise Not_applicable when the edge is gone, the merge degenerated,
    or the merge is a loop header. *)
val duplicate :
  ?ctx:Opt.Phase.ctx ->
  ?round:round ->
  Ir.Graph.t -> merge:Ir.Types.block_id -> pred:Ir.Types.block_id ->
  Ir.Types.block_id
