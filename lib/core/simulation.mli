(** The DBDS simulation tier (paper §4.1).

    A depth-first traversal of the dominator tree carries three kinds of
    context: condition facts from dominating branches (shared with
    {!Opt.Condelim}), memory-availability state (shared with
    {!Opt.Readelim} via {!Opt.Memstate}), and available pure expressions
    (value numbering, in {!Opt.Valtab}: the one scoped table that
    {!Opt.Gvn} walks with too).  Whenever the current block [bp] has a CFG
    successor [bm] that is a merge, the traversal pauses and runs a
    {e duplication simulation traversal} (DST): [bm]'s instructions are
    processed as if appended to [bp], with a {e synonym map} binding each
    of [bm]'s phis to its input along the [bp] edge.  Applicability
    checks — the precondition/action pairs of the optimizations from
    paper §2 — run against this synonym-resolved view and report the
    cycles the optimization would save and the code size it would add or
    remove, using the static node cost model.  No IR is mutated (apart
    from hash-consed integer constants materialized in the entry block,
    which are semantically inert and collected by DCE if unused).

    Loop headers are merges too, but duplicating into a back edge is loop
    peeling rather than tail duplication, so they are skipped.  With
    [paths] above 1 the DST continues through straight chains of merges,
    emitting additional path candidates of up to [paths] merges each
    (paper §8). *)

(** Run the simulation tier over one graph: all candidates with positive
    estimated benefit, one (or more, with [paths] > 1) per (predecessor,
    merge) pair.  [paths] defaults to 1, no extension.  The
    configuration argument is not read. *)
val simulate :
  ?paths:int -> Opt.Phase.ctx -> Config.t -> Ir.Graph.t -> Candidate.t list
