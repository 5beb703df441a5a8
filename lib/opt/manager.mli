(** The pass manager: executes the items of a checked pipeline {!Spec}
    over one graph, resolving pass names through a caller-supplied
    registry.  Every pass execution goes through {!Phase.run_pass}, so
    per-pass stats, preservation contracts and the paranoid check are
    attached once, uniformly. *)

(** Maps a checked pass name and its options to a pass.  Total on the
    names {!Spec.check} lets through to it. *)
type resolver = string -> (string * Spec.value) list -> Phase.t

(** Run a checked spec's items in order over a graph; [fix{rounds=N}]
    groups iterate their body to a fixpoint, at most [N] rounds (a
    group that stops at the cap instead is counted in
    {!Phase.ctx.fix_capped}).  Returns true if any pass fired. *)
val run :
  resolver -> Spec.value Spec.item list -> Phase.ctx -> Ir.Graph.t -> bool
