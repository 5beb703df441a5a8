(** Standard optimization pipelines.

    The phase plan — canonicalize, CFG simplification, SCCP, GVN,
    conditional elimination, read elimination, escape analysis, DCE,
    iterated to a fixpoint — is the paper's {e baseline} configuration:
    all the classic optimizations run, only DBDS is off.  The DBDS driver
    composes the same fixpoint group (through the same {!Manager})
    before its duplication tiers, and runs {!action_steps}, the group's
    inner list, after each round of duplications. *)

(** Resolve the classic pass names ([canon], [simplify], [sccp], [gvn],
    [condelim], [readelim], [pea], [dce]).  None takes an option.  The
    driver's resolver layers the duplication tiers on top of this one. *)
val resolve_classic : Manager.resolver

(** The fixpoint-group members of the calibrated evaluation plan, in
    phase order. *)
val classic_names : string list

(** The classic optimizations as a nested fixpoint,
    [fix(fix(<action_step_names>),sccp)]: the region passes run to
    quiescence, then SCCP runs once on the settled graph, and the outer
    group repeats only if SCCP fired. *)
val fix_group : string Spec.item

(** Run the classic optimizations to a fixpoint on one graph, through
    the pass manager. *)
val optimize : Phase.ctx -> Ir.Graph.t -> bool

(** The action steps of a DBDS round, in phase order: {!classic_names}
    without [sccp].  Paper §5 runs after duplication only the
    optimizations whose applicability checks the simulation ran, and
    SCCP is not among them. *)
val action_step_names : string list

(** Run the action steps to a fixpoint on one graph, through the pass
    manager. *)
val action_steps : Phase.ctx -> Ir.Graph.t -> bool
