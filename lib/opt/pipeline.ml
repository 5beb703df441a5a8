(** Standard optimization pipelines.

    {!fix_group} is the paper's duplication-disabled configuration: all
    the classic optimizations to a fixpoint, only DBDS is off.  The DBDS
    driver composes the same fixpoint group (through the same
    {!Manager}) before its duplication tiers, and {!action_steps}, the
    group's inner list, after each round of duplications. *)

(* The classic per-graph passes by spec name ({!Spec.check} has already
   turned the long forms into these). *)
let classic =
  [
    ("canon", Canonicalize.phase);
    ("simplify", Simplify_cfg.phase);
    ("sccp", Sccp.phase);
    ("gvn", Gvn.phase);
    ("condelim", Condelim.phase);
    ("readelim", Readelim.phase);
    ("pea", Pea.phase);
    ("dce", Dce.phase);
  ]

(** Resolve the classic pass names ([canon], [simplify], [sccp], [gvn],
    [condelim], [readelim], [pea], [dce]).  None takes an option.  The
    driver's resolver layers the duplication tiers on top of this one. *)
let resolve_classic name _ = List.assoc name classic

(** The fixpoint-group members of the calibrated evaluation plan, in
    phase order. *)
let classic_names = List.map fst classic

let group names =
  Spec.Fix
    {
      opts = [];
      body = List.map (fun name -> Spec.Pass { name; opts = [] }) names;
    }

(** The action steps of a DBDS round, in phase order: the classic group
    without [sccp].  Paper §5 runs after duplication the optimizations
    whose applicability checks the simulation ran.  SCCP is not one of
    them; the one fold it would add there, a phi over equal constants,
    is a canonicalize rule. *)
let action_step_names = List.filter (fun name -> name <> "sccp") classic_names

(** The classic optimizations as a [fix(...)] spec item:
    [fix(fix(<action steps>),sccp)].  The region passes run to
    quiescence first; SCCP then runs once on the settled graph, and the
    outer group repeats only if it fired.  The region passes' copy and
    constant rules catch nearly everything SCCP would, so SCCP is left
    only its optimistic folds through cycles and constant branches, and
    those need one run per settled graph, not one per round. *)
let fix_group =
  Spec.Fix
    {
      opts = [];
      body =
        [ group action_step_names; Spec.Pass { name = "sccp"; opts = [] } ];
    }

let checked items =
  match Spec.check items with
  | Ok spec -> (spec :> Spec.value Spec.item list)
  | Error msg -> invalid_arg msg

(** Run the classic optimizations to a fixpoint on one graph, through
    the pass manager. *)
let optimize =
  let spec = checked [ fix_group ] in
  fun ctx g -> Manager.run resolve_classic spec ctx g

(** Run the action steps to a fixpoint on one graph, through the pass
    manager. *)
let action_steps =
  let spec = checked [ group action_step_names ] in
  fun ctx g -> Manager.run resolve_classic spec ctx g
