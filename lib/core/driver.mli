(** The DBDS driver: the iterative simulate → trade-off → optimize
    pipeline (paper §5.2), plus the two comparator strategies of the
    evaluation — dupalot (trade-off disabled) and backtracking
    (Algorithm 1 of §3.1).

    The driver is applied per compilation unit (function graph).  After
    each batch of duplications the round's action-step group runs
    ({!Opt.Pipeline.action_steps}): the classic phases without SCCP,
    which the simulation does not price (paper §5).  Up to [iters]
    rounds are performed (a tier's spec option, 3 by default); a new
    round only starts if the previous round's accepted benefit exceeds
    the tier's [threshold] or a candidate it accepted went stale before
    its duplication.

    The driver always compiles: it has no cache.  The compile service's
    broker ([Service.Broker]) is the one client of the artifact store —
    it digests a request, looks it up, and calls
    {!optimize_program_report} only on a miss. *)

type stats = {
  mutable candidates_found : int;
  mutable duplications_performed : int;
  mutable iterations_run : int;
  mutable benefit_accepted : float;
  mutable backtrack_attempts : int;
  mutable backtrack_kept : int;
}

val fresh_stats : unit -> stats
val pp_stats : Format.formatter -> stats -> unit

(** A per-function failure that was contained: the function's graph was
    rolled back to its pre-attempt state, the rest of the program kept
    optimizing. *)
type failure = {
  fail_fn : string;  (** function whose pipeline crashed *)
  fail_site : string;
      (** crash site: a {!Faults.site} name, ["verify.<phase>"] or
          ["preserve.<pass>"] for a paranoid violation
          ({!Opt.Phase.check}), or ["exception"] for anything else *)
  fail_exn : string;  (** rendered exception *)
  fail_backtrace : string;
  fail_work : int;  (** work units charged during the failed attempt *)
  fail_pre_ir : string;
      (** the function's IR when the attempt started — what the graph
          was rolled back to, and what a crash bundle replays *)
  fail_bundle : string option;  (** bundle path, when one was written *)
}

val pp_failure : Format.formatter -> failure -> unit

(** Does the spec run program-level [inline]?  {!optimize_program_report}
    runs it once before fanning functions out; the per-function pipeline
    is the rest of {!Config.t.passes}. *)
val wants_inline : Opt.Spec.t -> bool

(** Contract table of a spec's per-function passes in pipeline order
    (fix bodies flattened, repeats collapsed): [(pass_name,
    preserves)].  Rendered by [dbdsc --print-passes] under the canonical
    spec line. *)
val describe_spec :
  Config.t ->
  Opt.Spec.t ->
  (string * Ir.Analyses.kind list) list

(** The action-step group a pass runs after each of its rounds, by
    spec name: {!Opt.Pipeline.action_step_names} for [dbds] and
    [dupalot], [[]] for every other pass.  Rendered by
    [dbdsc --print-passes] on the tiers' contract rows. *)
val round_action_steps : string -> string list

(** Optimize one graph under the given configuration: execute the
    configured pipeline (minus program-level items) through the pass
    manager.  This is the uncontained entry (the fuzz matrix, the
    examples and perfbench's layer timings use it): an exception (an
    injected fault armed by the caller, a paranoid violation) escapes
    with the graph half-changed.
    A paranoid configuration sets [ctx.paranoid]; paranoid mode and a
    fault plan both turn [ctx.memo_clean_passes] off. *)
val optimize_graph :
  ?config:Config.t -> Opt.Phase.ctx -> Ir.Graph.t -> stats

(** The full result of a program run: phase context, per-function
    statistics (zeroed for contained functions) and contained failures —
    all in function-name order, identical for any [jobs]. *)
type report = {
  rep_ctx : Opt.Phase.ctx;
  rep_stats : (string * stats) list;
  rep_failures : failure list;
}

(** Optimize a whole program: inline first (compilation units in the
    evaluation are post-inlining, as in Graal; disable with
    [~inline:false]), then fan the configured per-function pipeline out
    over [jobs] domains (default: all cores; [~jobs:1] is sequential).
    Output graphs and aggregate statistics are identical for any [jobs].

    No exception escapes: a crashing per-function pipeline is rolled
    back to its pre-attempt IR and reported in [rep_failures] (with a
    crash bundle written to [bundle_dir], when given) while the
    remaining functions still optimize — under any [jobs] value. *)
val optimize_program_report :
  ?config:Config.t ->
  ?bundle_dir:string ->
  ?inline:bool ->
  ?jobs:int ->
  Ir.Program.t ->
  report

(** Re-execute a crash bundle: parse its pre-attempt IR, rebuild the
    recorded configuration (fault plan included) and rerun the
    per-function pipeline under containment, writing no bundle. *)
val replay_bundle : Bundle.t -> [ `Reproduced of failure | `Clean ]

(** Aggregate statistics over a program run. *)
val total_stats : (string * stats) list -> stats
