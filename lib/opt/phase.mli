(** Pass framework: every optimization is a function [ctx -> Graph.t ->
    bool] (did it change anything?), packaged as a {!t} record carrying
    its name and its preservation contract over {!Ir.Analyses} kinds.
    The context carries program metadata, a deterministic work-unit
    counter, and the per-pass instrumentation the pass manager maintains
    uniformly ({!run_pass}). *)

(** Per-pass instrumentation, accumulated by {!run_pass} and merged
    deterministically across parallel workers.  All fields except
    [time_s] and [minor_words] are deterministic for any [jobs] value:
    allocation depends on [jobs] through per-domain scratch. *)
type pass_stat = {
  mutable runs : int;  (** invocations *)
  mutable fired : int;  (** invocations that changed the graph *)
  mutable pwork : int;  (** work units charged while the pass ran *)
  mutable time_s : float;  (** wall-clock seconds inside the pass *)
  mutable idle_s : float;
      (** the part of [time_s] inside runs that fired nothing: a pass
          proving it has no work *)
  mutable minor_words : int;
      (** words allocated on the minor heap inside the pass *)
  mutable size_delta : int;
      (** summed live-instruction delta (negative = the pass shrank IR) *)
}

type ctx = {
  program : Ir.Program.t option;
      (** metadata for inter-procedural facts; [None] for lone graphs *)
  mutable work : int;  (** deterministic compile-effort counter *)
  mutable analysis_hits : int;
      (** {!Ir.Analyses} cache hits observed under this context *)
  mutable analysis_misses : int;  (** ... and misses (= real computes) *)
  mutable contained : (string * int) list;
      (** contained per-function failures, per crash site (sorted) *)
  mutable pass_stats : (string * pass_stat) list;
      (** per-pass instrumentation, sorted by pass name *)
  mutable fix_capped : int;
      (** [fix(...)] groups that stopped at their [rounds] cap with the
          last round still firing, rather than at quiescence *)
  mutable memo_clean_passes : bool;
      (** run a pass only over what changed since it last ran clean (on
          by default): skip it when nothing did, run its region form
          otherwise; turned off for diagnostic runs (fault injection /
          paranoia) where every pass must run on the whole graph *)
  mutable paranoid : bool;
      (** paranoid mode: {!check} runs after every pass that fired and
          after every duplication *)
  mutable region_audit :
    (string -> (ctx -> Ir.Graph.t -> bool) -> Ir.Graph.t -> unit) option;
      (** lint hook: called whenever a pass is stamped clean after a
          region run or after a run that changed the graph, with the
          pass name and its whole-graph run, on the stamped state *)
}

val create : ?program:Ir.Program.t -> unit -> ctx

(** Charge [n] work units (roughly: IR nodes examined). *)
val charge : ctx -> int -> unit

(** Charge one pass over the graph's live instructions. *)
val charge_graph : ctx -> Ir.Graph.t -> unit

(** Record analysis-cache hit/miss deltas against this context. *)
val note_analyses : ctx -> hits:int -> misses:int -> unit

(** Record one contained per-function failure at [site]. *)
val note_contained : ctx -> site:string -> unit

(** Total contained failures across all sites. *)
val contained_total : ctx -> int

(** The per-pass instrumentation table, sorted by pass name. *)
val pass_table : ctx -> (string * pass_stat) list

(** Fold a worker context's counters into [into] (the parallel driver's
    deterministic merge: per-function contexts are merged in function
    name order, independent of which worker ran which function). *)
val merge_into : into:ctx -> ctx -> unit

(** [instrument ctx name ~size ~fired f] runs [f] as one run of
    [name]'s row in the per-pass table and returns its result,
    accumulating whether [fired] holds of that result, the work [f]
    charged, its wall time (also as idle time when [fired] does not
    hold), the minor-heap words it allocated and the change in
    [size ()].  {!run_pass} records every pass this way; a
    step the pass manager does not drive calls it directly: the
    program-level [inline], and the DBDS round's three tiers
    ([<tier>.simulate], [<tier>.tradeoff], [<tier>.duplicate]), whose
    rows nest inside the tier's own, inclusive row. *)
val instrument :
  ctx ->
  string ->
  size:(unit -> int) ->
  fired:('a -> bool) ->
  (unit -> 'a) ->
  'a

type t = {
  pass_name : string;
  preserves : Ir.Analyses.kind list;
      (** analyses whose cached values stay valid across this pass's own
          mutations; an empty list = the pass may change the CFG and
          preserves nothing *)
  region : (ctx -> Ir.Graph.t -> Ir.Analyses.clean -> bool) option;
      (** the pass run over what the graph's mutation log recorded since
          the pass's clean stamp: it must fire exactly as [run] would on
          the same state — same mutations in the same order — and charge
          only what it examines.  [None]: the pass always runs on the
          whole graph once anything changed. *)
  settles : bool;
      (** a run leaves no work for an immediate re-run of itself (it
          iterates to its own fixpoint), so a run that fired is stamped
          clean at its end too *)
  run : ctx -> Ir.Graph.t -> bool;
}

(** [make name run] with an optional preservation contract (default:
    preserves nothing), an optional region form (default: none) and
    whether a run settles the pass (default: false). *)
val make :
  ?preserves:Ir.Analyses.kind list ->
  ?region:(ctx -> Ir.Graph.t -> Ir.Analyses.clean -> bool) ->
  ?settles:bool ->
  string ->
  (ctx -> Ir.Graph.t -> bool) ->
  t

(** Paranoid mode: the IR verifier found a broken invariant right after
    the named phase ran.  Contained at site ["verify.<phase>"]. *)
exception Phase_invalid of { phase : string; reason : string }

(** A pass lied about its preservation contract: after [pass] ran, the
    cached [analysis] it declared preserved differs from a fresh
    recompute.  Raised only by {!check}; contained at site
    ["preserve.<pass>"]. *)
exception
  Contract_violated of { pass : string; analysis : string; reason : string }

(** [check ctx ?preserves phase g] is paranoid mode's one check, a no-op
    unless [ctx.paranoid].  Each analysis in [preserves] (the contract
    of a pass that fired) must equal a fresh recompute, else
    {!Contract_violated} naming [phase]; then the IR verifier must
    accept [g], else {!Phase_invalid} naming [phase].  {!run_pass}
    calls it after every run that fired; the DBDS driver after every
    duplication. *)
val check :
  ctx -> ?preserves:Ir.Analyses.kind list -> string -> Ir.Graph.t -> unit

(** Run one pass with the manager's uniform instrumentation: per-pass
    stats, application of the preservation contract to the analysis
    cache, and {!check} after a run that fired.  Every
    pass execution in the system goes through here.  With
    [memo_clean_passes], a pass with a clean stamp runs on the region
    logged since: skipped (charging nothing, counting no run) when the
    region is empty, through {!t.region} when it has one, on the whole
    graph otherwise. *)
val run_pass : ctx -> t -> Ir.Graph.t -> bool
