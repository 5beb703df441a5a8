(** Pass framework: every optimization is a function [ctx -> Graph.t ->
    bool] (did it change anything?), packaged as a {!t} record carrying
    its name and its preservation contract over {!Ir.Analyses} kinds.
    The context carries program metadata, a deterministic work-unit
    counter, and the per-pass instrumentation the pass manager maintains
    uniformly ({!run_pass}). *)

(** Per-pass instrumentation, accumulated by {!run_pass} and merged
    deterministically across parallel workers.  All fields except
    [time_s] are deterministic for any [jobs] value. *)
type pass_stat = {
  mutable runs : int;  (** invocations *)
  mutable fired : int;  (** invocations that changed the graph *)
  mutable pwork : int;  (** work units charged while the pass ran *)
  mutable time_s : float;  (** wall-clock seconds inside the pass *)
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
  mutable memo_clean_passes : bool;
      (** skip a pass that already ran clean at the graph's current
          generation (on by default); turned off for diagnostic runs
          (fault injection / paranoia) where every pass must execute *)
  mutable check_contracts : bool;
      (** paranoid: recompute-and-compare every preserved analysis after
          each fired pass, raising {!Contract_violated} on a lie *)
  mutable post_phase : (string -> Ir.Graph.t -> unit) option;
      (** paranoid hook: called after every pass that changed the
          graph; may raise to abort (and contain) the pipeline *)
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

type t = {
  pass_name : string;
  preserves : Ir.Analyses.kind list;
      (** analyses whose cached values stay valid across this pass's own
          mutations; an empty list = the pass may change the CFG and
          preserves nothing *)
  enables : string list option;
      (** pass-interaction contract: when this pass fires, only the
          named passes can gain new opportunities from its changes —
          every other pass that ran clean on the pre-fire state keeps
          its convergence memo.  [None] (default) = may enable
          anything. *)
  run : ctx -> Ir.Graph.t -> bool;
}

(** [make name run] with an optional preservation contract (default:
    preserves nothing) and an optional pass-interaction contract
    (default: firing may enable any other pass). *)
val make :
  ?preserves:Ir.Analyses.kind list ->
  ?enables:string list ->
  string ->
  (ctx -> Ir.Graph.t -> bool) ->
  t

(** A pass lied about its preservation contract: after [pass] ran, the
    cached [analysis] it declared preserved differs from a fresh
    recompute.  Raised only under {!ctx.check_contracts} (paranoid
    mode); contained and attributed to the guilty pass by the driver. *)
exception
  Contract_violated of { pass : string; analysis : string; reason : string }

(** Run one pass with the manager's uniform instrumentation: per-pass
    stats, application of the preservation contract to the analysis
    cache, the paranoid contract check, and the post-phase hook.  Every
    pass execution in the system goes through here. *)
val run_pass : ctx -> t -> Ir.Graph.t -> bool
