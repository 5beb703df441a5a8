(** Whole-system simulation harness.

    Composes a complete compile-service topology — one front door
    ({!Service.Frontdoor}), a broker with W worker fibers and N client
    fibers — on top of the deterministic scheduler ({!Sched}) and the
    simulated environment ({!Simio}), runs a seeded schedule with chaos
    faults (message drops, reorders, duplicates, partitions, slow
    disks, torn writes, clock jumps), and checks the end-to-end
    invariant:

    {e every request either receives the byte-identical optimized IR
    the offline oracle computes, or a clean, contained, client-visible
    failure (shed / timeout / transport error / corrupt-evict-miss) —
    never a hang, never a wrong artifact.}

    A violating seed can be {!shrink}-reduced to a minimal topology and
    fault plan, and any result can be written as a replayable
    {!write_bundle} (same grammar family as crash bundles).

    The builder is TestBuilder-shaped: start from {!builder}, chain
    [with_*] functions, finish with {!run} / {!run_seeds}. *)

(** {2 Specs} *)

type spec = {
  seed : int;
  clients : int;
  requests_per_client : int;
  workers : int;
  queue_limit : int;
  chaos : int;  (** number of fault plans derived from the seed *)
  faults : Dbds.Faults.plan list;
      (** explicit plans, on top of the derived ones *)
  compile_delay_s : float;  (** broker's artificial compile stretch *)
  deadline_ms : int option;  (** per-request deadline *)
  store_capacity : int;
}

(** 3 clients × 4 requests, 2 workers, queue limit 16, 3 chaos plans,
    a 20 ms compile stretch, no deadline, a 256 KiB store. *)
val builder : ?seed:int -> unit -> spec

val with_seed : int -> spec -> spec
val with_clients : int -> spec -> spec
val with_requests : int -> spec -> spec
val with_chaos : int -> spec -> spec

(** Add one explicit fault plan.  Environment sites
    ({!Dbds.Faults.sim_sites}) arm the simulated network, disk and
    clock; any other site travels in the request configuration's fault
    plan, as a real client would arm it (the first such plan wins). *)
val with_fault : Dbds.Faults.plan -> spec -> spec

val with_deadline_ms : int option -> spec -> spec

(** A no-op: the simulator runs one server.  Kept only because the
    frozen benchmark's [exercise_unmeasured] ([perfbench/pb.ml]) still
    calls [with_nodes 2]. *)
val with_nodes : int -> spec -> spec

(** {2 Results} *)

type request_outcome = {
  ro_client : int;
  ro_fn : string;
  ro_label : string;  (** outcome label, or "transport"/"unreached" *)
  ro_detail : string;
}

type violation = { vio_kind : string; vio_detail : string }

type result = {
  r_spec : spec;
  r_outcomes : request_outcome list;
  r_violations : violation list;
  r_trace_hash : string;  (** 16 hex digits; equal traces = equal runs *)
  r_events : int;
  r_vtime : float;
  r_counts : (string * int) list;  (** outcome label histogram *)
}

val violating : result -> bool

(** The one line CLI sweeps and the pinned experiments output share:
    trace hash, event count, virtual time, outcome histogram. *)
val summary : result -> string

(** {2 Running} *)

(** The serverless reference for one compile request: the lone-graph
    pipeline the broker runs, without the broker.  The request's IR is
    parsed as a worker parses it, compiled in a program carrying its
    [context]'s class layouts and globals (none without a context),
    with no inlining, on one domain, and [fn]'s canonical text is the
    answer.
    @raise Failure on a malformed context. *)
val reference :
  ?context:string -> config:Dbds.Config.t -> fn:string -> string -> string

(** One simulated run of [spec]: its clients send requests from a fixed
    pool (two progen programs and the first benchmark of each
    workload-lab suite) through the front door, a garbage client and a
    slow-loris client probe it, and after shutdown a fresh store over
    the surviving disk must serve only what the oracle agrees with. *)
val run : spec -> result

(** [seeds] runs from [spec.seed] upwards, in seed order; [progress]
    sees each result as it completes. *)
val run_seeds :
  ?progress:(int -> result -> unit) -> seeds:int -> spec -> result list

(** Greedy minimization of a violating spec: the derived chaos is
    materialized into explicit faults, then one fault or one topology
    dimension at a time is dropped while the run still violates with
    the same kind (at most 200 runs).  [None] when [spec] does not
    violate; otherwise the minimal spec and the violation kind. *)
val shrink : spec -> (spec * string) option

(** {2 Replayable bundles} *)

val render_bundle : result -> string

exception Malformed_bundle of string

(** The spec a rendered bundle records.
    @raise Malformed_bundle on a bundle that is not v1, lacks a field,
    or ran a retired mode (the tiered-VM warm start, a fleet). *)
val parse_bundle : string -> spec

(** Write [r] as a replayable bundle under [dir]; returns the path.
    Atomic, via the crash-bundle discipline. *)
val write_bundle : dir:string -> result -> string

(** Parse a bundle file back into its spec and re-run it. *)
val replay : string -> result

(** {2 A hand-driven front door} *)

(** [serve_frontdoor ~seed client]: a scheduler seeded [seed], a
    simulated env with [faults], a broker (over a store at [/store] when
    [store], none otherwise) and the {!Service.Frontdoor.serve} fiber on
    [/fd]; then [client env] runs and the server fiber is joined, so
    [client] must end by shutting the server down.  Returns the
    schedule's outcome.  {!run} builds its own topology. *)
val serve_frontdoor :
  ?faults:Dbds.Faults.plan list ->
  ?store:bool ->
  ?workers:int ->
  ?queue_limit:int ->
  ?delay_s:float ->
  seed:int ->
  (Service.Env.t -> unit) ->
  Sched.outcome
