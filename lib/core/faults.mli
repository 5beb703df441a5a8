(** Deterministic fault injection for the DBDS pipeline.

    A fault plan [(seed, site, nth-hit)] arms one named site: the [nth]
    time it executes inside a matching function's per-function pipeline,
    {!Injected} is raised.  Hits are counted per function in
    thread-local state, so the crash point is deterministic for any
    [jobs] value — the foundation for reproducible containment and
    replayable crash bundles.  See {!Config.t.fault_plan} for threading
    a plan through the driver and [dbdsc --inject] / [DBDS_FAULTS] for
    the user-facing syntax. *)

type site =
  | Sim_opportunity  (** an applicability check fired in a DST *)
  | Transform_apply  (** the duplication transform, mid-mutation *)
  | Ssa_repair  (** SSA reconstruction after a duplication *)
  | Parallel_worker  (** a worker domain picking up a function *)
  | Analyses_cache  (** an analysis-cache miss (a real recompute) *)
  | Store_write  (** the artifact store, mid-payload (torn temp write) *)
  | Store_read  (** the artifact store reading an entry back *)
  | Store_rename  (** the atomic publish rename (torn publication) *)
  | Store_corrupt
      (** publish a subtly-wrong artifact with a {e valid} checksum — a
          deliberate bug the whole-system simulator's invariant checker
          must catch (never armed by seed derivation) *)
  | Net_drop  (** a transport chunk is lost; the connection resets *)
  | Net_reorder  (** a transport chunk is delivered out of order *)
  | Net_dup  (** a transport chunk is delivered twice *)
  | Net_partition  (** the network partitions for a window of time *)
  | Disk_slow  (** one disk operation stalls for a long time *)
  | Disk_torn  (** a file write is cut short mid-payload *)
  | Disk_crash  (** a crash between data write and publication rename *)
  | Clock_jump  (** the wall clock steps forward (NTP); mono is steady *)

(** The five per-function pipeline sites — the pool {!of_seed} draws
    from (kept stable so historical fuzz seeds reproduce). *)
val pipeline_sites : site list

(** The artifact-store sites of the compilation service. *)
val store_sites : site list

(** The whole-system simulator's environment sites (network, disk,
    clock) — the pool its chaos plans draw from. *)
val sim_sites : site list

val site_to_string : site -> string

type plan = {
  seed : int;  (** provenance: the fuzz seed this plan was derived from *)
  site : site;
  hit : int;  (** 1-based: the [hit]-th execution of [site] raises *)
  fn : string option;  (** only arm for this function ([None] = all) *)
}

exception Injected of { site : site; hit : int }

(** Render as [site:hit] or [site:hit:fn] — the [--inject] syntax. *)
val to_string : plan -> string

(** Parse [site:hit], [site:hit:fn] or [seed:N]. *)
val of_string : string -> (plan, string) result

(** Derive a pseudorandom (site, hit) plan from a seed, over
    {!pipeline_sites}.  Deterministic in [seed]. *)
val of_seed : int -> plan

(** Derive a pseudorandom (site, hit) plan from a seed, over
    {!store_sites}.  Deterministic in [seed]. *)
val of_seed_store : int -> plan

(** [armed plan ~fn f] runs [f] with the registry armed for function
    [fn] ([None] or a non-matching [plan.fn] arm nothing).  The hit
    counter starts fresh; the previous arming is restored on exit. *)
val armed : plan option -> fn:string -> (unit -> 'a) -> 'a

(** Announce one execution of [site].  No-op unless armed for it;
    raises {!Injected} on the plan's hit. *)
val hit : site -> unit

(** The registry's armed state (a plan plus its live hit counter),
    abstract.  Exposed only so a scheduler can store it per logical
    task. *)
type armed_state

(** Replace where the registry keeps its armed state.  By default it
    is local to the system thread; the whole-system simulator runs many
    logical tasks as cooperative fibers inside one domain, so it
    installs fiber-local storage here to keep arming from leaking
    between interleaved tasks. *)
val set_state_provider :
  get:(unit -> armed_state option) -> set:(armed_state option -> unit) -> unit

(** Restore the default (thread-local) state provider. *)
val default_state_provider : unit -> unit
