(** Incremental analysis caching: memoized {!Dom}, {!Loops} and
    {!Frequency} computations per graph, with {e per-kind} validity
    stamps against the graph's monotonic {!Graph.generation} counter.

    A mutation invalidates by default, but a pass that declares it
    preserves an analysis can {!preserve} it — re-stamping the cached
    value to the current generation — so e.g. a pure instruction rewrite
    keeps the dominator tree cached across its own mutations.  The
    contract is checkable by recompute-and-compare ({!check}).

    The cache lives in the graph's {!Graph.cache} slot and is updated
    copy-on-write, so it is saved/restored exactly by
    {!Graph.snapshot} / {!Graph.restore}.  It also holds the pass
    manager's clean stamps ({!clean_stamp}).  A graph is owned by exactly
    one domain at a time, so no synchronization is needed. *)

type stats = { hits : int; misses : int }

(** The three cached CFG analyses — the vocabulary of pass preservation
    contracts. *)
type kind = Dom | Loops | Frequency

val kind_to_string : kind -> string
val all_kinds : kind list

(** Memoized {!Dom.compute}. *)
val dom : Graph.t -> Dom.t

(** Memoized {!Loops.compute} (over the memoized dominator tree). *)
val loops : Graph.t -> Loops.t

(** Memoized {!Frequency.compute} (over the memoized dominator tree and
    loop forest). *)
val frequency : Graph.t -> Frequency.t

(** [preserve g ~since kinds] re-stamps each cached analysis in [kinds]
    that was valid at generation [since] to the graph's current
    generation — the pass manager applies a pass's declared preservation
    contract with this after the pass ran. *)
val preserve : Graph.t -> since:int -> kind list -> unit

(** A pass's clean stamp: the {!Graph.log_length} at which a
    whole-graph run of the pass would last have fired nothing, and the
    dominator tree that was cached and valid then (what a region run of
    a dominator walk compares the current tree against). *)
type clean = { at : int; dom : Dom.t option }

(** [clean_stamp g pass]: the stamp of [pass]'s last clean run on [g],
    if any.  The entries logged since [at] are where [pass] can have
    gained work; none logged means it would run clean again. *)
val clean_stamp : Graph.t -> string -> clean option

(** Stamp [pass] clean at [g]'s current log position (the pass manager
    calls it after a run that fired nothing, and after any run of a
    pass that settles).  Stored copy-on-write in the analysis cache
    entry, so {!Graph.restore} brings the stamps back together with the
    log they index. *)
val note_pass_clean : Graph.t -> string -> unit

(** Drop [g]'s mutation log: passes stamped at the current position stay
    clean (at position 0 of the fresh log), older stamps are dropped with
    the entries they would read.  For when a function's pipeline is
    done; a snapshot taken earlier still restores its own log and
    stamps. *)
val drop_log : Graph.t -> unit

(** Paranoid recompute-and-compare: [Error _] if the cached,
    currently-valid value of [kind] differs from a fresh computation
    (an invalid preservation claim).  A stale or absent cache trivially
    passes. *)
val check : Graph.t -> kind -> (unit, string) result

(** Lifetime cache hit/miss counters of a graph (0/0 before any
    lookup). *)
val stats : Graph.t -> stats
