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
    {!Graph.snapshot} / {!Graph.restore}.  A graph is owned by exactly
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

(** Memoized {!Frequency.compute}, additionally keyed by [loop_factor]. *)
val frequency : ?loop_factor:float -> Graph.t -> Frequency.t

(** [preserve g ~since kinds] re-stamps each cached analysis in [kinds]
    that was valid at generation [since] to the graph's current
    generation — the pass manager applies a pass's declared preservation
    contract with this after the pass ran. *)
val preserve : Graph.t -> since:int -> kind list -> unit

(** [pass_clean g pass]: did [pass] last run at [g]'s current generation
    without changing anything?  Deterministic passes may be skipped when
    this holds (the fixpoint driver's convergence memo). *)
val pass_clean : Graph.t -> string -> bool

(** Record that [pass] just ran on [g] without firing or mutating.
    Stored copy-on-write in the analysis cache entry, so
    {!Graph.restore} brings the memo back exactly. *)
val note_pass_clean : Graph.t -> string -> unit

(** [keep_clean_except g ~since ~enabled]: a pass fired, moving [g] from
    generation [since] to the current one, and declares that only the
    [enabled] passes can gain new opportunities from its changes.
    Re-stamps every other pass's clean memo from [since] to the current
    generation; the [enabled] memos stay stale and really re-run. *)
val keep_clean_except : Graph.t -> since:int -> enabled:string list -> unit

(** Paranoid recompute-and-compare: [Error _] if the cached,
    currently-valid value of [kind] differs from a fresh computation
    (an invalid preservation claim).  A stale or absent cache trivially
    passes. *)
val check : Graph.t -> kind -> (unit, string) result

(** Lifetime cache hit/miss counters of a graph (0/0 before any
    lookup). *)
val stats : Graph.t -> stats
