(** The deterministic single-threaded discrete-event scheduler.

    Every logical thread of the simulated system — the front door's
    event loop, broker workers, clients, the harness controller — is a
    {e fiber}: a cooperative task implemented with OCaml effects.  A
    fiber runs uninterrupted until it suspends (sleep, lock, receive,
    poll); suspension captures its one-shot continuation and parks it
    until some event resumes it.  All progress flows through one event
    heap keyed by [(virtual-time, sequence)], so a run is a pure
    function of the seed and the program — replaying a seed replays the
    exact schedule, byte for byte.

    The scheduler also owns the run's verdict on {e liveness}: when the
    heap drains while fibers are still suspended, nothing can ever wake
    them — that is a hang, reported with the stuck fibers' names.  An
    event-count ceiling (1,000,000) and a virtual-time ceiling (one
    hour) catch livelock the same way. *)

type t
type fiber

(** What a {!run} ended with. *)
type outcome = {
  ok : bool;  (** every fiber finished within the limits *)
  hung : string list;  (** fibers still suspended when the heap drained *)
  crashed : (string * string) list;  (** fiber, uncaught exception *)
  events : int;
  vtime : float;
  trace_hash : int64;  (** FNV-1a 64 over the executed schedule *)
  limit_hit : string option;  (** "events" / "horizon" when a guard tripped *)
}

(** A scheduler at virtual time 0 whose random draws are seeded by
    [seed]. *)
val create : seed:int -> unit -> t

(** Virtual time, seconds. *)
val now : t -> float

(** A seeded draw in [\[0, bound)] (a [bound] below 1 counts as 1). *)
val rand_int : t -> int -> int

(** [schedule ~delay ~desc t f] runs [f] [delay] virtual seconds from
    now (default 0); [desc] enters the trace hash. *)
val schedule : ?delay:float -> desc:string -> t -> (unit -> unit) -> unit

(** [suspend t f] parks the current fiber and hands [f] a one-shot
    [resume]: the first call schedules the fiber's continuation at the
    then-current virtual time; later calls are ignored (a waiter may be
    woken by both a broadcast and a timeout). *)
val suspend : t -> ((unit -> unit) -> unit) -> unit

val sleep : t -> float -> unit

(** Start a named fiber; an exception it raises is recorded as its
    crash. *)
val spawn : t -> string -> (unit -> unit) -> fiber

(** Suspend until the fiber has finished. *)
val join : t -> fiber -> unit

(** {2 Cooperative locks}

    Fibers only switch at suspension points, but the service holds its
    locks across blocking calls (a store write sleeps on the simulated
    disk mid-critical-section), so these are real queue-based locks.
    Wakeups are FIFO and deterministic. *)

type smutex
type scond

val mutex_create : unit -> smutex
val mutex_lock : t -> smutex -> unit
val mutex_unlock : t -> smutex -> unit
val cond_create : smutex -> scond
val cond_wait : t -> scond -> unit
val cond_broadcast : t -> scond -> unit

(** Run [main] as the fiber ["main"] until the heap drains or a guard
    trips.  Fault arming ({!Dbds.Faults}) is fiber-local for the run. *)
val run : t -> (unit -> unit) -> outcome
