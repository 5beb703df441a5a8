(** The in-process compilation broker: compile worker domains, in-flight
    coalescing, bounded admission and deadlines.  It is the artifact
    store's one compiling client.

    Callers {!submit} one function's IR under a configuration — with
    its program's context, the class layouts and globals
    ({!Digest.context_of_program}) — and block until an outcome is
    available.  A request goes down one chain:
    its digest (memoized, below) → the shutdown and deadline refusals
    → the store's parsed memo → coalesce
    onto an in-flight job or register one → the store's disk
    ({!Store.lookup}) → the worker queue.  Everything up to the queue
    runs on the calling thread, so the queue holds only cold compiles
    and a store hit never waits behind one.  {!submit_in_memory} is the
    chain's prefix up to the store's memo, for an event loop.

    Three service disciplines:

    - {e coalescing}: requests are keyed by content digest; while a
      digest is in flight (queued or compiling), further requests for it
      do not enqueue new work — they wait on the same job and share its
      outcome.  N concurrent identical requests cost one compile.
    - {e backpressure}: the admission queue is bounded; a store miss
      that finds it full is {e shed} immediately ([Shed]) rather than
      queued — the caller can retry, the broker never builds unbounded
      backlog.  Coalescing waiters don't occupy queue slots; store hits
      never touch the queue.
    - {e deadlines}: a request may carry a relative deadline.  An
      already-expired deadline is rejected at admission; a job whose
      interested deadlines have all passed by the time a worker picks it
      up is dropped without compiling ([Timed_out]).  There is no
      mid-compile cancellation (stdlib domains cannot be interrupted) —
      a deadline that expires while its job is already compiling is
      still served the result; expiry is only acted on at admission and
      dequeue.

    Compiles run through {!Dbds.Driver.optimize_program_report}, which
    contains every crash, so a crashing pipeline costs one request
    ([Failed]), never the broker.  The function compiles in a program
    rebuilt from the request's context ({!Digest.facts_of_context}), so
    partial escape analysis and read elimination see the same class
    layouts a direct compile of the whole program sees.  A context that
    does not parse is [Rejected] (["context: …"]), never compiled
    without its facts.  With a {!Store} attached, submitters
    check it ({!Store.lookup}) before queueing and workers publish
    after compiling, so outcomes survive the process.

    {b Request-digest memo.}  Each broker remembers the content digest
    of the last 1024 distinct requests, keyed on the exact
    [(fn, Config.to_line config, context, IR text)].  A repeat request
    skips the IR parse and the canonical hash.  The digest is a pure function of
    that key, so an entry can never be stale; a renumbered copy of the
    same function misses the memo but still computes the same digest,
    so the memo never splits the cache.  Past 1024 entries the oldest is
    forgotten.  The memo is per broker and guarded by the broker's lock,
    so runs under the simulator stay deterministic.

    {b One parse per cold request.}  A memo miss parses the text to
    hash it and hands that graph to the job it creates; the worker
    optimizes it in place.  Only a job created by a memo hit parses the
    text (and its context) when it compiles, and only if the store
    misses. *)

type outcome =
  | Done of { ir : string; work : int; from_cache : bool }
      (** canonical optimized IR; [from_cache] = served from the store *)
  | Failed of string  (** contained pipeline failure *)
  | Timed_out  (** deadline expired before a worker ran the job *)
  | Shed  (** admission queue full *)
  | Rejected of string  (** malformed request or broker shut down *)

val outcome_label : outcome -> string

type stats = {
  mutable requests : int;  (** submissions, including rejected ones *)
  mutable compiles : int;  (** pipeline executions that completed *)
  mutable cache_hits : int;  (** jobs served from the store *)
  mutable coalesced : int;  (** requests that joined an in-flight job *)
  mutable shed : int;  (** requests refused by backpressure *)
  mutable timeouts : int;  (** expired at admission or dequeue *)
  mutable failures : int;  (** contained pipeline failures *)
}

type t

(** Start a broker with [workers] compile threads (default 2) and an
    admission queue bounded at [queue_limit] jobs (default 64).
    [delay_s] artificially stretches every real (non-cache) compile —
    a test hook that makes request overlap, and therefore coalescing,
    deterministic for the protocol smoke tests.  [env] supplies clock,
    thread and lock capabilities (default {!Env.real}); the workers are
    its compute threads ({!Env.t.spawn_compute} — real domains), which
    under simulation become cooperative fibers.  Deadlines are measured
    on [env]'s {e monotonic} clock, so
    a wall-clock (NTP) step can neither expire nor immortalize queued
    jobs. *)
val create :
  ?env:Env.t ->
  ?workers:int ->
  ?queue_limit:int ->
  ?delay_s:float ->
  store:Store.t option ->
  unit ->
  t

val store : t -> Store.t option
val stats : t -> stats

(** The compile workers it started (at least 1). *)
val workers : t -> int

(** Its admission queue's bound (at least 1). *)
val queue_limit : t -> int

(** Submit one function and block for its outcome.  [ir] is printed IR
    text (any id numbering); [deadline_s] is relative seconds from now
    (default: none); [delay_s] overrides the broker's compile stretch
    for this request's job (test hook — a coalesced request inherits the
    job's existing delay); [context] (default [""]: no classes, no
    globals) is hashed into the digest and rebuilt for the compile.
    Safe to call from many threads and domains concurrently. *)
val submit :
  ?deadline_s:float ->
  ?delay_s:float ->
  ?context:string ->
  config:Dbds.Config.t ->
  fn:string ->
  ir:string ->
  t ->
  outcome

(** The in-memory prefix of {!submit}'s chain: [Some] outcome when the
    request's digest is in the digest memo and its artifact in the
    store's parsed memo, with exactly the accounting {!submit} would
    do; [None] — having counted nothing — when answering needs a parse,
    the disk or a compile.  Never blocks on IO, so an event loop
    may call it. *)
val submit_in_memory :
  ?deadline_s:float ->
  ?context:string ->
  config:Dbds.Config.t ->
  fn:string ->
  ir:string ->
  t ->
  outcome option

(** Stop accepting work, fail queued jobs ([Rejected]), finish the jobs
    already compiling, and join the workers.  Idempotent. *)
val shutdown : t -> unit

val pp_stats : Format.formatter -> stats -> unit
