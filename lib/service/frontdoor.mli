(** The compile service's accept loop: a single-threaded, poll-based,
    non-blocking event loop serving the compile protocol in front of a
    {!Broker}.

    The front door owns every connection from one loop built on
    {!Env.poller} and the non-blocking [try_*] connection operations —
    so it runs unchanged (and fully deterministically) under the
    whole-system simulator.  Three responsibilities:

    - {e connection state machines}: per-connection incremental read
      and write buffers for the length-prefixed protocol
      ({!Protocol}).  Garbage on a connection yields a structured
      [rejected] protocol-error reply and a drained close, never an
      exception out of the loop.
    - {e admission}: one path for every connection.  What the loop
      cannot answer goes to one bounded FIFO ([fd_queue_limit]) that
      feeds the dispatchers; a full queue answers a structured [shed]
      reply carrying a constant [retry-after-ms] hint instead of a
      dropped connection.
    - {e observability}: one server-wide log2-bucket latency histogram
      (p50/p95/p99 over every request), the queue depth, shed and
      protocol-error counters, all surfaced in the [stats] reply's
      [frontdoor] field.

    {b The request path.}  An admitted request is answered on the loop
    when that needs no blocking: a [compile] whose result is already in
    memory ({!Broker.submit_in_memory} — the broker's request-digest
    memo plus the store's parsed memo; never a parse or a disk read), a
    [lookup] the store's memo holds, or a request refused
    outright (a malformed [deadline-ms] or [delay-ms] among them).
    Everything else is queued to a small pool of dispatcher threads
    that call the blocking {!Broker.submit} and the store, so the loop
    itself never blocks on IO or a compile.  Both paths do the same
    broker and front-door accounting.  The dispatchers are system
    threads of the loop's domain ({!Env.t.spawn}); only the broker's
    compile workers get domains of their own.  An admitted request is
    always answered — shutdown drains the queue before the loop exits.

    {b Replies leave in request order.}  Each connection keeps one reply
    sequence: every request takes the next slot when it is decoded, and
    its reply — answered on the loop, refused, shed, or completed by a
    dispatcher — fills that slot.  Only the filled prefix is written, so
    a client pipelining requests on one connection reads the replies in
    the order it sent them.

    Verbs: [ping], [stats], [shutdown], [compile] and [lookup]
    (digest-keyed artifact fetch through the store's lookup chain).
    Any other verb gets a structured [unknown verb] rejection. *)

(** Log2-bucket latency histogram: bucket 0 is [\[0, 1)] ms, bucket
    [i >= 1] is [\[2^(i-1), 2^i)] ms.  Quantiles come back as the upper
    bound of the covering bucket (a <= 2x overestimate — stable and
    cheap, which is what an admission dashboard needs). *)
module Hist : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val bucket_of_ms : float -> int
  val quantile : t -> float -> float
end

type config = {
  fd_dispatchers : int;
      (** threads that wait on the broker for what the loop cannot
          answer (default 2) *)
  fd_queue_limit : int;
      (** bound of the dispatchers' FIFO; a request beyond it is shed
          (default 64) *)
}

val default_config : config

(** Serve until a [shutdown] request arrives.  Claims [sock] with
    {!Env.claim_socket} (a live server there makes startup fail with
    [Invalid_argument]; stale debris is removed) and removes it on
    exit.  [env] supplies transport/thread/disk capabilities (default
    {!Env.real}); pass the broker's environment.  [log] receives the
    start and shutdown lines only (default: silent) — no line per
    request: the [stats] reply counts every outcome.  [Broker.shutdown]
    runs on exit. *)
val serve :
  ?env:Env.t ->
  ?log:(string -> unit) ->
  ?config:config ->
  sock:string ->
  broker:Broker.t ->
  unit ->
  unit
