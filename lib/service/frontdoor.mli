(** The compile service's accept loop: a single-threaded, poll-based,
    non-blocking, multi-tenant event loop serving the compile protocol
    in front of a {!Broker} — for a lone server and for every fleet
    worker alike.

    The front door owns every connection from one loop built on
    {!Env.poller} and the non-blocking [try_*] connection operations —
    so it runs unchanged (and fully deterministically) under the
    whole-system simulator.  Three responsibilities:

    - {e connection state machines}: per-connection incremental read
      and write buffers for the length-prefixed text protocol, plus the
      compact binary framing (see {!Protocol.render_binary}) negotiated
      per connection with [hello framing=binary] — text stays the
      default and wire-compatible with old clients.  Garbage on a
      connection yields a structured [rejected] protocol-error reply
      and a drained close, never an exception out of the loop.
    - {e tenant-aware admission}: clients present a tenant id via
      [hello tenant=...]; each tenant holds a token-bucket quota, and
      every request rides one of two priority lanes the client chooses
      ([interactive], for latency-sensitive requests, preempting
      [batch]) drained by weighted-deficit round-robin, so interactive wins the head of
      each round but batch never starves.  Overload (quota exhausted or
      lane queue full) is answered with a structured [shed] reply
      carrying a [retry-after-ms] hint instead of a dropped connection.
    - {e per-tenant observability}: log2-bucket latency histograms
      (p50/p95/p99), queue depths, shed and protocol-error counters,
      all surfaced in the [stats] reply's [frontdoor] field.

    {b The request path.}  An admitted request is answered on the loop
    when that needs no blocking: a [compile] whose result is already in
    memory ({!Broker.submit_in_memory} — the broker's request-digest
    memo plus the store's parsed memo; never a parse, a disk read or a
    peer fetch), a [lookup] the store's memo holds, or a request refused
    outright.  Everything else is queued to a small pool of dispatcher
    threads that call the blocking {!Broker.submit} and the store, so
    the loop itself never blocks on IO or a compile.  Both paths take
    the same quota debit and do the same broker, tenant and front-door
    accounting.  The dispatchers are system threads of the loop's domain
    ({!Env.t.spawn}); only the broker's compile workers get domains of
    their own.  An admitted request is always answered — shutdown
    drains the lanes before the loop exits.

    {b Replies leave in request order.}  Each connection keeps one reply
    sequence: every request takes the next slot when it is decoded, and
    its reply — answered on the loop, refused, shed, or completed by a
    dispatcher — fills that slot.  Only the filled prefix is written, so
    a client pipelining requests on one connection reads the replies in
    the order it sent them.  Each reply is rendered in the framing its
    request arrived in.

    Verbs: [ping], [hello], [stats], [shutdown], [compile], [lookup]
    (digest-keyed artifact fetch through the store's federated chain),
    the peer-exchange verbs [fetch] / [push], and the coordinator's
    [rebalance].

    {b No cross-node dispatcher cycles.}  [fetch] (local disk only) and
    [push] (adopted without re-replication) are answered on the loop
    itself, with no tenant-quota debit and no dispatcher slot.  A
    dispatcher doing a federated lookup, or a broker worker
    replicating, waits on a {e peer's} fetch/push; if those needed the
    peer's dispatchers too, two busy nodes could deadlock each other.
    [rebalance] is admitted to the dispatchers without a quota debit
    and keeps its synchronous [moved] reply; its outbound pushes are
    answered on the peers' loops, so it cannot join a cycle.  On a node
    without a fleet, [rebalance] is [rejected]. *)

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

(** Token-bucket quota, refilled lazily on the monotonic clock. *)
module Quota : sig
  type t

  val create : rate:float -> burst:float -> t
  val try_take : t -> now:float -> bool

  (** Milliseconds until one full token accrues — the hint a quota
      shed carries. *)
  val retry_after_ms : t -> int
end

(** Two priority lanes with weighted-deficit round-robin dequeue. *)
module Lanes : sig
  type lane = Interactive | Batch

  val lane_of_string : string -> lane

  (** ["interactive"] or ["batch"]. *)
  val lane_to_string : lane -> string

  type 'a t

  (** Weights clamp to [>= 1]; defaults 3 (interactive) : 1 (batch). *)
  val create : ?w_interactive:float -> ?w_batch:float -> unit -> 'a t

  val push : 'a t -> lane -> 'a -> unit
  val pop : 'a t -> 'a option
  val length : 'a t -> lane -> int
  val is_empty : 'a t -> bool
end

type config = {
  fd_dispatchers : int;
      (** threads that wait on the broker for what the loop cannot
          answer (default 2) *)
  fd_queue_limit : int;  (** per-lane admission bound (default 64) *)
  fd_tenant_rate : float;  (** tokens per second per tenant (default 50) *)
  fd_tenant_burst : float;  (** bucket depth (default 100) *)
  fd_w_interactive : float;
  fd_w_batch : float;
  fd_shed_retry_ms : int;  (** hint on a queue-full shed (default 250) *)
}

val default_config : config

(** A handle to stop the loop from outside the protocol, abruptly: no
    [leave] is sent (the node must look crashed — the coordinator's
    sweep evicts it) and outstanding replies are never delivered (the
    dispatchers still finish the jobs already admitted).  Built for the
    whole-system simulator's node kills. *)
type control = { stop : unit -> unit }

(** Serve until a [shutdown] request arrives.  Claims [sock] with
    {!Env.claim_socket} (a live server there makes startup fail with
    [Invalid_argument]; stale debris is removed) and removes it on
    exit.  [env] supplies transport/thread/disk capabilities (default
    {!Env.real}); pass the broker's environment.  [log] receives one
    line per served request (default: silent).  [fleet] makes this node
    a fleet worker: it joins the coordinator and heartbeats, federates
    its store through the live view, answers [rebalance], and sends a
    best-effort [leave] on [shutdown] — never on a {!control} kill.
    [on_control] receives the kill handle before the loop starts.
    [Broker.shutdown] runs on exit. *)
val serve :
  ?env:Env.t ->
  ?log:(string -> unit) ->
  ?config:config ->
  ?fleet:Fleet.worker ->
  ?on_control:(control -> unit) ->
  sock:string ->
  broker:Broker.t ->
  unit ->
  unit
