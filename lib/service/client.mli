(** Client side of the compilation service protocol. *)

type t

(** Connection gave out: [attempts] tries over [elapsed_s] seconds, the
    final one failing with [last]. *)
exception
  Connect_failed of {
    sock : string;
    attempts : int;
    elapsed_s : float;
    last : Env.net_err;
  }

(** Connect to a server socket.  While the socket is missing or refuses
    ([ENOENT]/[ECONNREFUSED] — a server still starting), retries with
    {e full-jitter exponential backoff}: the [k]-th retry sleeps a
    uniform draw from [0, min (base_backoff_s * 2^k) max_backoff_s]
    (defaults 0.02 / 1.0), drawn through [env]'s seeded generator so a
    simulated run replays the same waits.  [deadline_s] bounds the
    whole dance (default 0 — a single attempt, no waiting);
    {!Connect_failed} reports exhaustion.  [io_deadline_s] bounds each
    later request/reply round-trip (default: none).  [env] defaults to
    {!Env.real}. *)
val connect :
  ?env:Env.t ->
  ?deadline_s:float ->
  ?base_backoff_s:float ->
  ?max_backoff_s:float ->
  ?io_deadline_s:float ->
  sock:string ->
  unit ->
  t

val close : t -> unit

(** One request/reply exchange (bounded by the connection's
    [io_deadline_s]).  [Error] covers transport and protocol failures;
    the fleet layers build their verbs ([fetch], [push], [join], ...)
    on this. *)
val roundtrip : t -> Protocol.message -> (Protocol.message, string) result

(** Round-trip a [ping]; [false] on any error. *)
val ping : t -> bool

(** Submit one function; the IR travels as printed text.  [deadline_ms]
    and [delay_ms] map to the protocol's optional headers.  [Error]
    covers transport/protocol failures (service-level refusals come back
    as [Ok Shed], [Ok (Rejected _)], ...). *)
val compile :
  ?deadline_ms:int ->
  ?delay_ms:int ->
  config:Dbds.Config.t ->
  fn:string ->
  ir:string ->
  t ->
  (Broker.outcome, string) result

(** The request message {!compile} sends — exposed for callers that
    pipeline raw messages over an {!Env.conn} (load generators, tests). *)
val compile_msg :
  ?deadline_ms:int ->
  ?delay_ms:int ->
  config:Dbds.Config.t ->
  fn:string ->
  ir:string ->
  unit ->
  Protocol.message

(** {!compile}, also surfacing the structured backoff hint a frontdoor
    shed carries ([retry-after-ms]). *)
val compile_ex :
  ?deadline_ms:int ->
  ?delay_ms:int ->
  config:Dbds.Config.t ->
  fn:string ->
  ir:string ->
  t ->
  (Broker.outcome * int option, string) result

(** Digest-keyed artifact fetch through the frontdoor's [lookup] verb:
    [Ok (Some ir)] on a hit, [Ok None] on a miss. *)
val lookup : digest:string -> t -> (string option, string) result

(** Fetch the server's stats: [(broker_line, store_line, counts_line)] —
    the counts line is space-separated [key=value] pairs (broker, then
    store counters) — see {!Frontdoor}. *)
val stats : t -> (string * string * string, string) result

(** Ask the server to shut down (it acknowledges, then stops). *)
val shutdown_server : t -> (unit, string) result

(** The fleet-aware client: hashes each request's digest onto the
    membership view's consistent-hash ring, sends it to the owner, and
    fails over along the ring successors (the nodes most likely to hold
    a replica) on transport errors.  When every known node fails, the
    view is refreshed from the coordinator and the sweep retried once —
    so a router survives node kills and rejoins without caller-side
    logic. *)
module Router : sig
  type t

  (** Fetch an epoch-stamped view from a coordinator socket. *)
  val fetch_view :
    ?env:Env.t ->
    ?deadline_s:float ->
    sock:string ->
    unit ->
    (Member.view, string) result

  (** Build a router against a coordinator (fetches the initial view,
      waiting for a fleet that has no node yet to get its first one;
      raises [Failure] when the coordinator is unreachable within
      [connect_deadline_s]).  [connect_deadline_s] also bounds each
      per-node connect during failover (default 1s); [io_deadline_s]
      bounds each request round-trip (default: none). *)
  val create :
    ?env:Env.t ->
    ?connect_deadline_s:float ->
    ?io_deadline_s:float ->
    coord:string ->
    unit ->
    t

  (** Build a router from a static view (no coordinator, no
      refreshes). *)
  val of_view :
    ?env:Env.t ->
    ?connect_deadline_s:float ->
    ?io_deadline_s:float ->
    Member.view ->
    t

  val view : t -> Member.view

  (** Adopt [view] if its epoch is newer; connections to departed
      nodes are closed. *)
  val update_view : t -> Member.view -> unit

  (** Re-fetch the view from the coordinator (no-op without one; a dead
      coordinator leaves the current view in place). *)
  val refresh : t -> unit

  (** Route one compile — see {!Client.compile} for the fields.
      [Error] only when no fleet node could be reached at all. *)
  val compile :
    ?deadline_ms:int ->
    ?delay_ms:int ->
    config:Dbds.Config.t ->
    fn:string ->
    ir:string ->
    t ->
    (Broker.outcome, string) result

  (** Close every cached connection (the router stays usable; the next
      request reconnects). *)
  val close_all : t -> unit
end
