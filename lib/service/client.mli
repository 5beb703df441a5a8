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
    [io_deadline_s]).  [Error] covers transport and protocol failures. *)
val roundtrip : t -> Protocol.message -> (Protocol.message, string) result

(** Round-trip a [ping]; [false] on any error. *)
val ping : t -> bool

(** Submit one function; the IR travels as printed text.  [deadline_ms]
    and [delay_ms] map to the protocol's optional headers; [context]
    ({!Digest.context_of_program} of the function's program, default
    [""]) to the optional [context] field, omitted when empty.  [Error]
    covers transport/protocol failures (service-level refusals come back
    as [Ok Shed], [Ok (Rejected _)], ...). *)
val compile :
  ?deadline_ms:int ->
  ?delay_ms:int ->
  ?context:string ->
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
  ?context:string ->
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
  ?context:string ->
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
