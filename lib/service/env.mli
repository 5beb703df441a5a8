(** The service's capability environment — every effect the compile
    service performs (clocks, sleeping, randomness, threads, locks,
    transport, disk) goes through this record.

    Two implementations exist: {!real}, which maps each capability to
    the obvious [Unix]/[Sys]/[Thread]/[Domain] primitive and preserves
    the pre-seam behavior byte-for-byte; and the whole-system simulator's
    ([Simtest.Simio]), where the same record is backed by a virtual
    clock, an in-memory network, and a simulated disk, all driven by
    one seeded single-threaded scheduler.  Service code cannot tell
    which one it is running on — that is the point. *)

(** Structured transport errors, normalized across implementations. *)
type net_err =
  | Refused  (** nobody listening ([ECONNREFUSED]) *)
  | Denied  (** permission denied ([EACCES]) *)
  | Not_found  (** no such socket path ([ENOENT]) *)
  | Reset  (** peer vanished mid-stream ([ECONNRESET]/[EPIPE]) *)
  | Timeout  (** a receive deadline expired *)
  | Closed  (** the endpoint was closed locally *)
  | Eof  (** the peer closed cleanly mid-receive *)
  | Other of string

exception Net of net_err * string

val net_err_to_string : net_err -> string

(** Environment-unique ids for connections and listeners — the handle a
    {!poller} uses to find the underlying descriptor/endpoint. *)
val fresh_id : unit -> int

(** A bidirectional byte-stream connection.  The blocking receive takes
    an absolute deadline on the {e monotonic} clock ([Float.infinity] =
    wait forever) and raises [Net (Timeout, _)] past it.  Messages are
    framed above this layer ({!Protocol.reader}); a conn moves bytes
    only.  The [try_] variants never block — they are the event-loop
    half of the API and must only be mixed with the blocking half by
    one owner at a time.  A write to a peer that has gone raises
    [Net (Reset, _)]; under {!real} it never dies of [SIGPIPE]. *)
type conn = {
  id : int;
  send : string -> unit;
  recv : float -> int -> string;
      (** [recv deadline n] blocks until bytes are available and returns
          at least one and at most [n] of them.  Raises [Net (Eof, _)]
          at clean stream end. *)
  try_recv : int -> string;
      (** Up to [n] bytes already available, [""] when none are — never
          blocks.  Raises [Net (Eof, _)] at clean stream end,
          [Net (Reset, _)] on a vanished peer. *)
  try_send : string -> int;
      (** Write what fits without blocking; returns the count (possibly
          0).  Raises like [send] on a dead peer. *)
  close_conn : unit -> unit;
}

type listener = {
  lid : int;
  accept : unit -> conn;
      (** Blocks for the next connection; raises [Net (Closed, _)] once
          the listener is closed. *)
  try_accept : unit -> conn option;
      (** The pending connection if one is queued, [None] otherwise —
          never blocks.  Raises [Net (Closed, _)] once closed. *)
  close_listener : unit -> unit;
}

(** A readiness multiplexer over connections and listeners — the
    primitive under the frontdoor's event loop.  [poll] blocks until at
    least one of the given conns has readable input (or EOF/reset), a
    listener has a pending connection, [wake] is called, or the
    absolute monotonic deadline passes; the caller then re-checks each
    endpoint with the [try_] operations.  Spurious returns are allowed.
    [wake] is safe from any thread (a dispatcher completing a job). *)
type poller = {
  poll : conns:conn list -> listeners:listener list -> float -> unit;
  wake : unit -> unit;
  close_poller : unit -> unit;
}

(** A condition variable bound to the mutex that created it. *)
type cond = { wait : unit -> unit; broadcast : unit -> unit }

type mutex = {
  lock : unit -> unit;
  unlock : unit -> unit;
  new_cond : unit -> cond;
}

type thread = { join : unit -> unit }

type t = {
  now : unit -> float;  (** wall clock — timestamps, logs *)
  mono : unit -> float;
      (** monotonic clock — deadlines; never steps backwards even if
          the wall clock does *)
  sleep : float -> unit;
  rand_int : int -> int;
      (** uniform in [\[0, bound)] — seeded and replayable under
          simulation *)
  pid : int;
  spawn : string -> (unit -> unit) -> thread;
      (** [spawn name f] runs [f] on a thread that mostly waits — on a
          lock, a socket or a timer — and shares its caller's core;
          [name] labels the task in simulator traces *)
  spawn_compute : string -> (unit -> unit) -> thread;
      (** Like [spawn], for a thread that computes (a broker's compile
          worker): it gets a core of its own *)
  mutex : unit -> mutex;
  listen : string -> listener;  (** bind + listen on a socket path *)
  connect : string -> conn;
  poller : unit -> poller;
  file_exists : string -> bool;
  mkdir : string -> unit;  (** create-if-missing; existing dir is fine *)
  readdir : string -> string array;  (** sorted, for determinism *)
  file_size : string -> int;
  read_file : string -> string;
  write_file : string -> string -> unit;
  rename : string -> string -> unit;
  remove : string -> unit;
}

(** The production environment: real clocks, [Unix] sockets, the real
    filesystem.  [spawn] starts a system thread of the caller's domain,
    [spawn_compute] a [Domain] — so a server's only extra domains are
    its compile workers, and a thread that only waits never joins a
    stop-the-world collection as a domain of its own.  [mono] is the
    wall clock clamped to never decrease (the toolchain here lacks
    [Unix.clock_gettime]); that is enough to keep an NTP step from
    expiring or immortalizing queued jobs.  A conn reads straight from
    its socket, so a [select] over the registered descriptors sees every
    pending byte; the poller is that [select] plus a self-pipe for
    [wake].  The
    first real conn sets [SIGPIPE] to ignored, process-wide: a write to
    a peer that hung up then fails with [EPIPE] (raised as
    [Net (Reset, _)]) instead of killing the process. *)
val real : t

(** The stale-socket probe every listener runs before binding [sock].
    A pre-existing path is probed: if something answers, startup is
    refused ([Invalid_argument], naming [owner] — the caller, e.g.
    ["Frontdoor.serve"]); if the probe is refused, denied, or finds
    nothing (a stale socket from a crashed server — including a
    permission-denied one), the debris is removed and startup
    proceeds. *)
val claim_socket : t -> owner:string -> string -> unit
