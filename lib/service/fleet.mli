(** Fleet plumbing: peer store exchange, store federation, rebalance
    scans, worker membership, and the membership coordinator.

    A fleet is [K] ordinary {!Frontdoor}s (each with its own {!Store}
    and {!Broker}, serving with a {!worker} configuration) plus one
    coordinator.  Workers join the coordinator and heartbeat; the
    coordinator tracks the roster in a {!Member} table and pushes
    epoch-stamped views to every worker on membership change
    ([rebalance] verb), so each worker can re-home artifacts it no
    longer owns under the new {!Ring}.  Artifact exchange between
    stores uses two verbs of the existing length-prefixed protocol:
    [fetch] (digest → artifact or miss) and [push] (artifact → ok). *)

(** Ask the store at [addr] for an artifact.  [None] on a miss, a dead
    peer, or any protocol error — peer fetches must degrade to a miss,
    never block a lookup (connect deadline 0.25s, IO deadline 5s). *)
val peer_fetch :
  ?env:Env.t -> addr:string -> digest:string -> unit -> Store.entry option

(** Offer an artifact to the store at [addr]; [false] when it did not
    land. *)
val peer_push :
  ?env:Env.t -> addr:string -> digest:string -> Store.entry -> bool

(** {2 The serving half of peer exchange}

    Answered by any node with a store ([rejected] without one).  Both
    are local-only and never wait on another node: [fetch] reads this
    node's disk (a federated lookup here could bounce a miss around the
    ring forever), and [push] adopts the artifact without
    re-replication (the pusher owns the placement decision). *)

(** The reply to [fetch] (and the front door's [lookup]): [hit] with
    the artifact's [fn], [ir] and [work], or [miss]. *)
val artifact_reply : Store.entry option -> Protocol.message

val answer_fetch : Store.t option -> Protocol.message -> Protocol.message
val answer_push : Store.t option -> Protocol.message -> Protocol.message

(** {2 Worker membership} *)

(** Fleet-worker configuration. *)
type worker = {
  fl_id : string;  (** node id on the ring *)
  fl_addr : string;  (** this node's socket, as peers reach it *)
  fl_coord : string;  (** coordinator socket *)
  fl_replicas : int;  (** successor copies pushed on publish *)
  fl_beat_s : float;  (** heartbeat period, seconds *)
}

(** A serving node's fleet membership: its live view of the fleet and
    its heartbeat loop. *)
type node

(** Join the fleet: federate [store]'s lookup chain through the live
    membership view (after a local miss, {!Store.lookup} asks the
    digest's ring owners; after a local publish, the artifact is pushed
    to [fl_replicas] successors), and spawn the join/heartbeat loop,
    which runs until [stopping ()] holds.  Call once the node is
    listening, so a rebalance push racing the join reply finds it.
    [log] receives one line per rebalance. *)
val start :
  ?env:Env.t ->
  ?log:(string -> unit) ->
  stopping:(unit -> bool) ->
  worker ->
  Store.t option ->
  node

(** Answer the coordinator's [rebalance]: adopt the pushed view (if it
    is newer), then push every locally-held artifact whose owner set no
    longer includes this node to its new owner — local copies stay, the
    store is a cache.  The [ok] reply carries the count as [moved]. *)
val answer_rebalance : node -> Protocol.message -> Protocol.message

(** Wait for the heartbeat loop to notice [stopping], then — with
    [~leave:true], on a graceful shutdown — send the coordinator a
    best-effort [leave].  A killed node passes [~leave:false]: it must
    look crashed, so the coordinator's sweep is what evicts it. *)
val stop : node -> leave:bool -> unit

(** {2 The coordinator} *)

(** Run the membership coordinator on [sock]; blocks until a [shutdown]
    request.  Speaks [join]/[beat]/[leave]/[view]/[ping]/[stats]/
    [shutdown]; on every membership change — join, leave, or a
    heartbeat older than [beat_timeout_s] (swept at twice that rate) —
    it pushes the new view to every member as a [rebalance] message.
    Claims [sock] with {!Env.claim_socket}. *)
val coordinator :
  ?env:Env.t ->
  ?log:(string -> unit) ->
  ?beat_timeout_s:float ->
  sock:string ->
  unit ->
  unit
