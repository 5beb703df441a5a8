(** Fleet plumbing: peer store exchange, federation wiring, rebalance
    scans, worker membership, and the membership coordinator — see the
    interface. *)

(* Peer exchanges are short-lived connections with tight deadlines: a
   dead or partitioned peer must degrade to a miss quickly, never stall
   a lookup behind a reconnect dance. *)
let peer_connect_deadline_s = 0.25
let peer_io_deadline_s = 5.0

(* ---- peer store exchange -------------------------------------------- *)

let with_peer ?env ~addr f =
  match
    Client.connect ?env ~deadline_s:peer_connect_deadline_s
      ~io_deadline_s:peer_io_deadline_s ~sock:addr ()
  with
  | exception _ -> None
  | c -> Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let peer_fetch ?env ~addr ~digest () =
  with_peer ?env ~addr (fun c ->
      match
        Client.roundtrip c
          { Protocol.verb = "fetch"; fields = [ ("digest", digest) ] }
      with
      | Ok m when Protocol.field m "status" = Some "hit" -> (
          match
            ( Protocol.field m "fn",
              Protocol.field m "ir",
              int_of_string_opt (Protocol.field_or m "work" "") )
          with
          | Some fn, Some ir, Some work ->
              Some { Store.ar_fn = fn; ar_ir = ir; ar_work = work }
          | _ -> None)
      | Ok _ | Error _ -> None)

let peer_push ?env ~addr ~digest (e : Store.entry) =
  Option.is_some
    (with_peer ?env ~addr (fun c ->
         match
           Client.roundtrip c
             {
               Protocol.verb = "push";
               fields =
                 [
                   ("digest", digest);
                   ("fn", e.Store.ar_fn);
                   ("ir", e.Store.ar_ir);
                   ("work", string_of_int e.Store.ar_work);
                 ];
             }
         with
         | Ok m when Protocol.field m "status" = Some "ok" -> Some ()
         | Ok _ | Error _ -> None))

(* ---- the serving half of peer exchange ------------------------------ *)

let with_store store f =
  match store with
  | Some s -> f s
  | None -> Protocol.rejected "this node has no artifact store"

let artifact_reply = function
  | Some e ->
      {
        Protocol.verb = "reply";
        fields =
          [
            ("status", "hit");
            ("fn", e.Store.ar_fn);
            ("ir", e.Store.ar_ir);
            ("work", string_of_int e.Store.ar_work);
          ];
      }
  | None -> { Protocol.verb = "reply"; fields = [ ("status", "miss") ] }

(* A peer asks for an artifact: local disk only — a federated lookup
   here could bounce a miss around the ring forever. *)
let answer_fetch store m =
  match Protocol.field m "digest" with
  | None -> Protocol.rejected "fetch needs a digest field"
  | Some digest ->
      with_store store (fun s -> artifact_reply (Store.get s ~digest))

(* A peer replicates or re-homes an artifact onto this node.  Adopt it
   without re-replication (the pusher owns the placement decision);
   publication failures are contained in the store as always. *)
let answer_push store m =
  match
    ( Protocol.field m "digest",
      Protocol.field m "fn",
      Protocol.field m "ir",
      int_of_string_opt (Protocol.field_or m "work" "") )
  with
  | Some digest, Some fn, Some ir, Some work ->
      with_store store (fun s ->
          Store.put ~replicate:false s ~digest ~fn ~ir ~work;
          Protocol.ok [])
  | _ -> Protocol.rejected "push needs digest, fn, ir and work fields"

(* ---- ring views ------------------------------------------------------ *)

(* The ring is a pure function of the node-id set; rebuilding it on
   every lookup would be sorting 64N points per request, so cache it by
   epoch. *)
let ring_cache view =
  let cached = ref None in
  fun () ->
    let v = view () in
    match !cached with
    | Some (epoch, ring) when epoch = v.Member.v_epoch -> (ring, v)
    | _ ->
        let ring = Ring.create (List.map fst v.Member.v_nodes) in
        cached := Some (v.Member.v_epoch, ring);
        (ring, v)

let addr_of v id = List.assoc_opt id v.Member.v_nodes

(* The digest's owner and replica successors: the first [1 + replicas]
   distinct nodes clockwise from the digest's point. *)
let owners ring digest ~replicas =
  Ring.successors ring digest ~n:(1 + max 0 replicas)

(* ---- federation wiring ----------------------------------------------- *)

(* Install the federated lookup chain on [store]: after a local miss,
   {!Store.lookup} asks the digest's ring owners (at most [1 + replicas]
   nodes, [self] excluded); after a local publish, the artifact is
   pushed to the digest's replica successors.  [view] is read on every
   operation; the ring is rebuilt only when the epoch changes. *)
let federate ?env ?(replicas = 1) ~self ~view store =
  let ring = ring_cache view in
  let fetch ~digest =
    let r, v = ring () in
    let rec try_peers = function
      | [] -> None
      | id :: rest ->
          if id = self then try_peers rest
          else
            let hit =
              Option.bind (addr_of v id) (fun addr ->
                  peer_fetch ?env ~addr ~digest ())
            in
            if hit = None then try_peers rest else hit
    in
    try_peers (owners r digest ~replicas)
  in
  let replicate ~digest entry =
    let r, v = ring () in
    List.fold_left
      (fun acc id ->
        if id = self then acc
        else
          match addr_of v id with
          | Some addr when peer_push ?env ~addr ~digest entry -> acc + 1
          | _ -> acc)
      0
      (owners r digest ~replicas)
  in
  Store.set_federation store ~fetch:(Some fetch) ~replicate:(Some replicate)

(* One rebalance sweep: push every locally-held artifact whose owner
   set under [view] no longer includes [self] to its new owner.  Local
   copies stay (the store is a cache; LRU GC reclaims them).  Returns
   the number of artifacts moved. *)
let rebalance ?env ?(replicas = 1) ~self ~view store =
  let r, v = ring_cache (fun () -> view) () in
  if Ring.is_empty r then 0
  else
    List.fold_left
      (fun moved digest ->
        match owners r digest ~replicas with
        | owner :: _ as os when not (List.mem self os) -> (
            (* This node no longer owns the artifact: offer it to the
               new owner (the local copy stays — it is a cache, and the
               LRU GC will reclaim it). *)
            match Store.get store ~digest with
            | Some e -> (
                match addr_of v owner with
                | Some addr when owner <> self ->
                    if peer_push ?env ~addr ~digest e then moved + 1
                    else moved
                | _ -> moved)
            | None -> moved)
        | _ -> moved)
      0 (Store.digests store)

(* ---- worker membership ------------------------------------------------ *)

type worker = {
  fl_id : string;
  fl_addr : string;
  fl_coord : string;
  fl_replicas : int;
  fl_beat_s : float;
}

type node = {
  n_env : Env.t;
  n_worker : worker;
  n_store : Store.t option;
  n_log : string -> unit;
  n_stopping : unit -> bool;
  n_mutex : Env.mutex;
  mutable n_view : Member.view;  (** current membership view *)
  mutable n_beat : Env.thread option;
}

let locked (mx : Env.mutex) f =
  mx.Env.lock ();
  Fun.protect ~finally:(fun () -> mx.Env.unlock ()) f

let current_view n = locked n.n_mutex (fun () -> n.n_view)

let adopt_view n (v : Member.view) =
  locked n.n_mutex (fun () ->
      if v.Member.v_epoch > n.n_view.Member.v_epoch then n.n_view <- v)

(* The coordinator pushed a new view: adopt it, then re-home every
   artifact whose owner set no longer includes this node. *)
let answer_rebalance n m =
  match Protocol.view_of_message m with
  | None -> Protocol.rejected "rebalance needs epoch and nodes fields"
  | Some v ->
      adopt_view n v;
      let fl = n.n_worker in
      let moved =
        match n.n_store with
        | None -> 0
        | Some s ->
            rebalance ~env:n.n_env ~replicas:fl.fl_replicas ~self:fl.fl_id
              ~view:(current_view n) s
      in
      n.n_log
        (Printf.sprintf "rebalance to epoch %d: %d artifact(s) re-homed"
           v.Member.v_epoch moved);
      Protocol.ok [ ("moved", string_of_int moved) ]

(* Membership heartbeat: join the coordinator, then beat every
   [fl_beat_s].  A beat answered "unknown" (we were swept out as
   crashed — e.g. healed from a partition) falls back to a re-join; an
   unreachable coordinator is retried forever, every quarter beat until
   the join succeeds.  A beat carrying a newer
   epoch than our view pulls the fresh view (the rebalance push may
   have been lost to the same partition that made us stale). *)
let heartbeat n =
  let env = n.n_env and fl = n.n_worker in
  let joined_view c =
    match Client.roundtrip c { Protocol.verb = "view"; fields = [] } with
    | Ok m when Protocol.field m "status" = Some "ok" ->
        Option.iter (adopt_view n) (Protocol.view_of_message m)
    | Ok _ | Error _ -> ()
  in
  let join c =
    match
      Client.roundtrip c
        {
          Protocol.verb = "join";
          fields = [ ("id", fl.fl_id); ("addr", fl.fl_addr) ];
        }
    with
    | Ok m when Protocol.field m "status" = Some "ok" ->
        Option.iter (adopt_view n) (Protocol.view_of_message m);
        true
    | Ok _ | Error _ -> false
  in
  let beat c =
    match
      Client.roundtrip c
        { Protocol.verb = "beat"; fields = [ ("id", fl.fl_id) ] }
    with
    | Ok m when Protocol.field m "status" = Some "ok" ->
        (match int_of_string_opt (Protocol.field_or m "epoch" "") with
        | Some e when e <> (current_view n).Member.v_epoch -> joined_view c
        | _ -> ());
        true
    | Ok m when Protocol.field m "status" = Some "unknown" -> false
    | Ok _ | Error _ -> true (* a hiccup is not an eviction *)
  in
  let rec loop joined =
    if not (n.n_stopping ()) then begin
      let joined =
        match
          Client.connect ~env ~deadline_s:(fl.fl_beat_s /. 2.)
            ~io_deadline_s:(4. *. fl.fl_beat_s) ~sock:fl.fl_coord ()
        with
        | exception _ -> joined
        | c ->
            Fun.protect
              ~finally:(fun () -> Client.close c)
              (fun () -> if joined then beat c else join c)
      in
      (* A node outside the fleet asks again soon: until it joins, no
         router can send it anything. *)
      env.Env.sleep (if joined then fl.fl_beat_s else fl.fl_beat_s /. 4.);
      loop joined
    end
  in
  loop false

let start ?(env = Env.real) ?(log = fun _ -> ()) ~stopping fl store =
  let n =
    {
      n_env = env;
      n_worker = fl;
      n_store = store;
      n_log = log;
      n_stopping = stopping;
      n_mutex = env.Env.mutex ();
      n_view = { Member.v_epoch = 0; v_nodes = [] };
      n_beat = None;
    }
  in
  Option.iter
    (federate ~env ~replicas:fl.fl_replicas ~self:fl.fl_id ~view:(fun () ->
         current_view n))
    store;
  n.n_beat <- Some (env.Env.spawn "fleet-heartbeat" (fun () -> heartbeat n));
  n

(* Best-effort graceful departure — only on [shutdown], never on a kill
   (a killed node must look crashed, so the coordinator's sweep is what
   evicts it). *)
let send_leave n =
  let fl = n.n_worker in
  match
    Client.connect ~env:n.n_env ~deadline_s:0.25 ~io_deadline_s:5.0
      ~sock:fl.fl_coord ()
  with
  | exception _ -> ()
  | c ->
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          ignore
            (Client.roundtrip c
               { Protocol.verb = "leave"; fields = [ ("id", fl.fl_id) ] }))

let stop n ~leave =
  Option.iter (fun (t : Env.thread) -> t.Env.join ()) n.n_beat;
  if leave then send_leave n

(* ---- the coordinator -------------------------------------------------- *)

type coord_state = {
  env : Env.t;
  member : Member.t;
  sock : string;
  listener : Env.listener;
  log : string -> unit;
  mutex : Env.mutex;
  mutable stopping : bool;
  mutable conns : Env.thread list;
}

let stopping st = locked st.mutex (fun () -> st.stopping)

let trigger_stop st =
  locked st.mutex (fun () -> st.stopping <- true);
  match st.env.Env.connect st.sock with
  | conn -> conn.Env.close_conn ()
  | exception Env.Net _ -> ()

(* Push the new view to every member so each can re-home artifacts it
   no longer owns.  Failures are the member's problem (it is crashing
   or partitioned; the next sweep will notice). *)
let push_rebalance st (v : Member.view) =
  List.iter
    (fun (id, addr) ->
      match
        with_peer ~env:st.env ~addr (fun c ->
            match
              Client.roundtrip c
                {
                  Protocol.verb = "rebalance";
                  fields = Protocol.view_fields v;
                }
            with
            | Ok m when Protocol.field m "status" = Some "ok" -> Some ()
            | Ok _ | Error _ -> None)
      with
      | Some () -> ()
      | None -> st.log (Printf.sprintf "rebalance push to %s failed" id))
    v.Member.v_nodes

let handle_coord st conn =
  let send m = try Protocol.write_conn conn m with Env.Net _ -> () in
  let rd = Protocol.reader () in
  let rec loop () =
    match Protocol.receive rd conn with
    | Error "eof" -> ()
    | Error msg ->
        send (Protocol.rejected ("protocol error: " ^ msg))
    | Ok m -> (
        match m.Protocol.verb with
        | "ping" ->
            send (Protocol.ok []);
            loop ()
        | "join" -> (
            match (Protocol.field m "id", Protocol.field m "addr") with
            | Some id, Some addr ->
                let before = Member.epoch st.member in
                let v = Member.join st.member ~id ~addr in
                st.log
                  (Printf.sprintf "join %s @ %s (epoch %d)" id addr
                     v.Member.v_epoch);
                send (Protocol.ok (Protocol.view_fields v));
                if v.Member.v_epoch <> before then push_rebalance st v;
                loop ()
            | _ ->
                send (Protocol.rejected "join needs id and addr fields");
                loop ())
        | "beat" -> (
            match Protocol.field m "id" with
            | Some id -> (
                match Member.beat st.member ~id with
                | Some epoch ->
                    send (Protocol.ok [ ("epoch", string_of_int epoch) ]);
                    loop ()
                | None ->
                    (* Swept out as crashed (or never joined): the
                       worker must re-join to re-enter the ring. *)
                    send
                      {
                        Protocol.verb = "reply";
                        fields = [ ("status", "unknown") ];
                      };
                    loop ())
            | None ->
                send (Protocol.rejected "beat needs an id field");
                loop ())
        | "leave" -> (
            match Protocol.field m "id" with
            | Some id ->
                let v = Member.leave st.member ~id in
                st.log (Printf.sprintf "leave %s (epoch %d)" id v.Member.v_epoch);
                send (Protocol.ok (Protocol.view_fields v));
                push_rebalance st v;
                loop ()
            | None ->
                send (Protocol.rejected "leave needs an id field");
                loop ())
        | "view" ->
            send
              (Protocol.ok (Protocol.view_fields (Member.view st.member)));
            loop ()
        | "stats" ->
            let v = Member.view st.member in
            send
              (Protocol.ok
                 (("members", string_of_int (List.length v.Member.v_nodes))
                 :: Protocol.view_fields v));
            loop ()
        | "shutdown" ->
            st.log "shutdown requested";
            send (Protocol.ok []);
            trigger_stop st
        | verb ->
            send (Protocol.rejected ("unknown verb: " ^ verb));
            loop ())
  in
  (try loop () with _ -> ());
  conn.Env.close_conn ()

let coordinator ?(env = Env.real) ?(log = fun _ -> ())
    ?(beat_timeout_s = 2.0) ~sock () =
  Env.claim_socket env ~owner:"Fleet.coordinator" sock;
  let listener = env.Env.listen sock in
  let member = Member.create ~env ~timeout_s:beat_timeout_s () in
  let st =
    {
      env;
      member;
      sock;
      listener;
      log;
      mutex = env.Env.mutex ();
      stopping = false;
      conns = [];
    }
  in
  log (Printf.sprintf "coordinating on %s" sock);
  (* Crash detection: sweep at twice the heartbeat-timeout rate so a
     silent node is declared dead within ~1.5 timeouts. *)
  let sweeper =
    env.Env.spawn "coord-sweeper" (fun () ->
        let rec tick () =
          if not (stopping st) then begin
            env.Env.sleep (beat_timeout_s /. 2.);
            (match Member.sweep member with
            | [] -> ()
            | dead ->
                let v = Member.view member in
                st.log
                  (Printf.sprintf "crashed: %s (epoch %d)"
                     (String.concat ", " dead) v.Member.v_epoch);
                push_rebalance st v);
            tick ()
          end
        in
        tick ())
  in
  let conn_id = ref 0 in
  let rec accept_loop () =
    if not (stopping st) then
      match st.listener.Env.accept () with
      | conn ->
          if stopping st then conn.Env.close_conn ()
          else begin
            incr conn_id;
            let t =
              st.env.Env.spawn
                (Printf.sprintf "coord-conn-%d" !conn_id)
                (fun () -> handle_coord st conn)
            in
            locked st.mutex (fun () -> st.conns <- t :: st.conns);
            accept_loop ()
          end
      | exception Env.Net _ -> ()
  in
  accept_loop ();
  st.listener.Env.close_listener ();
  let conns = locked st.mutex (fun () -> st.conns) in
  List.iter (fun (t : Env.thread) -> t.Env.join ()) conns;
  sweeper.Env.join ();
  (try env.Env.remove sock with Sys_error _ -> ());
  log "stopped"
