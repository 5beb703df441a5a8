(** Compile-server daemon — see the interface for connection and
    shutdown semantics. *)

type fleet = {
  fl_id : string;
  fl_addr : string;
  fl_coord : string;
  fl_replicas : int;
  fl_beat_s : float;
}

type control = { stop : unit -> unit }

type state = {
  env : Env.t;
  broker : Broker.t;
  sock : string;
  listener : Env.listener;
  log : string -> unit;
  mutex : Env.mutex;
  fleet : fleet option;
  mutable fview : Member.view;  (** current membership view (fleet mode) *)
  mutable stopping : bool;
  mutable killed : bool;  (** stopped via {!control}, not [shutdown] *)
  mutable conns : Env.thread list;
}

let locked st f =
  st.mutex.Env.lock ();
  Fun.protect ~finally:(fun () -> st.mutex.Env.unlock ()) f

let stopping st = locked st (fun () -> st.stopping)

(* Stop the accept loop: raise the flag, then nudge [accept] awake with
   a throwaway connection (portable — closing a listening socket from
   another thread does not reliably interrupt an accept). *)
let trigger_stop st =
  locked st (fun () -> st.stopping <- true);
  match st.env.Env.connect st.sock with
  | conn -> conn.Env.close_conn ()
  | exception Env.Net _ -> ()

let ok_reply = { Protocol.verb = "reply"; fields = [ ("status", "ok") ] }

let stats_reply st =
  let b = Broker.stats st.broker in
  let counts = Buffer.create 256 in
  Printf.bprintf counts
    "requests=%d compiles=%d cache_hits=%d coalesced=%d shed=%d timeouts=%d \
     failures=%d"
    b.Broker.requests b.Broker.compiles b.Broker.cache_hits b.Broker.coalesced
    b.Broker.shed b.Broker.timeouts b.Broker.failures;
  let store_line =
    match Broker.store st.broker with
    | None -> "none"
    | Some s ->
        let ss = Store.stats s in
        Printf.bprintf counts
          " store_hits=%d store_misses=%d store_writes=%d store_evictions=%d \
           store_corrupt=%d store_peer_hits=%d store_peer_misses=%d \
           store_replicated=%d"
          ss.Store.hits ss.Store.misses ss.Store.writes ss.Store.evictions
          ss.Store.corrupt ss.Store.peer_hits ss.Store.peer_misses
          ss.Store.replicated;
        Format.asprintf "%a" Store.pp_stats ss
  in
  {
    Protocol.verb = "reply";
    fields =
      [
        ("status", "ok");
        ("broker", Format.asprintf "%a" Broker.pp_stats b);
        ("store", store_line);
        ("counts", Buffer.contents counts);
      ];
  }

let handle_compile st m =
  match (Protocol.field m "fn", Protocol.field m "ir") with
  | Some fn, Some ir -> (
      match Protocol.compile_config m with
      | Error msg -> Protocol.rejected msg
      | Ok config ->
          let outcome =
            Broker.submit
              ?deadline_s:(Protocol.ms_field m "deadline-ms")
              ?delay_s:(Protocol.ms_field m "delay-ms")
              ~config ~fn ~ir st.broker
          in
          st.log
            (Printf.sprintf "compile %s -> %s" fn
               (Broker.outcome_label outcome));
          Protocol.reply_of_outcome outcome)
  | _ -> Protocol.rejected "compile needs fn and ir fields"

(* ---- fleet verbs ------------------------------------------------------ *)

let with_store st f =
  match Broker.store st.broker with
  | Some s -> f s
  | None -> Protocol.rejected "this node has no artifact store"

(* A peer asks for an artifact: local disk only — a federated lookup
   here could bounce a miss around the ring forever. *)
let handle_fetch st m =
  match Protocol.field m "digest" with
  | None -> Protocol.rejected "fetch needs a digest field"
  | Some digest ->
      with_store st (fun s ->
          match Store.get s ~digest with
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
          | None -> { Protocol.verb = "reply"; fields = [ ("status", "miss") ] })

(* A peer replicates or re-homes an artifact onto this node.  Adopt it
   without re-replication (the pusher owns the placement decision);
   publication failures are contained in the store as always. *)
let handle_push st m =
  match
    ( Protocol.field m "digest",
      Protocol.field m "fn",
      Protocol.field m "ir",
      int_of_string_opt (Protocol.field_or m "work" "") )
  with
  | Some digest, Some fn, Some ir, Some work ->
      with_store st (fun s ->
          Store.put ~replicate:false s ~digest ~fn ~ir ~work;
          ok_reply)
  | _ -> Protocol.rejected "push needs digest, fn, ir and work fields"

let current_view st = locked st (fun () -> st.fview)

let adopt_view st (v : Member.view) =
  locked st (fun () ->
      if v.Member.v_epoch > st.fview.Member.v_epoch then st.fview <- v)

(* The coordinator pushed a new view: adopt it, then re-home every
   artifact whose owner set no longer includes this node. *)
let handle_rebalance st m =
  match (st.fleet, Protocol.view_of_message m) with
  | None, _ -> Protocol.rejected "this node is not in a fleet"
  | Some _, None -> Protocol.rejected "rebalance needs epoch and nodes fields"
  | Some fl, Some v ->
      adopt_view st v;
      let moved =
        match Broker.store st.broker with
        | None -> 0
        | Some s ->
            Fleet.rebalance ~env:st.env ~replicas:fl.fl_replicas
              ~self:fl.fl_id ~view:(current_view st) s
      in
      st.log
        (Printf.sprintf "rebalance to epoch %d: %d artifact(s) re-homed"
           v.Member.v_epoch moved);
      {
        Protocol.verb = "reply";
        fields = [ ("status", "ok"); ("moved", string_of_int moved) ];
      }

(* Membership heartbeat: join the coordinator, then beat every
   [fl_beat_s].  A beat answered "unknown" (we were swept out as
   crashed — e.g. healed from a partition) falls back to a re-join; an
   unreachable coordinator is retried forever.  A beat carrying a newer
   epoch than our view pulls the fresh view (the rebalance push may
   have been lost to the same partition that made us stale). *)
let heartbeat st fl =
  let env = st.env in
  let joined_view c =
    match Client.roundtrip c { Protocol.verb = "view"; fields = [] } with
    | Ok m when Protocol.field m "status" = Some "ok" ->
        Option.iter (adopt_view st) (Protocol.view_of_message m)
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
        Option.iter (adopt_view st) (Protocol.view_of_message m);
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
        | Some e when e <> (current_view st).Member.v_epoch -> joined_view c
        | _ -> ());
        true
    | Ok m when Protocol.field m "status" = Some "unknown" -> false
    | Ok _ | Error _ -> true (* a hiccup is not an eviction *)
  in
  let rec loop joined =
    if not (stopping st) then begin
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
      env.Env.sleep fl.fl_beat_s;
      loop joined
    end
  in
  loop false

(* Best-effort graceful departure — only on [shutdown], never on a
   {!control} kill (a killed node must look crashed, so the
   coordinator's sweep is what evicts it). *)
let send_leave st fl =
  match
    Client.connect ~env:st.env ~deadline_s:0.25 ~io_deadline_s:5.0
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

(* One connection: synchronous request/reply until EOF, a protocol
   error, or a shutdown request. *)
let handle st conn =
  let send m = try Protocol.write_conn conn m with Env.Net _ -> () in
  let rec loop () =
    match Protocol.read_conn conn with
    | Error "eof" -> ()
    | Error msg ->
        (* The stream may be desynchronized: answer and hang up. *)
        send (Protocol.rejected ("protocol error: " ^ msg))
    | Ok m -> (
        match m.Protocol.verb with
        | "ping" ->
            send ok_reply;
            loop ()
        | "stats" ->
            send (stats_reply st);
            loop ()
        | "shutdown" ->
            st.log "shutdown requested";
            send ok_reply;
            trigger_stop st
        | "compile" ->
            send (handle_compile st m);
            loop ()
        | "fetch" ->
            send (handle_fetch st m);
            loop ()
        | "push" ->
            send (handle_push st m);
            loop ()
        | "rebalance" ->
            send (handle_rebalance st m);
            loop ()
        | verb ->
            send (Protocol.rejected ("unknown verb: " ^ verb));
            loop ())
  in
  (try loop () with _ -> ());
  conn.Env.close_conn ()

(* A socket path that already exists is either a live server or the
   debris of a crashed one.  Probe it: a connection means live — refuse
   to start; refused / denied / vanished means stale — remove the
   debris and proceed.  [Denied] matters: a root-owned stale socket
   answers EACCES, not ECONNREFUSED, and must not abort startup. *)
let claim_socket env sock =
  if env.Env.file_exists sock then begin
    (match env.Env.connect sock with
    | conn ->
        conn.Env.close_conn ();
        invalid_arg
          (Printf.sprintf "Server.serve: %s already has a live server" sock)
    | exception Env.Net ((Env.Refused | Env.Denied | Env.Not_found), _) -> ());
    try env.Env.remove sock with Sys_error _ -> ()
  end

let serve ?(env = Env.real) ?(log = fun _ -> ()) ?fleet ?on_control ~sock
    ~broker () =
  claim_socket env sock;
  let listener = env.Env.listen sock in
  let st =
    {
      env;
      broker;
      sock;
      listener;
      log;
      mutex = env.Env.mutex ();
      fleet;
      fview = { Member.v_epoch = 0; v_nodes = [] };
      stopping = false;
      killed = false;
      conns = [];
    }
  in
  (match on_control with
  | None -> ()
  | Some f ->
      f
        {
          stop =
            (fun () ->
              locked st (fun () ->
                  st.stopping <- true;
                  st.killed <- true);
              (* Close the listener under the simulator (which wakes the
                 accept); the real environment relies on the shutdown
                 verb's self-connect nudge instead. *)
              try st.listener.Env.close_listener () with _ -> ());
        });
  (* Fleet mode: wire the store's federated lookup chain to the live
     view, and start the join/heartbeat loop.  The accept loop is
     already listening, so a rebalance push racing the join reply finds
     a server to talk to. *)
  let hb =
    match fleet with
    | None -> None
    | Some fl ->
        (match Broker.store broker with
        | Some s ->
            Fleet.federate ~env ~replicas:fl.fl_replicas ~self:fl.fl_id
              ~view:(fun () -> current_view st)
              s
        | None -> ());
        Some (env.Env.spawn "fleet-heartbeat" (fun () -> heartbeat st fl))
  in
  log (Printf.sprintf "listening on %s" sock);
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
                (Printf.sprintf "server-conn-%d" !conn_id)
                (fun () -> handle st conn)
            in
            locked st (fun () -> st.conns <- t :: st.conns);
            accept_loop ()
          end
      | exception Env.Net _ -> ()
  in
  accept_loop ();
  (try st.listener.Env.close_listener () with _ -> ());
  let conns = locked st (fun () -> st.conns) in
  List.iter (fun (t : Env.thread) -> t.Env.join ()) conns;
  (match hb with Some t -> t.Env.join () | None -> ());
  (match fleet with
  | Some fl when not (locked st (fun () -> st.killed)) -> send_leave st fl
  | _ -> ());
  Broker.shutdown broker;
  (try env.Env.remove sock with Sys_error _ -> ());
  log "stopped"
