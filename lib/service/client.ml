(** Client side of the service protocol. *)

type t = {
  env : Env.t;
  conn : Env.conn;
  io_deadline_s : float;
  rd : Protocol.reader;
}

exception
  Connect_failed of {
    sock : string;
    attempts : int;
    elapsed_s : float;
    last : Env.net_err;
  }

let () =
  Printexc.register_printer (function
    | Connect_failed { sock; attempts; elapsed_s; last } ->
        Some
          (Printf.sprintf
             "Client.Connect_failed(%s after %d attempts over %.2fs: %s)" sock
             attempts elapsed_s
             (Env.net_err_to_string last))
    | _ -> None)

let roundtrip t (m : Protocol.message) =
  let deadline =
    if t.io_deadline_s = Float.infinity then Float.infinity
    else t.env.Env.mono () +. t.io_deadline_s
  in
  match t.conn.Env.send (Protocol.render m) with
  | () -> (
      match Protocol.receive ~deadline t.rd t.conn with
      | Error "eof" -> Error "transport: connection closed"
      | r -> r)
  | exception Env.Net (err, _) ->
      Error ("transport: " ^ Env.net_err_to_string err)

(* Full-jitter exponential backoff: the [k]-th retry sleeps a uniform
   draw from [0, min (base * 2^k) cap] — seeded through the
   environment, so a simulated run replays the same waits.  Retries
   stop once the next attempt could not start before [deadline_s] has
   elapsed. *)
let connect ?(env = Env.real) ?(deadline_s = 0.) ?(base_backoff_s = 0.02)
    ?(max_backoff_s = 1.0) ?(io_deadline_s = Float.infinity) ~sock () =
  let start = env.Env.mono () in
  let give_up = start +. deadline_s in
  let rec attempt k =
    match env.Env.connect sock with
    | conn -> { env; conn; io_deadline_s; rd = Protocol.reader () }
    | exception Env.Net (((Env.Not_found | Env.Refused) as last), _) ->
        let backoff =
          let cap = Float.min max_backoff_s (base_backoff_s *. (2. ** float_of_int k)) in
          let ms = max 1 (int_of_float (cap *. 1000.)) in
          float_of_int (env.Env.rand_int ms) /. 1000.
        in
        if env.Env.mono () +. backoff > give_up then
          raise
            (Connect_failed
               {
                 sock;
                 attempts = k + 1;
                 elapsed_s = env.Env.mono () -. start;
                 last;
               })
        else begin
          env.Env.sleep backoff;
          attempt (k + 1)
        end
  in
  attempt 0

let close t = t.conn.Env.close_conn ()

let ping t =
  match roundtrip t { Protocol.verb = "ping"; fields = [] } with
  | Ok m -> Protocol.field m "status" = Some "ok"
  | Error _ -> false

let compile_msg ?deadline_ms ?delay_ms ~config ~fn ~ir () =
  let opt name v =
    Option.to_list (Option.map (fun n -> (name, string_of_int n)) v)
  in
  {
    Protocol.verb = "compile";
    fields =
      [ ("config", Dbds.Config.to_line config); ("fn", fn); ("ir", ir) ]
      @ opt "deadline-ms" deadline_ms @ opt "delay-ms" delay_ms
      (* [Config.to_line] deliberately drops the fault plan (it must
         not split the artifact digest), so injection travels as its
         own test-hook header, like [delay-ms]. *)
      @ (match config.Dbds.Config.fault_plan with
        | None -> []
        | Some p -> [ ("inject", Dbds.Faults.to_string p) ]);
  }

let compile ?deadline_ms ?delay_ms ~config ~fn ~ir t =
  Result.bind
    (roundtrip t (compile_msg ?deadline_ms ?delay_ms ~config ~fn ~ir ()))
    Protocol.outcome_of_reply

let compile_ex ?deadline_ms ?delay_ms ~config ~fn ~ir t =
  Result.bind
    (roundtrip t (compile_msg ?deadline_ms ?delay_ms ~config ~fn ~ir ()))
    (fun reply ->
      Result.map
        (fun o -> (o, Protocol.retry_after_of_reply reply))
        (Protocol.outcome_of_reply reply))

let lookup ~digest t =
  Result.bind
    (roundtrip t { Protocol.verb = "lookup"; fields = [ ("digest", digest) ] })
    (fun m ->
      match Protocol.field m "status" with
      | Some "hit" -> (
          match Protocol.field m "ir" with
          | Some ir -> Ok (Some ir)
          | None -> Error "malformed hit reply")
      | Some "miss" -> Ok None
      | _ -> Error ("lookup refused: " ^ Protocol.field_or m "message" ""))

let stats t =
  Result.bind
    (roundtrip t { Protocol.verb = "stats"; fields = [] })
    (fun m ->
      match Protocol.field m "status" with
      | Some "ok" ->
          Ok
            ( Protocol.field_or m "broker" "",
              Protocol.field_or m "store" "",
              Protocol.field_or m "counts" "" )
      | _ -> Error "stats refused")

let shutdown_server t =
  Result.bind
    (roundtrip t { Protocol.verb = "shutdown"; fields = [] })
    (fun m ->
      match Protocol.field m "status" with
      | Some "ok" -> Ok ()
      | _ -> Error "shutdown refused")

(* ---- fleet-aware routing --------------------------------------------- *)

module Router = struct
  type client = t

  type t = {
    renv : Env.t;
    coord : string option;  (** coordinator socket, for view refreshes *)
    mutex : Env.mutex;
    mutable view : Member.view;
    mutable ring : Ring.t;
    conns : (string, client) Hashtbl.t;  (** node id -> live connection *)
    connect_deadline_s : float;
    io_deadline_s : float;
  }

  let locked r f =
    r.mutex.Env.lock ();
    Fun.protect ~finally:(fun () -> r.mutex.Env.unlock ()) f

  let make env coord view ~connect_deadline_s ~io_deadline_s =
    {
      renv = env;
      coord;
      mutex = env.Env.mutex ();
      view;
      ring = Ring.create (List.map fst view.Member.v_nodes);
      conns = Hashtbl.create 8;
      connect_deadline_s;
      io_deadline_s;
    }

  let view r = locked r (fun () -> r.view)

  let drop_conn r id =
    locked r (fun () ->
        match Hashtbl.find_opt r.conns id with
        | Some c ->
            Hashtbl.remove r.conns id;
            Some c
        | None -> None)
    |> Option.iter (fun c -> try close c with _ -> ())

  (* Adopt a newer view: swap the ring and hang up on departed nodes
     (their artifacts re-home; the next request re-routes). *)
  let update_view r (v : Member.view) =
    let stale =
      locked r (fun () ->
          if v.Member.v_epoch <= r.view.Member.v_epoch then []
          else begin
            r.view <- v;
            r.ring <- Ring.create (List.map fst v.Member.v_nodes);
            Hashtbl.fold
              (fun id _ acc ->
                if List.mem_assoc id v.Member.v_nodes then acc else id :: acc)
              r.conns []
          end)
    in
    List.iter (drop_conn r) stale

  let fetch_view ?(env = Env.real) ?(deadline_s = 1.0) ~sock () =
    let c = connect ~env ~deadline_s ~io_deadline_s:10.0 ~sock () in
    Fun.protect ~finally:(fun () -> close c) @@ fun () ->
    match roundtrip c { Protocol.verb = "view"; fields = [] } with
    | Ok m when Protocol.field m "status" = Some "ok" -> (
        match Protocol.view_of_message m with
        | Some v -> Ok v
        | None -> Error "malformed view reply")
    | Ok m ->
        Error ("view refused: " ^ Protocol.field_or m "message" "")
    | Error e -> Error e

  let refresh r =
    match r.coord with
    | None -> ()
    | Some sock -> (
        match
          try fetch_view ~env:r.renv ~deadline_s:r.connect_deadline_s ~sock ()
          with _ -> Error "unreachable"
        with
        | Ok v -> update_view r v
        | Error _ -> ())

  let create ?(env = Env.real) ?(connect_deadline_s = 1.0)
      ?(io_deadline_s = Float.infinity) ~coord () =
    let give_up = env.Env.mono () +. connect_deadline_s in
    (* A fleet still starting up has a coordinator but no node yet:
       wait for the first join, within the same deadline. *)
    let rec first_view () =
      match fetch_view ~env ~deadline_s:connect_deadline_s ~sock:coord () with
      | Ok { Member.v_nodes = []; _ } when env.Env.mono () < give_up ->
          env.Env.sleep 0.02;
          first_view ()
      | v -> v
    in
    match first_view () with
    | Ok v ->
        make env (Some coord) v ~connect_deadline_s ~io_deadline_s
    | Error e -> failwith ("Router.create: " ^ e)

  let of_view ?(env = Env.real) ?(connect_deadline_s = 1.0)
      ?(io_deadline_s = Float.infinity) view =
    make env None view ~connect_deadline_s ~io_deadline_s

  let close_all r =
    let cs =
      locked r (fun () ->
          let cs = Hashtbl.fold (fun _ c acc -> c :: acc) r.conns [] in
          Hashtbl.reset r.conns;
          cs)
    in
    List.iter (fun c -> try close c with _ -> ()) cs

  let node_conn r id addr =
    match locked r (fun () -> Hashtbl.find_opt r.conns id) with
    | Some c -> Some c
    | None -> (
        match
          connect ~env:r.renv ~deadline_s:r.connect_deadline_s
            ~io_deadline_s:r.io_deadline_s ~sock:addr ()
        with
        | c ->
            locked r (fun () -> Hashtbl.replace r.conns id c);
            Some c
        | exception _ -> None)

  (* One node, at most two tries: the cached connection (which may have
     died with a previous server incarnation), then one fresh connect. *)
  let try_node r id addr req =
    let attempt c =
      match req c with
      | Ok _ as ok -> Some ok
      | Error _ ->
          drop_conn r id;
          None
    in
    match node_conn r id addr with
    | None -> None
    | Some c -> (
        match attempt c with
        | Some ok -> Some ok
        | None -> Option.bind (node_conn r id addr) attempt)

  (* Route by the request digest: owner first, then its ring successors
     — a dead or partitioned owner fails over to the nodes most likely
     to hold a replica. *)
  let candidates r key =
    locked r (fun () ->
        let n = List.length r.view.Member.v_nodes in
        List.filter_map
          (fun id ->
            Option.map (fun a -> (id, a)) (List.assoc_opt id r.view.Member.v_nodes))
          (Ring.successors r.ring key ~n))

  let compile ?deadline_ms ?delay_ms ~config ~fn ~ir r =
    let key =
      match Digest.request_of_text ~config ~fn ir with
      | rq -> Digest.of_request rq
      | exception _ -> fn (* unparseable: any node will reject it *)
    in
    let req c = compile ?deadline_ms ?delay_ms ~config ~fn ~ir c in
    let sweep () =
      List.find_map (fun (id, addr) -> try_node r id addr req) (candidates r key)
    in
    match sweep () with
    | Some outcome -> outcome
    | None -> (
        (* Every known node failed: the view may be stale (crashes,
           rejoins).  Refresh it and sweep once more. *)
        let before = (view r).Member.v_epoch in
        refresh r;
        let retry =
          if (view r).Member.v_epoch <> before then sweep () else None
        in
        match retry with
        | Some outcome -> outcome
        | None -> Error "no fleet node reachable")
end
