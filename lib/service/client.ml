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

let compile_msg ?deadline_ms ?delay_ms ?(context = "") ~config ~fn ~ir () =
  let opt name v =
    Option.to_list (Option.map (fun n -> (name, string_of_int n)) v)
  in
  {
    Protocol.verb = "compile";
    fields =
      [ ("config", Dbds.Config.to_line config); ("fn", fn); ("ir", ir) ]
      (* Omitted when empty: the context-free senders (perfbench's
         generator, the simulator's pool) pin their request bytes. *)
      @ (if context = "" then [] else [ ("context", context) ])
      @ opt "deadline-ms" deadline_ms @ opt "delay-ms" delay_ms
      (* [Config.to_line] deliberately drops the fault plan (it must
         not split the artifact digest), so injection travels as its
         own test-hook header, like [delay-ms]. *)
      @ (match config.Dbds.Config.fault_plan with
        | None -> []
        | Some p -> [ ("inject", Dbds.Faults.to_string p) ]);
  }

let compile_ex ?deadline_ms ?delay_ms ?context ~config ~fn ~ir t =
  Result.bind
    (roundtrip t
       (compile_msg ?deadline_ms ?delay_ms ?context ~config ~fn ~ir ()))
    (fun reply ->
      Result.map
        (fun o -> (o, Protocol.retry_after_of_reply reply))
        (Protocol.outcome_of_reply reply))

let compile ?deadline_ms ?delay_ms ?context ~config ~fn ~ir t =
  Result.map fst (compile_ex ?deadline_ms ?delay_ms ?context ~config ~fn ~ir t)

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

let units ?(inline = true) prog =
  if inline then
    ignore (Opt.Inline.inline_program (Opt.Phase.create ~program:prog ()) prog);
  ( Digest.context_of_program prog,
    List.map
      (fun fn ->
        let g = Option.get (Ir.Program.find_function prog fn) in
        (fn, Ir.Printer.graph_to_string g))
      (Ir.Program.function_names prog) )
