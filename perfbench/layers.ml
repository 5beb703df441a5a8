(* Per-layer measurements of the traced run that need their own calls:
   a round-1 replay of the DBDS tiers, the baseline compile the DBDS pass
   time is compared against, and an in-process replay of the service
   stages.  Every timing is a span around a public function of the
   layer. *)

let now = Unix.gettimeofday

let timed acc f =
  let t0 = now () in
  let r = f () in
  acc := !acc +. (now () -. t0);
  r

(* ---- core: round 1 of simulate -> trade-off -> duplicate --------------- *)

type core = { simulate_s : float; tradeoff_s : float; duplicate_s : float }

(* On each function after inlining and the classic fixpoint (the graph
   the first DBDS round sees), time the simulation tier, the ranking and
   [shouldDuplicate] decisions, and the duplications with their SSA
   repair, as the driver's round makes them. *)
let core_replay programs =
  let sim = ref 0.0 and trade = ref 0.0 and dup = ref 0.0 in
  let cfg = Dbds.Config.dbds in
  List.iter
    (fun (p : Gen.program) ->
      let prog = Lang.Frontend.compile p.src in
      let ctx = Opt.Phase.create ~program:prog () in
      ignore (Opt.Inline.inline_program ctx prog);
      Ir.Program.iter_functions prog (fun g ->
          ignore (Dbds.Driver.optimize_graph ~config:Dbds.Config.off ctx g);
          Trace.with_span ~id:p.uid "core.round1" (fun () ->
              let cands =
                Trace.with_span ~id:p.uid "core.simulate" (fun () ->
                    timed sim (fun () -> Dbds.Simulation.simulate ctx cfg g))
              in
              let ranked, budget =
                Trace.with_span ~id:p.uid "core.tradeoff" (fun () ->
                    timed trade (fun () -> (Dbds.Tradeoff.rank cands, Dbds.Tradeoff.budget_for g)))
              in
              List.iter
                (fun (c : Dbds.Candidate.t) ->
                  let accept =
                    Trace.with_span ~id:p.uid "core.tradeoff" (fun () ->
                        timed trade (fun () -> Dbds.Tradeoff.should_duplicate cfg budget c))
                  in
                  if accept then
                    match
                      Trace.with_span ~id:p.uid "core.duplicate" (fun () ->
                          timed dup (fun () -> Dbds.Transform.duplicate g ~merge:c.merge ~pred:c.pred))
                    with
                    | _ -> Dbds.Tradeoff.commit budget c
                    | exception Dbds.Transform.Not_applicable _ -> ())
                ranked)))
    programs;
  { simulate_s = !sim; tradeoff_s = !trade; duplicate_s = !dup }

(* The classic passes' time with DBDS off, for the DBDS pass's self time. *)
let baseline_classic_s programs =
  let acc = Aot.pass_acc () in
  List.iter
    (fun (p : Gen.program) ->
      let prog = Lang.Frontend.compile p.src in
      let r = Dbds.Driver.optimize_program_report ~config:Dbds.Config.off ~jobs:1 prog in
      Aot.add_passes acc (Opt.Phase.pass_table r.rep_ctx))
    programs;
  Aot.classic_time acc

(* ---- service stages, in process --------------------------------------- *)

type service = {
  decode : float list;  (** seconds per request *)
  render : float list;
  digest : float list;
  store_get : float list;
  store_put : float list;
  submit_hit : float list;
  submit_miss : float list;
  parse : float list;
}

(* Replay [n] requests of the workload's stream through the service
   layers one by one: decode the wire message, digest the request, read
   the artifact store, submit to a broker (one worker, its own store
   pre-filled like the server's), render the reply, and publish it to a
   second store.  The first 50 requests are then submitted again, so
   every workload has store hits as well as misses. *)
let service_replay ~out ~warm ~n next =
  let tag = string_of_int (Unix.getpid ()) in
  let dir = Filename.concat out ("replay-" ^ tag) and putdir = Filename.concat out ("replay-put-" ^ tag) in
  Svc.rm_rf dir;
  Svc.rm_rf putdir;
  Fun.protect ~finally:(fun () ->
      Svc.rm_rf dir;
      Svc.rm_rf putdir)
  @@ fun () ->
  let store = Service.Store.create ~capacity:(1 lsl 30) ~dir () in
  let pstore = Service.Store.create ~capacity:(1 lsl 30) ~dir:putdir () in
  let broker = Service.Broker.create ~workers:1 ~store:(Some store) () in
  Fun.protect ~finally:(fun () -> Service.Broker.shutdown broker) @@ fun () ->
  let config = Gen.config in
  let decode = ref [] and render = ref [] and digest = ref [] and store_get = ref [] in
  let store_put = ref [] and hit = ref [] and miss = ref [] and parse = ref [] in
  let sample l f =
    let t0 = now () in
    let r = f () in
    l := (now () -. t0) :: !l;
    r
  in
  let submit ~fn ~ir =
    let t0 = now () in
    let o = Service.Broker.submit ~config ~fn ~ir broker in
    let dt = now () -. t0 in
    (match o with
    | Service.Broker.Done { from_cache = true; _ } -> hit := dt :: !hit
    | _ -> miss := dt :: !miss);
    o
  in
  Array.iter (fun (fn, ir) -> ignore (Trace.with_span ~id:fn "replay.prefill" (fun () -> submit ~fn ~ir))) warm;
  let one (r : Gen.request) =
    let id = string_of_int r.rid in
    Trace.with_span ~id "replay.request" (fun () ->
        (match Trace.with_span ~id "service.decode" (fun () -> sample decode (fun () -> Service.Protocol.decode r.wire)) with
        | Service.Protocol.Msg _ -> ()
        | _ -> failwith "replay: request did not decode");
        let d =
          Trace.with_span ~id "service.digest" (fun () ->
              sample digest (fun () ->
                  Service.Digest.of_request (Service.Digest.request_of_text ~config ~fn:r.fn r.ir)))
        in
        ignore (Trace.with_span ~id "service.store_get" (fun () -> sample store_get (fun () -> Service.Store.get store ~digest:d)));
        let o = Trace.with_span ~id "service.broker_submit" (fun () -> submit ~fn:r.fn ~ir:r.ir) in
        ignore
          (Trace.with_span ~id "service.render" (fun () ->
               sample render (fun () -> Service.Protocol.render (Service.Protocol.reply_of_outcome o))));
        match o with
        | Service.Broker.Done { ir; work; _ } ->
            Trace.with_span ~id "service.store_put" (fun () ->
                sample store_put (fun () -> Service.Store.put pstore ~digest:d ~fn:r.fn ~ir ~work))
        | o -> failwith ("replay: broker answered " ^ Service.Broker.outcome_label o));
    ignore (Trace.with_span ~id "ir.parse" (fun () -> sample parse (fun () -> Ir.Parse.parse_graph r.ir)))
  in
  let reqs = List.init n (fun _ -> next ()) in
  List.iter one reqs;
  List.iteri (fun i r -> if i < 50 then one r) reqs;
  {
    decode = !decode;
    render = !render;
    digest = !digest;
    store_get = !store_get;
    store_put = !store_put;
    submit_hit = !hit;
    submit_miss = !miss;
    parse = !parse;
  }
