(** Cold-vs-warm artifact-store identity and the front-door overload
    sweep — see the interface. *)

(* The store directory is scratch: remove every artifact and the
   directory itself (best effort — a leftover temp dir is harmless). *)
let rm_rf dir =
  if Sys.file_exists dir then (
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Sys.rmdir dir with Sys_error _ -> ())

(* Every function of every program as one compile request: its name,
   its printed post-inline IR and its program's context.  The program
   is inlined first, as [dbdsc --connect] does: the service compiles
   post-inlining units. *)
let requests_of programs =
  List.concat_map
    (fun prog ->
      ignore
        (Opt.Inline.inline_program (Opt.Phase.create ~program:prog ()) prog);
      let context = Service.Digest.context_of_program prog in
      List.map
        (fun name ->
          let g = Option.get (Ir.Program.find_function prog name) in
          (name, Ir.Printer.graph_to_string g, context))
        (Ir.Program.function_names prog))
    programs

let measure_suite (suite : Workloads.Suite.t) =
  (* Through [Suite.compile]: a direct-IR benchmark has no source. *)
  let requests =
    requests_of (List.map Workloads.Suite.compile suite.Workloads.Suite.benchmarks)
  in
  if requests = [] then
    invalid_arg
      (Printf.sprintf "Servicebench.measure_suite: suite %s yields no request"
         suite.Workloads.Suite.suite_name);
  let dir = Filename.temp_dir "dbds-service-bench" ".store" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let store = Service.Store.create ~dir () in
  let broker = Service.Broker.create ~workers:1 ~store:(Some store) () in
  Fun.protect ~finally:(fun () -> Service.Broker.shutdown broker) @@ fun () ->
  let run_pass () =
    List.map
      (fun (fn, ir, context) ->
        match
          Service.Broker.submit ~context ~config:Dbds.Config.dbds ~fn ~ir broker
        with
        | Service.Broker.Done { ir; _ } -> Some ir
        | _ -> None)
      requests
  in
  let cold = run_pass () in
  let st = Service.Store.stats store in
  let h0 = st.Service.Store.hits and m0 = st.Service.Store.misses in
  let warm = run_pass () in
  let hits = st.Service.Store.hits - h0
  and misses = st.Service.Store.misses - m0 in
  {
    Metrics.sv_suite = suite.Workloads.Suite.suite_name;
    sv_requests = List.length requests;
    sv_warm_hit_rate =
      (if hits + misses = 0 then 0.0
       else float_of_int hits /. float_of_int (hits + misses));
    sv_identical = (not (List.mem None cold)) && cold = warm;
  }

(* ---- the frontdoor overload sweep ----------------------------------- *)

(* Distinct single-function requests (their own generator seeds, away
   from the sim harness's pool) so neither broker coalescing nor the
   artifact store can flatter the measured capacity — plus the offline
   oracle each served artifact must match byte-for-byte. *)
let sweep_config = { Dbds.Config.dbds with bundle_dir = None }

let sweep_pool =
  lazy
    (let progs =
       List.init 16 (fun p ->
           Workloads.Progen.generate ~n_helpers:3 ~seed:(3000 + p) ())
     in
     let reqs =
       List.concat_map
         (fun src ->
           List.map
             (fun (fn, ir, _) ->
               (* The oracle mirrors the broker byte-for-byte: parse
                  the wire text (print -> parse normalizes ids), then
                  the same lone-graph pipeline (the pool sends no
                  context). *)
               let parsed = Ir.Parse.parse_graph ir in
               ignore
                 (Dbds.Driver.optimize_program_report ~config:sweep_config
                    ~inline:false ~jobs:1 (Ir.Program.of_graph parsed));
               (fn, ir, Service.Digest.canonical_of_graph parsed))
             (requests_of [ Lang.Frontend.compile src ]))
         progs
     in
     Array.of_list reqs)

(* Exact client-observed percentile (the stats verb's histogram is the
   operational view; the bench reports the precise one). *)
let percentile q samples =
  match List.sort compare samples with
  | [] -> 0.0
  | l ->
      let arr = Array.of_list l in
      let n = Array.length arr in
      arr.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let load_point ~capacity_rps ~workers ~delay_s ~queue_limit ~requests ~seed
    ~idx mult =
  let offered = mult *. capacity_rps in
  let pool = Lazy.force sweep_pool in
  let npool = Array.length pool in
  let sched = Simtest.Sched.create ~seed:(seed + idx) () in
  let io = Simtest.Simio.create sched in
  let env = Simtest.Simio.env io in
  let latencies = ref [] in
  let n_done = ref 0 and n_shed = ref 0 and n_failed = ref 0 in
  let hints_ok = ref true and identical = ref true in
  let finish_t = ref 0.0 in
  let out =
    Simtest.Sched.run sched (fun () ->
        let broker =
          Service.Broker.create ~env ~workers ~delay_s ~store:None ()
        in
        let fd_config =
          {
            Service.Frontdoor.fd_dispatchers = workers;
            fd_queue_limit = queue_limit;
          }
        in
        let srv =
          env.Service.Env.spawn "frontdoor" (fun () ->
              Service.Frontdoor.serve ~env ~config:fd_config ~sock:"/fd"
                ~broker ())
        in
        (* Open-loop arrivals: request [j] fires at j/offered seconds
           regardless of how its predecessors fared — overload does not
           self-throttle. *)
        let fibers =
          List.init requests (fun j ->
              env.Service.Env.spawn (Printf.sprintf "load-%d" j) (fun () ->
                  let at = float_of_int j /. offered in
                  let now = env.Service.Env.mono () in
                  if at > now then env.Service.Env.sleep (at -. now);
                  let fn, ir, expected = pool.(j mod npool) in
                  match
                    Service.Client.connect ~env ~deadline_s:5.0
                      ~io_deadline_s:600. ~sock:"/fd" ()
                  with
                  | exception _ -> incr n_failed
                  | c ->
                      let t0 = env.Service.Env.mono () in
                      (match
                         Service.Client.compile_ex ~config:sweep_config ~fn
                           ~ir c
                       with
                      | Ok (Service.Broker.Done { ir = got; _ }, _) ->
                          incr n_done;
                          if got <> expected then identical := false;
                          let t1 = env.Service.Env.mono () in
                          if t1 > !finish_t then finish_t := t1;
                          latencies := ((t1 -. t0) *. 1000.) :: !latencies
                      | Ok (Service.Broker.Shed, hint) ->
                          incr n_shed;
                          if hint = None then hints_ok := false
                      | Ok _ -> incr n_failed
                      | Error _ -> incr n_failed);
                      Service.Client.close c))
        in
        List.iter
          (fun (t : Service.Env.thread) -> t.Service.Env.join ())
          fibers;
        (match
           Service.Client.connect ~env ~deadline_s:5.0 ~io_deadline_s:60.
             ~sock:"/fd" ()
         with
        | c ->
            ignore (Service.Client.shutdown_server c);
            Service.Client.close c
        | exception _ -> ());
        srv.Service.Env.join ())
  in
  let goodput =
    if !finish_t > 0.0 then float_of_int !n_done /. !finish_t else 0.0
  in
  ( {
      Metrics.fd_mult = mult;
      fd_sent = requests;
      fd_done = !n_done;
      fd_shed = !n_shed;
      fd_failed = !n_failed;
      fd_goodput_rps = goodput;
      fd_p99_ms = percentile 0.99 !latencies;
      fd_retry_after_ok = !hints_ok;
    },
    !identical,
    out.Simtest.Sched.ok )

let load_sweep ?(capacity_rps = 50.0) ?(workers = 2) ?(queue_limit = 2)
    ?(requests = 48) ?(mults = [ 0.5; 1.0; 2.0; 4.0 ]) ?(seed = 9000) () =
  let delay_s = float_of_int workers /. capacity_rps in
  let results =
    List.mapi
      (fun idx mult ->
        load_point ~capacity_rps ~workers ~delay_s ~queue_limit ~requests
          ~seed ~idx mult)
      mults
  in
  {
    Metrics.fd_points = List.map (fun (p, _, _) -> p) results;
    fd_identical = List.for_all (fun (_, i, _) -> i) results;
    fd_clean = List.for_all (fun (_, _, ok) -> ok) results;
  }
