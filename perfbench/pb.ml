(* The benchmark driver: one workload, one seed, one run.

   pb.exe --workload NAME --seed N --seconds S --trace 0|1 --dbdsc PATH --out DIR

   With --trace 0 it prints every end-to-end metric; with --trace 1 a
   traced run prints every per-layer metric.  The last line of standard
   output is the JSON result.  Any output mismatch makes the run fail. *)

let now = Unix.gettimeofday

(* ---- command line ----------------------------------------------------- *)

let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0
and dbdsc = ref "" and out = ref "perfbench/out" and selftest_only = ref false

let usage = "pb.exe --workload NAME --seed N --seconds S --trace 0|1 --dbdsc PATH [--out DIR]"

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
      ("--dbdsc", Arg.Set_string dbdsc, "PATH the dbdsc executable the service runs");
      ("--out", Arg.Set_string out, "DIR scratch directory (sockets, stores, traces)");
      ("--selftest", Arg.Set selftest_only, " run the self-tests only");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

(* ---- results ---------------------------------------------------------- *)

let metrics : (string * float * string) list ref = ref []
let metric name unit v = metrics := (name, v, unit) :: !metrics
let attempted = ref 0 and failed = ref 0 and errors = ref []

let fail msg =
  incr failed;
  if List.length !errors < 20 then errors := msg :: !errors

let add_phase (r : Aot.result) =
  attempted := !attempted + r.attempted;
  failed := !failed + r.failed;
  errors := List.rev_append r.errors !errors

let ms l = List.map (fun s -> s *. 1000.0) l
let us l = List.map (fun s -> s *. 1e6) l
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let print_result () =
  List.iter (fun e -> Printf.printf "FAILED: %s\n" e) (List.rev !errors);
  let ms = List.rev !metrics in
  List.iter (fun (n, v, u) -> Printf.printf "%-34s %16.6f %s\n" n v u) ms;
  let body =
    String.concat ", "
      (List.map
         (fun (n, v, u) ->
           let v = if Float.is_finite v then v else (fail (n ^ " is not finite"); 0.0) in
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" n v u)
         ms)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" (!failed = 0)
    (max 1 !attempted) !failed body

(* ---- set-up ----------------------------------------------------------- *)

type env = { server : Svc.server; warm : (string * string) array; prefill : (string * Service.Broker.outcome) list }

(* Program generation, server start, store pre-fill and a warm-up pass. *)
let setup (w : Gen.workload) k =
  let warm = if w.fresh_every = 1 then [||] else Gen.warm_pool () in
  let server = Svc.start ~dbdsc:!dbdsc ~out:!out k in
  let outcome ~fn ~ir c =
    match Service.Client.compile ~config:Gen.config ~fn ~ir c with Ok o -> o | Error e -> Service.Broker.Rejected e
  in
  (* Pre-fill the store with the warm set, then warm up with a few more
     requests (fresh ones for a cold-only stream); all are checked. *)
  let warmup =
    if Array.length warm > 0 then Array.sub warm 0 (min 16 (Array.length warm))
    else Array.of_list (List.concat_map (fun i -> Gen.functions_of (Gen.fresh (2_000_000 + i)).src) [ 0; 1 ])
  in
  let prefill =
    Svc.with_client server (fun c ->
        List.map (fun (fn, ir) -> (ir, outcome ~fn ~ir c)) (Array.to_list warm @ Array.to_list warmup))
  in
  Array.iter (fun p -> ignore (Aot.compile p)) (Lazy.force Gen.paper);
  { server; warm; prefill }

(* Set-up runs several times and the median is reported; every server
   but the last is stopped again. *)
let setup_repeats = 5

let timed_setups w =
  let rec go k acc =
    let t0 = now () in
    let e = setup w k in
    let dt = now () -. t0 in
    if k + 1 < setup_repeats then begin
      Svc.stop e.server;
      go (k + 1) (dt :: acc)
    end
    else (e, dt :: acc)
  in
  go 0 []

(* ---- checks ----------------------------------------------------------- *)

let expected : (string, string option) Hashtbl.t = Hashtbl.create 1024

let check_reply ~what ir outcome =
  incr attempted;
  let want =
    match Hashtbl.find_opt expected ir with
    | Some e -> e
    | None ->
        let e = try Gen.expected_reply ir with _ -> None in
        Hashtbl.replace expected ir e;
        e
  in
  match (outcome, want) with
  | Svc.Got got, Some want when got = want -> ()
  | Svc.Got _, _ -> fail (what ^ ": reply differs from the in-process compile")
  | Svc.Bad label, _ -> fail (what ^ ": " ^ label)

let check_steps steps =
  List.iter
    (fun (st : Svc.step) ->
      if st.server_cpu_s <= 0.0 then fail "service: no processor time read for the server";
      List.iter (fun ((r : Gen.request), rep) -> check_reply ~what:(Printf.sprintf "request %d" r.rid) r.ir rep) st.replies)
    steps

let check_prefill e =
  List.iter
    (fun (ir, o) ->
      check_reply ~what:"set-up request"
        ir (match o with Service.Broker.Done { ir; _ } -> Svc.Got ir | o -> Svc.Bad (Service.Broker.outcome_label o)))
    e.prefill

(* The layers the benchmark exercises but does not measure: the tiered
   VM must agree with the interpreter, and a small simulated fleet run
   must end without an invariant violation. *)
let exercise_unmeasured (r : Aot.result) =
  List.iteri
    (fun i ((p : Gen.program), _) ->
      if i < 2 then begin
        let reference = Aot.run (Lang.Frontend.compile p.src) p.args in
        let eng = Vm.Engine.create (Lang.Frontend.compile p.src) in
        let v, _, globals = Vm.Engine.run_full eng ~args:p.args in
        ignore (Vm.Engine.finish eng);
        match reference with
        | Aot.Ok_run (v', g', _) when v = v' && globals = g' -> ()
        | _ -> fail (p.uid ^ ": tiered VM disagrees with the interpreter")
      end)
    r.quality;
  let open Simtest.Harness in
  let spec = builder ~seed:!seed () |> with_nodes 2 |> with_clients 2 |> with_requests 2 |> with_chaos 0 in
  let res = run spec in
  if res.r_violations <> [] then fail "simulated fleet run reported invariant violations"

(* The determinism guard and the unmeasured layers, after the timing. *)
let final_checks (r : Aot.result) =
  List.iter fail (Aot.recheck r);
  exercise_unmeasured r

(* ---- the service windows ---------------------------------------------- *)

let cpu_ms_per_request steps =
  let cpu = Stats.sum (List.map (fun (st : Svc.step) -> st.server_cpu_s) steps)
  and n = List.fold_left (fun n (st : Svc.step) -> n + st.sent) 0 steps in
  cpu *. 1000.0 /. float_of_int (max 1 n)

let step_line (st : Svc.step) =
  let t = Stats.tail st.lat_ms in
  Printf.printf
    "service window: rate=%.1f/s sent=%d p50=%.3fms tail(p%g, %d beyond of %d)=%.3fms server_cpu=%.4fms/req backlog_end=%d lag_p99=%.3fms\n%!"
    st.rate st.sent (Stats.median st.lat_ms) (t.level *. 100.0) t.beyond t.n t.value (cpu_ms_per_request [ st ])
    st.backlog_end
    (Stats.quantile_sorted (Stats.sorted st.lag_ms) 0.99)

(* [windows] open-loop steps of [n] requests at the workload's fixed
   rate, over two connections kept open across them; [before i] runs
   ahead of window [i]. *)
let service_windows (w : Gen.workload) e ~n ~windows ~before =
  let next = Gen.request_stream w ~seed:!seed ~warm:e.warm in
  let conns = [| Svc.connect e.server; Svc.connect e.server |] in
  Fun.protect ~finally:(fun () -> Array.iter Svc.close conns) @@ fun () ->
  let rng = Random.State.make [| !seed; 7 |] in
  let on_reply (r : Gen.request) due t = Trace.record ~id:(string_of_int r.rid) "service.request" due t in
  List.init windows (fun i ->
      before i;
      let st = Svc.run_step ~on_reply ~server:e.server ~conns ~rng ~rate:w.fixed_rps ~count:n next in
      step_line st;
      st)

(* ---- runs ------------------------------------------------------------- *)

(* The host is shared, and even processor time drifts by up to half
   between spells of a few seconds (caches and cores shared with other
   tenants).  So the run is cut into windows, compile and service windows
   alternate over the whole run, and each timing is read from its
   quietest window: contention only ever slows a window down, so the
   quietest one tracks the code rather than the neighbours.  The first
   compile windows run before any service traffic, so the heap figure is
   the compiler's alone. *)
let service_windows_n = 6

let quietest_by f l = List.fold_left (fun a b -> if f b < f a then b else a) (List.hd l) l

(* Counts of work scale with --seconds from the reference run. *)
let scaled n = max 1 (int_of_float (Float.round (float_of_int n *. !seconds /. Gen.reference_seconds)))

let e2e (w : Gen.workload) =
  let e, setups = timed_setups w in
  metric "setup_s" "s" (Stats.median setups);
  Printf.printf "setup runs: %s s\n" (String.concat " " (List.map (Printf.sprintf "%.3f") (List.rev setups)));
  check_prefill e;
  (* --seconds scales the number of windows, never their size, so the
     tail level stays put. *)
  let run, finish = Aot.phase w ~seed:!seed in
  let left = ref (scaled w.compile_windows) in
  let window () =
    if !left > 0 then begin
      decr left;
      run (w.compile_jobs / w.compile_windows)
    end
  in
  for _ = 1 to max 1 (!left - scaled service_windows_n) do
    window ()
  done;
  let heap_mb = float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1048576.0 in
  let steps =
    service_windows w e ~n:w.fixed_requests ~windows:(scaled service_windows_n) ~before:(fun _ -> window ())
  in
  let r = finish () in
  add_phase r;
  let p50 win = Stats.median (ms (List.map fst win)) in
  Printf.printf "compile windows p50 (ms): %s\n"
    (String.concat " " (List.map (fun win -> Printf.sprintf "%.4f" (p50 win)) r.windows));
  let win = quietest_by p50 r.windows in
  let t = Stats.tail (ms (List.map fst win)) in
  Printf.printf "compile: %d jobs in %d windows; quietest window's tail is p%g with %d of %d samples beyond\n"
    r.attempted (List.length r.windows) (t.level *. 100.0) t.beyond t.n;
  metric "compile_p50_ms" "ms" (p50 win);
  metric "compile_tail_ms" "ms" t.value;
  metric "compile_fns_per_s" "fn/s"
    (float_of_int (List.fold_left (fun n (_, f) -> n + f) 0 win) /. Stats.sum (List.map fst win));
  let fs = Aot.firsts r in
  metric "compile_work_per_fn" "work" (Aot.work_per_fn fs);
  metric "peak_cycles_geomean" "cycles" (Aot.peak_cycles fs);
  metric "code_size_geomean" "size" (Aot.size_geomean fs);
  metric "compiler_peak_heap_mb" "MiB" heap_mb;
  metric "service_cpu_ms_per_req" "ms" (cpu_ms_per_request [ quietest_by (fun st -> cpu_ms_per_request [ st ]) steps ]);
  Svc.stop e.server;
  check_steps steps;
  final_checks r

let per_layer (w : Gen.workload) =
  let e, _ = timed_setups w in
  check_prefill e;
  (* Half the compile jobs untraced, then half traced: the traced run's
     own overhead is the difference. *)
  let run, finish = Aot.phase w ~seed:!seed in
  let half = max 1 (scaled w.compile_jobs / 2) in
  run half;
  Trace.enabled := true;
  let t0 = now () in
  run half;
  let t1 = now () in
  Trace.enabled := false;
  let r = finish () in
  add_phase r;
  let steps =
    service_windows w e ~n:(scaled (w.fixed_requests * service_windows_n / 2)) ~windows:2 ~before:(fun i ->
        Trace.enabled := i = 1)
  in
  Trace.enabled := false;
  let plain_step = List.hd steps and traced_step = List.nth steps 1 in
  let cs = Svc.counters e.server in
  Svc.stop e.server;
  check_steps steps;
  let programs = List.map fst r.quality and fs = Aot.firsts r in
  let nq = float_of_int (List.length programs) in
  let mean_ms total = total *. 1000.0 /. nq in
  (* lang *)
  metric "lang.frontend_ms" "ms" (Stats.median (ms r.frontend));
  metric "lang.src_bytes_per_s" "B/s" (float_of_int r.src_bytes /. Stats.sum r.frontend);
  let sizes = List.map Aot.inline_sizes programs in
  metric "lang.ir_instrs" "instrs" (Stats.mean (List.map (fun (i, _, _) -> float_of_int i) sizes));
  (* opt *)
  metric "opt.inline_ms" "ms" (Stats.median (ms (List.map (fun (_, _, t) -> t) sizes)));
  metric "opt.inline_size_delta" "size" (Stats.mean (List.map (fun (_, d, _) -> float_of_int d) sizes));
  let qp = Aot.quality_passes fs and jobs = float_of_int r.attempted in
  List.iter
    (fun name ->
      let all = List.assoc name r.passes_all and q = List.assoc name qp in
      metric (Printf.sprintf "opt.%s.time_ms" name) "ms" (all.time_s *. 1000.0 /. jobs);
      metric (Printf.sprintf "opt.%s.runs" name) "count" (float_of_int q.runs);
      metric (Printf.sprintf "opt.%s.fired_ratio" name) "ratio" (ratio q.fired q.runs);
      metric (Printf.sprintf "opt.%s.work" name) "work" (float_of_int q.pwork))
    Aot.classic;
  (* core *)
  let classic_off = Layers.baseline_classic_s programs in
  metric "core.dbds_self_ms" "ms"
    (mean_ms ((List.assoc "dbds" qp).time_s -. (Aot.classic_time qp -. classic_off)));
  Trace.enabled := true;
  let core = Layers.core_replay programs in
  Trace.enabled := false;
  metric "core.simulate_ms" "ms" (mean_ms core.simulate_s);
  metric "core.tradeoff_ms" "ms" (mean_ms core.tradeoff_s);
  metric "core.duplicate_ms" "ms" (mean_ms core.duplicate_s);
  let st = Aot.quality_stats fs in
  metric "core.candidates" "count" (float_of_int st.candidates_found);
  metric "core.duplications" "count" (float_of_int st.duplications_performed);
  metric "core.accept_ratio" "ratio" (ratio st.duplications_performed st.candidates_found);
  metric "core.iterations" "count" (float_of_int st.iterations_run);
  (* ir *)
  let hits = List.fold_left (fun n (f : Aot.first) -> n + f.f_ahits) 0 fs
  and misses = List.fold_left (fun n (f : Aot.first) -> n + f.f_amisses) 0 fs in
  metric "ir.analysis_hit_ratio" "ratio" (ratio hits (hits + misses));
  metric "ir.print_ms" "ms" (Stats.median (ms r.prints));
  (* gc *)
  let fns = float_of_int (List.fold_left (fun n (_, f) -> n + f) 0 (Aot.samples r)) in
  metric "gc.minor_words_per_fn" "words" (r.minor_words /. fns);
  metric "gc.major_words_per_fn" "words" (r.major_words /. fns);
  (* interp *)
  metric "interp.check_ms" "ms" (Stats.median (ms r.checks));
  (* service, replayed in process *)
  Trace.enabled := true;
  let s0 = now () in
  let sv = Layers.service_replay ~out:!out ~warm:e.warm ~n:300 (Gen.request_stream w ~seed:!seed ~warm:e.warm) in
  let s1 = now () in
  Trace.enabled := false;
  metric "ir.parse_ms" "ms" (Stats.median (ms sv.parse));
  metric "service.protocol_decode_us" "us" (Stats.median (us sv.decode));
  metric "service.protocol_render_us" "us" (Stats.median (us sv.render));
  metric "service.digest_us" "us" (Stats.median (us sv.digest));
  metric "service.store_get_us" "us" (Stats.median (us sv.store_get));
  metric "service.store_put_us" "us" (Stats.median (us sv.store_put));
  metric "service.broker_submit_hit_us" "us" (Stats.median (us sv.submit_hit));
  metric "service.broker_submit_miss_us" "us" (Stats.median (us sv.submit_miss));
  let c = Svc.counter cs in
  metric "service.store_hit_ratio" "ratio" (ratio (c "store_hits") (c "store_hits" + c "store_misses"));
  metric "service.compiles" "count" (float_of_int (c "compiles"));
  metric "service.coalesced" "count" (float_of_int (c "coalesced"));
  metric "service.shed" "count" (float_of_int (c "shed"));
  metric "service.timeouts" "count" (float_of_int (c "timeouts"));
  metric "service.queue_depth_max" "count" (float_of_int (max plain_step.inflight_max traced_step.inflight_max));
  (* client-observed latency at the fixed rate, untraced window *)
  metric "service.client_p50_ms" "ms" (Stats.median plain_step.lat_ms);
  metric "service.client_tail_ms" "ms" (Stats.tail plain_step.lat_ms).value;
  (* the generator itself *)
  metric "bench.generator_lag_p99_ms" "ms"
    (Stats.quantile_sorted (Stats.sorted (plain_step.lag_ms @ traced_step.lag_ms)) 0.99);
  metric "bench.backlog_end" "count" (float_of_int (max plain_step.backlog_end traced_step.backlog_end));
  (* tracing *)
  let overhead a b = (b /. a -. 1.0) *. 100.0 in
  let p50 win = Stats.median (List.map fst win) in
  (match r.windows with
  | plain :: traced :: _ -> metric "trace.overhead_pct" "%" (overhead (p50 plain) (p50 traced))
  | _ -> fail "traced run: fewer than two compile windows");
  metric "trace.service_overhead_pct" "%"
    (overhead (Stats.median plain_step.lat_ms) (Stats.median traced_step.lat_ms));
  metric "trace.coverage" "ratio" (Trace.coverage ~since:t0 ~until:t1);
  metric "trace.service_coverage" "ratio" (Trace.coverage ~since:s0 ~until:s1);
  final_checks r;
  metric "bench.failed_frac" "ratio" (ratio !failed (max 1 !attempted));
  Trace.write (Filename.concat !out (Printf.sprintf "trace-%s-%d.json" w.name !seed))

let () =
  if not (Selftest.run ()) then die "self-tests failed";
  if !selftest_only then (print_endline "selftest: ok"; exit 0);
  let w = match Gen.find !workload with Some w -> w | None -> die "unknown workload %S (%s)" !workload usage in
  if !dbdsc = "" || not (Sys.file_exists !dbdsc) then die "no dbdsc executable at %S" !dbdsc;
  if !trace <> 0 && !trace <> 1 then die "--trace takes 0 or 1";
  (try Unix.mkdir !out 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Printf.printf "workload %s, seed %d, %.0f s, trace %d\n%!" w.name !seed !seconds !trace;
  (try if !trace = 0 then e2e w else per_layer w
   with e -> fail ("run aborted: " ^ Printexc.to_string e));
  print_result ();
  exit (if !failed = 0 then 0 else 1)
