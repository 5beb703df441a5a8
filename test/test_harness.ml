(** Harness tests: metric arithmetic, geomeans, report structure, and the
    evaluation's headline invariants on a small sample. *)

open Helpers
module M = Harness.Metrics
module F = Harness.Fuzz

let mk ~cycles ~size ~work =
  {
    M.peak_cycles = cycles;
    code_size = size;
    optimizer_work = work;
    ir_digest = "";
    duplications = 0;
    contained = [];
    passes = [];
    analysis_hits = 0;
    analysis_misses = 0;
    run_icache_hits = 0;
    run_icache_misses = 0;
    result_value = "0";
  }

let test_peak_delta () =
  let baseline = mk ~cycles:110.0 ~size:100 ~work:100 in
  let faster = mk ~cycles:100.0 ~size:100 ~work:100 in
  Alcotest.(check (float 1e-9)) "10% faster" 10.0 (M.peak_delta ~baseline faster);
  let slower = mk ~cycles:121.0 ~size:100 ~work:100 in
  Alcotest.(check bool) "slower is negative" true
    (M.peak_delta ~baseline slower < 0.0)

let test_size_and_compile_deltas () =
  let baseline = mk ~cycles:1.0 ~size:100 ~work:200 in
  let m = mk ~cycles:1.0 ~size:150 ~work:250 in
  Alcotest.(check (float 1e-9)) "size +50%" 50.0 (M.size_delta ~baseline m);
  Alcotest.(check (float 1e-9)) "compile +25%" 25.0 (M.compile_delta ~baseline m)

let test_geomean () =
  Alcotest.(check (float 1e-9)) "empty" 0.0 (M.geomean_pct []);
  Alcotest.(check (float 1e-9)) "singleton" 10.0 (M.geomean_pct [ 10.0 ]);
  (* geomean of +100% and -50%: ratios 2.0 and 0.5 -> 1.0 -> 0%. *)
  Alcotest.(check (float 1e-6)) "cancels" 0.0 (M.geomean_pct [ 100.0; -50.0 ])

let test_runner_measures_benchmark () =
  let b = List.hd Workloads.Micro.suite.Workloads.Suite.benchmarks in
  let m = Harness.Runner.measure ~config:Dbds.Config.off b in
  Alcotest.(check bool) "cycles positive" true (m.M.peak_cycles > 0.0);
  Alcotest.(check bool) "size positive" true (m.M.code_size > 0);
  Alcotest.(check bool) "work positive" true (m.M.optimizer_work > 0);
  Alcotest.(check int) "baseline performs no duplication" 0 m.M.duplications

let test_runner_row_invariants () =
  (* One full row: results agree, dupalot duplicates at least as much
     as DBDS, and the compile delta reads the optimizer's work. *)
  let b = List.hd Workloads.Dacapo.suite.Workloads.Suite.benchmarks in
  let row = Harness.Runner.run_benchmark b in
  Alcotest.(check string) "results agree" row.M.baseline.M.result_value
    row.M.dbds.M.result_value;
  Alcotest.(check bool) "dupalot >= dbds duplications" true
    (row.M.dupalot.M.duplications >= row.M.dbds.M.duplications);
  Alcotest.(check bool) "dupalot compile work >= dbds" true
    (row.M.dupalot.M.optimizer_work >= row.M.dbds.M.optimizer_work);
  let direct config =
    let prog = Workloads.Suite.compile b in
    let r = Dbds.Driver.optimize_program_report ~config prog in
    float_of_int r.Dbds.Driver.rep_ctx.Opt.Phase.work
  in
  Alcotest.(check (float 1e-9)) "compile delta is optimizer work"
    (M.pct_change ~base:(direct Dbds.Config.off) (direct Dbds.Config.dbds))
    (M.compile_delta ~baseline:row.M.baseline row.M.dbds)

let test_report_summarize () =
  let suite =
    {
      Workloads.Suite.suite_name = "mini";
      figure = "Figure X";
      benchmarks = [ List.hd Workloads.Micro.suite.Workloads.Suite.benchmarks ];
    }
  in
  let rows = List.map Harness.Runner.run_benchmark suite.Workloads.Suite.benchmarks in
  let summary = Harness.Report.summarize suite rows in
  Alcotest.(check int) "one row" 1 (List.length summary.Harness.Report.rows);
  (* Rendering must not raise. *)
  let text = Fmt.str "%a" Harness.Report.pp_suite summary in
  Alcotest.(check bool) "renders" true (String.length text > 100)

let test_raytrace_shape () =
  (* The evaluation's headline cautionary tale (Figure 8 / EXPERIMENTS.md):
     on raytrace, DBDS declines every candidate while dupalot regresses
     peak performance by blowing the i-cache. *)
  let b =
    Option.get (Workloads.Suite.find_benchmark Workloads.Octane.suite "raytrace")
  in
  let row = Harness.Runner.run_benchmark b in
  let dbds_peak = M.peak_delta ~baseline:row.M.baseline row.M.dbds in
  let dupalot_peak = M.peak_delta ~baseline:row.M.baseline row.M.dupalot in
  Alcotest.(check (float 0.5)) "DBDS leaves raytrace alone" 0.0 dbds_peak;
  Alcotest.(check bool) "dupalot regresses >5%" true (dupalot_peak < -5.0);
  Alcotest.(check bool) "dupalot bloats code >30%" true
    (M.size_delta ~baseline:row.M.baseline row.M.dupalot > 30.0)

let test_akkapp_shape () =
  (* Figure 7's nuance: dupalot is slightly *ahead* of DBDS on akkaPP
     because the trade-off declines a marginal merge that still pays. *)
  let b =
    Option.get
      (Workloads.Suite.find_benchmark Workloads.Micro.suite "akkaPP")
  in
  let row = Harness.Runner.run_benchmark b in
  let dbds_peak = M.peak_delta ~baseline:row.M.baseline row.M.dbds in
  let dupalot_peak = M.peak_delta ~baseline:row.M.baseline row.M.dupalot in
  Alcotest.(check bool) "both improve" true (dbds_peak > 2.0 && dupalot_peak > 2.0);
  Alcotest.(check bool) "dupalot slightly ahead" true (dupalot_peak >= dbds_peak)

let test_figure4_experiment () =
  let before, after = Harness.Experiments.figure4 () in
  Alcotest.(check bool) "estimate improves" true (after < before);
  Alcotest.(check bool) "saves at least the multiply" true
    (before -. after >= 1.8 -. 1e-6)

(* The quiescence oracle must bite: a pipeline whose classic group
   drops SCCP leaves SCCP work on these progen programs (all three fire
   in [main] or a helper), while the real off pipeline leaves none. *)
let test_quiescence_mutant () =
  let spec =
    Result.get_ok
      (Opt.Spec.of_string
         "inline,fix(fix(canon,simplify,gvn,condelim,readelim,pea,dce))")
  in
  let row config =
    {
      F.config_name = "off";
      config;
      paranoid = false;
      covers = (fun _ -> true);
    }
  in
  let violations config =
    List.concat_map
      (fun seed ->
        let name = Printf.sprintf "progen/%d" seed in
        let p = List.find (fun (p : F.program) -> p.F.name = name) F.corpus in
        snd (F.quiescence.F.check [ F.compile_row (row config) p ]))
      [ 29; 49; 55 ]
  in
  Alcotest.(check int) "the off pipeline ends quiescent" 0
    (List.length (violations Dbds.Config.off));
  Alcotest.(check bool) "dropping sccp is caught" true
    (violations { Dbds.Config.off with Dbds.Config.passes = spec } <> [])

(* Every function of a suite as one compile request, inlined and with
   its program's context.  Through [Suite.compile]: a suite authored as
   IR has no source text, so its requests check its functions instead
   of nothing. *)
let requests_of (suite : Workloads.Suite.t) =
  List.concat_map
    (fun b ->
      let context, units = Service.Client.units (Workloads.Suite.compile b) in
      List.map (fun (fn, ir) -> (fn, ir, context)) units)
    suite.Workloads.Suite.benchmarks

let test_service_direct_ir_suite () =
  let suite =
    List.find
      (fun s -> s.Workloads.Suite.suite_name = "adv-irreducible")
      Workloads.Registry.adversarial
  in
  let requests = requests_of suite in
  Alcotest.(check bool) "requests sent" true (requests <> []);
  let leg = F.cold_warm ~config:Dbds.Config.dbds ~workers:1 requests in
  let ir_of = function Service.Broker.Done { ir; _ } -> Some ir | _ -> None in
  Alcotest.(check bool) "every warm request hits" true
    (List.for_all
       (function Service.Broker.Done { from_cache; _ } -> from_cache | _ -> false)
       leg.F.warm);
  Alcotest.(check bool) "warm replies identical" true
    ((not (List.mem None (List.map ir_of leg.F.cold)))
    && List.map ir_of leg.F.warm = List.map ir_of leg.F.cold)

let test_service_empty_suite () =
  let empty = { Workloads.Suite.suite_name = "empty"; figure = ""; benchmarks = [] } in
  match F.cold_warm ~config:Dbds.Config.dbds ~workers:1 (requests_of empty) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a suite with no request passed"

let suite =
  [
    test "peak delta" test_peak_delta;
    test "size and compile deltas" test_size_and_compile_deltas;
    test "geomean" test_geomean;
    test "runner measures" test_runner_measures_benchmark;
    test "runner row invariants" test_runner_row_invariants;
    test "report summarize" test_report_summarize;
    test "figure 4 experiment" test_figure4_experiment;
    test "raytrace shape (dupalot regression)" test_raytrace_shape;
    test "akkaPP shape (dupalot slightly ahead)" test_akkapp_shape;
    test "fuzz: quiescence catches a group without sccp" test_quiescence_mutant;
    test "service: a direct-IR suite sends its functions" test_service_direct_ir_suite;
    test "service: a suite with no request is an error" test_service_empty_suite;
  ]
