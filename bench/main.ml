(** The benchmark harness: regenerates every table and figure of the
    paper's evaluation (one group per artifact — see the experiment index
    in DESIGN.md §4) and wraps the compile-time measurements in Bechamel
    so the wall-clock ratios are measured properly (OLS over repeated
    runs), not single-shot.

    Groups:
    - [fig4]     — the node cost model example (§5.3)
    - [fig5..8]  — the four suite tables (peak / compile time / code size
                   for DBDS and dupalot vs baseline)
    - [headline] — the abstract's aggregate numbers
    - [ablation-backtracking] — Algorithm 1 vs DBDS compile effort (§3.1)
    - [ablation-iterations]   — DBDS iteration count sweep (§5.2)
    - [ablation-budget]       — benefit-scale / size-budget sweep (§5.4)
    - [bechamel] — wall-clock compile-time of one representative benchmark
                   per suite under each configuration, sequential
                   ([jobs:1]) and fanned out over all cores ([jobs:N])

    Besides the printed report, the bechamel group is exported to
    [BENCH_results.json]: wall-clock per configuration per suite plus
    the parallel speedup (dbds jobs:1 / dbds jobs:N). *)

open Bechamel

let section title = Format.printf "@.=== %s ===@.@." title

(* ------------------------------------------------------------------ *)
(* Bechamel wall-clock compile-time measurements                       *)
(* ------------------------------------------------------------------ *)

let fig_tags = [ "fig5"; "fig6"; "fig7"; "fig8" ]
let jobs_wide = max 2 (Ir.Parallel.default_jobs ())
let jobs_wide_label = Printf.sprintf "dbds-j%d" jobs_wide

let compile_test ~suite_tag ~jobs (b : Workloads.Suite.benchmark) config label
    =
  Test.make
    ~name:(Printf.sprintf "%s/%s/%s" suite_tag b.Workloads.Suite.name label)
    (Staged.stage (fun () ->
         let prog = Workloads.Suite.compile b in
         ignore (Dbds.Driver.optimize_program_report ~config ~jobs prog)))

let representative (s : Workloads.Suite.t) =
  List.nth s.Workloads.Suite.benchmarks 0

(* Per-suite configurations: paper configs run sequentially (the
   compile-time ratios of fig5–8 are per-compilation-unit numbers), plus
   the multicore fan-out of the dbds config against its jobs:1 twin. *)
let fig_configs =
  [
    ("baseline", Dbds.Config.off, 1);
    ("dbds-j1", Dbds.Config.dbds, 1);
    (jobs_wide_label, Dbds.Config.dbds, jobs_wide);
    ("dupalot", Dbds.Config.dupalot, 1);
  ]

let bechamel_tests () =
  let groups =
    List.map2
      (fun tag suite ->
        let b = representative suite in
        Test.make_grouped ~name:tag
          (List.map
             (fun (label, config, jobs) ->
               compile_test ~suite_tag:tag ~jobs b config label)
             fig_configs))
      fig_tags Workloads.Registry.all
  in
  let backtracking_group =
    let b = representative Workloads.Micro.suite in
    Test.make_grouped ~name:"ablation-backtracking"
      [
        compile_test ~suite_tag:"abl" ~jobs:1 b Dbds.Config.dbds "dbds";
        compile_test ~suite_tag:"abl" ~jobs:1 b Dbds.Config.backtracking
          "backtracking";
      ]
  in
  Test.make_grouped ~name:"compile-time" (groups @ [ backtracking_group ])

let run_bechamel () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let raw = Benchmark.all cfg instances (bechamel_tests ()) in
  let results = Analyze.all ols (List.hd instances) raw in
  section "Bechamel: wall-clock compilation time (ns per compile, OLS)";
  Format.printf "%-36s %16s@." "test" "ns/compile";
  (* Collect and sort by name for stable output. *)
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let rows =
    List.filter_map
      (fun (name, ols) ->
        match Analyze.OLS.estimates ols with
        | Some [ est ] ->
            Format.printf "%-36s %16.0f@." name est;
            Some (name, est)
        | _ ->
            Format.printf "%-36s %16s@." name "-";
            None)
      (List.sort compare rows)
  in
  rows

(* ------------------------------------------------------------------ *)
(* Compile hot-path perf: batch scaling, scheduler utilization, GC     *)
(* ------------------------------------------------------------------ *)

(* The per-suite batch view of the compile hot path: every benchmark of
   the suite compiled as one work queue.

   - per-benchmark costs are measured sequentially (min over a few runs,
     the only robust estimator on a noisy host);
   - worker utilization is measured, from the pool's own per-worker
     busy counters during an actual [map_weighted] batch run;
   - GC pressure is the minor/major words delta per compile around the
     sequential batch;
   - byte-identity across jobs is checked on the printed IR of every
     benchmark at jobs 1, 2 and 4. *)
type perf_row = {
  p_tag : string;
  p_benchmarks : int;
  p_total_ns : float;  (** sequential batch total *)
  p_costs : (string * float) list;  (** measured ns per benchmark *)
  p_util_wide : float;  (** measured mean worker busy fraction *)
  p_util_workers : int;
  p_minor_words : float;  (** GC minor words per compile *)
  p_major_words : float;  (** GC major words per compile *)
  p_identical : bool;  (** printed IR identical at jobs 1/2/4 *)
}

let perf_rows () =
  let config = Dbds.Config.dbds in
  let compile_one (b : Workloads.Suite.benchmark) =
    let prog = Workloads.Suite.compile b in
    ignore (Dbds.Driver.optimize_program_report ~config ~jobs:1 prog);
    prog
  in
  List.map2
    (fun tag (suite : Workloads.Suite.t) ->
      let benches = suite.Workloads.Suite.benchmarks in
      (* Warm up allocators and caches. *)
      List.iter (fun b -> ignore (compile_one b)) benches;
      let cost b =
        let best = ref infinity in
        for _ = 1 to 5 do
          let t0 = Unix.gettimeofday () in
          ignore (compile_one b);
          let dt = (Unix.gettimeofday () -. t0) *. 1e9 in
          if dt < !best then best := dt
        done;
        !best
      in
      let costs =
        List.map (fun b -> (b.Workloads.Suite.name, cost b)) benches
      in
      (* GC pressure around a sequential batch. *)
      let gc_rounds = 10 in
      let s0 = Gc.quick_stat () in
      for _ = 1 to gc_rounds do
        List.iter (fun b -> ignore (compile_one b)) benches
      done;
      let s1 = Gc.quick_stat () in
      let per_compile = float_of_int (gc_rounds * List.length benches) in
      let minor = (s1.Gc.minor_words -. s0.Gc.minor_words) /. per_compile in
      let major = (s1.Gc.major_words -. s0.Gc.major_words) /. per_compile in
      (* Measured utilization of the size-aware pool over the batch. *)
      let stats = ref None in
      let weight (b : Workloads.Suite.benchmark) =
        int_of_float (List.assoc b.Workloads.Suite.name costs)
      in
      ignore
        (Ir.Parallel.map_weighted ~stats ~jobs:jobs_wide ~weight compile_one
           benches);
      let util_frac, util_workers =
        match !stats with
        | Some u -> (Ir.Parallel.utilization u, u.Ir.Parallel.workers)
        | None -> (0.0, 0)
      in
      (* Byte-identity of the compiled IR across jobs values. *)
      let print_at jobs =
        let buf = Buffer.create 4096 in
        List.iter
          (fun (b : Workloads.Suite.benchmark) ->
            let prog = Workloads.Suite.compile b in
            ignore (Dbds.Driver.optimize_program_report ~config ~jobs prog);
            Ir.Program.iter_functions prog (fun g ->
                Buffer.add_string buf (Ir.Printer.graph_to_string g)))
          benches;
        Buffer.contents buf
      in
      let p1 = print_at 1 in
      let identical = String.equal p1 (print_at 2) && String.equal p1 (print_at 4) in
      {
        p_tag = tag;
        p_benchmarks = List.length benches;
        p_total_ns = List.fold_left (fun acc (_, ns) -> acc +. ns) 0.0 costs;
        p_costs = costs;
        p_util_wide = util_frac;
        p_util_workers = util_workers;
        p_minor_words = minor;
        p_major_words = major;
        p_identical = identical;
      })
    fig_tags Workloads.Registry.all

let print_perf rows =
  section "Compile hot path: batch cost, utilization, GC";
  Format.printf "%-6s %6s %12s %7s %12s %12s %6s@." "figure" "bench"
    "batch ms" "util" "minor w/c" "major w/c" "ident";
  List.iter
    (fun r ->
      Format.printf "%-6s %6d %12.2f %6.0f%% %12.0f %12.0f %6b@." r.p_tag
        r.p_benchmarks (r.p_total_ns /. 1e6) (100.0 *. r.p_util_wide)
        r.p_minor_words r.p_major_words r.p_identical)
    rows

(* ------------------------------------------------------------------ *)
(* Analysis-cache ablation: preservation contracts vs generation bump  *)
(* ------------------------------------------------------------------ *)

(* Hit rates of the analysis cache under pass preservation contracts
   (a pass that declares an analysis preserved keeps its cached value
   valid across the pass's own mutations) against the historical
   generation-bump mode (any mutation invalidates everything).  The
   work-unit world is deterministic, so one sequential run per suite
   suffices. *)
let analysis_cache_rows () =
  List.map2
    (fun tag (suite : Workloads.Suite.t) ->
      let b = representative suite in
      let measure_with preserve =
        let config =
          { Dbds.Config.dbds with Dbds.Config.preserve_analyses = preserve }
        in
        Harness.Runner.measure ~jobs:1 ~config b
      in
      (tag, suite.Workloads.Suite.suite_name, b.Workloads.Suite.name,
       measure_with true, measure_with false))
    fig_tags Workloads.Registry.all

let print_analysis_cache rows =
  section "Analysis cache: preservation contracts vs generation bump";
  Format.printf "%-6s %-14s | %22s | %22s@." "figure" "benchmark"
    "preserving (hit rate)" "gen-bump (hit rate)";
  List.iter
    (fun (tag, _, bench, pres, bump) ->
      let pp m =
        Printf.sprintf "%4d/%-4d (%5.1f%%)" m.Harness.Metrics.analysis_hits
          (m.Harness.Metrics.analysis_hits + m.Harness.Metrics.analysis_misses)
          (100.0 *. Harness.Metrics.analysis_hit_rate m)
      in
      Format.printf "%-6s %-14s | %22s | %22s@." tag bench (pp pres) (pp bump))
    rows

(* ------------------------------------------------------------------ *)
(* Tiered execution: engine steady state vs interpretation             *)
(* ------------------------------------------------------------------ *)

(* One tiered measurement per suite (its representative benchmark):
   steady-state engine cycles against the tier-0-only control, with the
   AOT configurations for context. *)
let tiered_rows () =
  List.map2
    (fun tag (suite : Workloads.Suite.t) ->
      (tag, suite.Workloads.Suite.suite_name, Harness.Tiered.measure_suite suite))
    fig_tags Workloads.Registry.all

let print_tiered rows =
  section "Tiered execution: steady state vs tier-0 interpretation";
  Format.printf "%a@." Harness.Report.pp_tiered
    (List.map (fun (_, _, r) -> r) rows)

(* ------------------------------------------------------------------ *)
(* Adversarial workload lab: tier comparison                           *)
(* ------------------------------------------------------------------ *)

let tier_rows () = Harness.Tiercompare.run ~jobs:1 ()

let print_tier_compare rows =
  section "Workload lab: adversarial suites under every tier";
  Format.printf "%a@." Harness.Tiercompare.pp rows

(* The lab's determinism probe: the optimized IR of every benchmark
   under every tier, digested, at three jobs values. *)
let tier_fingerprints () =
  ( Harness.Tiercompare.fingerprint ~jobs:1 (),
    Harness.Tiercompare.fingerprint ~jobs:2 (),
    Harness.Tiercompare.fingerprint ~jobs:4 () )

(* ------------------------------------------------------------------ *)
(* Compilation service: cold vs warm artifact store                    *)
(* ------------------------------------------------------------------ *)

(* One row per suite: every benchmark compiled against an empty store,
   then recompiled against the populated one, with the identity check
   on the canonical IR (see Harness.Servicebench). *)
let service_rows () =
  List.map2
    (fun tag (suite : Workloads.Suite.t) ->
      (tag, Harness.Servicebench.measure_suite suite))
    fig_tags Workloads.Registry.all

let print_service rows =
  section "Compilation service: cold vs warm artifact store";
  Format.printf "%a@." Harness.Report.pp_service (List.map snd rows)

(* ------------------------------------------------------------------ *)
(* Frontdoor: admission-controlled overload sweep                      *)
(* ------------------------------------------------------------------ *)

(* The async front door under open-loop offered load at 0.5x..4x of the
   broker's configured capacity, in the deterministic simulator (virtual
   time, so the numbers are host-independent and reproducible).  The
   acceptance shape: goodput holds near capacity past saturation while
   the surplus is shed with retry-after hints, and the interactive
   lane's p99 stays bounded because sheds happen at admission instead of
   queueing deep (see Harness.Servicebench.load_sweep). *)
let frontdoor_row () = Harness.Servicebench.load_sweep ()

let print_frontdoor row =
  section
    "Frontdoor: open-loop overload sweep (simulated virtual time, \
     0.5x..4x offered load)";
  Format.printf "%a@." Harness.Report.pp_frontdoor row

(* ------------------------------------------------------------------ *)
(* BENCH_results.json                                                  *)
(* ------------------------------------------------------------------ *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* Bechamel prefixes test names with their group path; match on the
   suffix we minted in [compile_test] instead of reconstructing it. *)
let find_ns rows ~tag ~bench ~label =
  let key = Printf.sprintf "%s/%s/%s" tag bench label in
  List.find_map (fun (name, est) -> if contains ~sub:key name then Some est else None) rows

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' | '\\' -> Buffer.add_char buf '\\'; Buffer.add_char buf c
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let write_results_json path rows cache_rows tiered service perf
    frontdoor tier_rows (fp1, fp2, fp4) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"cores\": %d,\n" (Ir.Parallel.default_jobs ()));
  Buffer.add_string buf (Printf.sprintf "  \"jobs_wide\": %d,\n" jobs_wide);
  Buffer.add_string buf "  \"unit\": \"ns_per_compile\",\n";
  Buffer.add_string buf "  \"suites\": [\n";
  let suites =
    List.map2
      (fun tag (suite : Workloads.Suite.t) ->
        let b = representative suite in
        let bench = b.Workloads.Suite.name in
        let configs =
          List.filter_map
            (fun (label, _, _) ->
              Option.map
                (fun ns -> (label, ns))
                (find_ns rows ~tag ~bench ~label))
            fig_configs
        in
        let speedup =
          match
            (List.assoc_opt "dbds-j1" configs, List.assoc_opt jobs_wide_label configs)
          with
          | Some seq, Some par when par > 0.0 -> Some (seq /. par)
          | _ -> None
        in
        let config_fields =
          String.concat ",\n"
            (List.map
               (fun (label, ns) ->
                 Printf.sprintf "        { \"config\": \"%s\", \"ns_per_compile\": %.1f }"
                   (json_escape label) ns)
               configs)
        in
        Printf.sprintf
          "    {\n\
          \      \"figure\": \"%s\",\n\
          \      \"suite\": \"%s\",\n\
          \      \"benchmark\": \"%s\",\n\
          \      \"configs\": [\n%s\n      ],\n\
          \      \"speedup_vs_jobs1\": %s\n\
          \    }"
          (json_escape tag)
          (json_escape suite.Workloads.Suite.suite_name)
          (json_escape bench) config_fields
          (match speedup with
          | Some s -> Printf.sprintf "%.3f" s
          | None -> "null"))
      fig_tags Workloads.Registry.all
  in
  Buffer.add_string buf (String.concat ",\n" suites);
  Buffer.add_string buf "\n  ],\n";
  Buffer.add_string buf "  \"analysis_cache\": [\n";
  let cache_entries =
    List.map
      (fun (tag, suite_name, bench, pres, bump) ->
        let fields (m : Harness.Metrics.measurement) =
          Printf.sprintf
            "{ \"hits\": %d, \"misses\": %d, \"hit_rate\": %.4f }"
            m.Harness.Metrics.analysis_hits m.Harness.Metrics.analysis_misses
            (Harness.Metrics.analysis_hit_rate m)
        in
        Printf.sprintf
          "    {\n\
          \      \"figure\": \"%s\",\n\
          \      \"suite\": \"%s\",\n\
          \      \"benchmark\": \"%s\",\n\
          \      \"preserving\": %s,\n\
          \      \"generation_bump\": %s\n\
          \    }"
          (json_escape tag) (json_escape suite_name) (json_escape bench)
          (fields pres) (fields bump))
      cache_rows
  in
  Buffer.add_string buf (String.concat ",\n" cache_entries);
  Buffer.add_string buf "\n  ],\n";
  Buffer.add_string buf "  \"tiered\": [\n";
  let tiered_entries =
    List.map
      (fun (tag, suite_name, (r : Harness.Metrics.tiered_row)) ->
        Printf.sprintf
          "    {\n\
          \      \"figure\": \"%s\",\n\
          \      \"suite\": \"%s\",\n\
          \      \"benchmark\": \"%s\",\n\
          \      \"tier0_cycles\": %.1f,\n\
          \      \"first_run_cycles\": %.1f,\n\
          \      \"steady_cycles\": %.1f,\n\
          \      \"speedup_pct\": %.2f,\n\
          \      \"aot_baseline_cycles\": %.1f,\n\
          \      \"aot_dbds_cycles\": %.1f,\n\
          \      \"promotions\": %d,\n\
          \      \"compiles\": %d,\n\
          \      \"deopts\": %d,\n\
          \      \"max_queue_depth\": %d,\n\
          \      \"tier1_share\": %.4f,\n\
          \      \"compile_work\": %d\n\
          \    }"
          (json_escape tag) (json_escape suite_name)
          (json_escape r.Harness.Metrics.t_benchmark)
          r.Harness.Metrics.t_tier0_cycles r.Harness.Metrics.t_first_cycles
          r.Harness.Metrics.t_steady_cycles
          (Harness.Metrics.tiered_speedup r)
          r.Harness.Metrics.t_aot_baseline_cycles
          r.Harness.Metrics.t_aot_dbds_cycles r.Harness.Metrics.t_promotions
          r.Harness.Metrics.t_compiles r.Harness.Metrics.t_deopts
          r.Harness.Metrics.t_max_queue_depth r.Harness.Metrics.t_tier1_share
          r.Harness.Metrics.t_compile_work)
      tiered
  in
  Buffer.add_string buf (String.concat ",\n" tiered_entries);
  Buffer.add_string buf "\n  ],\n";
  Buffer.add_string buf "  \"service\": [\n";
  let service_entries =
    List.map
      (fun (tag, (r : Harness.Metrics.service_row)) ->
        Printf.sprintf
          "    {\n\
          \      \"figure\": \"%s\",\n\
          \      \"suite\": \"%s\",\n\
          \      \"programs\": %d,\n\
          \      \"functions\": %d,\n\
          \      \"cold_ns_per_compile\": %.1f,\n\
          \      \"warm_ns_per_compile\": %.1f,\n\
          \      \"warm_speedup\": %.2f,\n\
          \      \"warm_hit_rate\": %.4f,\n\
          \      \"identical_ir\": %b\n\
          \    }"
          (json_escape tag)
          (json_escape r.Harness.Metrics.sv_suite)
          r.Harness.Metrics.sv_programs r.Harness.Metrics.sv_functions
          r.Harness.Metrics.sv_cold_ns r.Harness.Metrics.sv_warm_ns
          (Harness.Metrics.service_speedup r)
          r.Harness.Metrics.sv_warm_hit_rate r.Harness.Metrics.sv_identical)
      service
  in
  Buffer.add_string buf (String.concat ",\n" service_entries);
  Buffer.add_string buf "\n  ],\n";
  (* Frontdoor: the overload sweep runs entirely in the simulator's
     virtual time, so goodput and latency are host-independent. *)
  let fd = (frontdoor : Harness.Metrics.frontdoor_row) in
  Buffer.add_string buf "  \"frontdoor\": {\n";
  Buffer.add_string buf
    "    \"model\": \"open-loop offered load against the async front \
     door in the deterministic simulator (virtual time); latencies are \
     interactive-lane client-observed\",\n";
  Buffer.add_string buf
    (Printf.sprintf "    \"capacity_rps\": %.1f,\n"
       fd.Harness.Metrics.fd_capacity_rps);
  Buffer.add_string buf
    (Printf.sprintf "    \"tenants\": %d,\n" fd.Harness.Metrics.fd_tenants);
  Buffer.add_string buf
    (Printf.sprintf "    \"requests_per_point\": %d,\n"
       fd.Harness.Metrics.fd_requests);
  Buffer.add_string buf
    (Printf.sprintf "    \"identical_ir\": %b,\n"
       fd.Harness.Metrics.fd_identical);
  Buffer.add_string buf
    (Printf.sprintf "    \"clean_schedules\": %b,\n"
       fd.Harness.Metrics.fd_clean);
  Buffer.add_string buf "    \"points\": [\n";
  let fd_entries =
    List.map
      (fun (p : Harness.Metrics.frontdoor_point) ->
        Printf.sprintf
          "      { \"load_mult\": %.2f, \"offered_rps\": %.1f, \"sent\": \
           %d, \"done\": %d, \"shed\": %d, \"failed\": %d, \
           \"goodput_rps\": %.2f, \"interactive_p50_ms\": %.2f, \
           \"interactive_p95_ms\": %.2f, \"interactive_p99_ms\": %.2f, \
           \"retry_after_ok\": %b }"
          p.Harness.Metrics.fd_mult p.Harness.Metrics.fd_offered_rps
          p.Harness.Metrics.fd_sent p.Harness.Metrics.fd_done
          p.Harness.Metrics.fd_shed p.Harness.Metrics.fd_failed
          p.Harness.Metrics.fd_goodput_rps p.Harness.Metrics.fd_p50_ms
          p.Harness.Metrics.fd_p95_ms p.Harness.Metrics.fd_p99_ms
          p.Harness.Metrics.fd_retry_after_ok)
      fd.Harness.Metrics.fd_points
  in
  Buffer.add_string buf (String.concat ",\n" fd_entries);
  Buffer.add_string buf "\n    ]\n  },\n";
  (* Adversarial workload lab: every benchmark under every tier. *)
  Buffer.add_string buf "  \"adversarial\": [\n";
  let tier_entries =
    List.map
      (fun (r : Harness.Metrics.tier_row) ->
        let cells =
          String.concat ",\n"
            (List.map
               (fun (c : Harness.Metrics.tier_cell) ->
                 Printf.sprintf
                   "        { \"tier\": \"%s\", \"peak_cycles\": %.1f, \
                    \"code_size\": %d, \"compile_work\": %d, \"decisions\": \
                    %d }"
                   (json_escape c.Harness.Metrics.tc_tier)
                   c.Harness.Metrics.tc_peak_cycles
                   c.Harness.Metrics.tc_code_size
                   c.Harness.Metrics.tc_compile_work
                   c.Harness.Metrics.tc_decisions)
               r.Harness.Metrics.tc_cells)
        in
        Printf.sprintf
          "    {\n\
          \      \"suite\": \"%s\",\n\
          \      \"benchmark\": \"%s\",\n\
          \      \"tiers\": [\n%s\n      ]\n\
          \    }"
          (json_escape r.Harness.Metrics.tc_suite)
          (json_escape r.Harness.Metrics.tc_benchmark)
          cells)
      tier_rows
  in
  Buffer.add_string buf (String.concat ",\n" tier_entries);
  Buffer.add_string buf "\n  ],\n";
  (* Cross-jobs byte-determinism of the whole lab table. *)
  Buffer.add_string buf "  \"tier_compare\": {\n";
  Buffer.add_string buf
    (Printf.sprintf
       "    \"fingerprint_jobs1\": \"%s\",\n\
       \    \"fingerprint_jobs2\": \"%s\",\n\
       \    \"fingerprint_jobs4\": \"%s\",\n\
       \    \"byte_identical\": %b\n"
       fp1 fp2 fp4
       (String.equal fp1 fp2 && String.equal fp1 fp4));
  Buffer.add_string buf "  },\n";
  Buffer.add_string buf "  \"perf\": [\n";
  let perf_entries =
    List.map
      (fun r ->
        let costs =
          String.concat ",\n"
            (List.map
               (fun (name, ns) ->
                 Printf.sprintf
                   "        { \"benchmark\": \"%s\", \"ns\": %.0f }"
                   (json_escape name) ns)
               r.p_costs)
        in
        Printf.sprintf
          "    {\n\
          \      \"figure\": \"%s\",\n\
          \      \"benchmarks\": %d,\n\
          \      \"batch_ns_sequential\": %.0f,\n\
          \      \"per_benchmark_ns\": [\n%s\n      ],\n\
          \      \"scheduler_utilization\": { \"workers\": %d, \
           \"mean_busy_fraction\": %.4f },\n\
          \      \"gc_per_compile\": { \"minor_words\": %.0f, \
           \"major_words\": %.0f },\n\
          \      \"identical_ir_across_jobs\": %b\n\
          \    }"
          (json_escape r.p_tag) r.p_benchmarks r.p_total_ns costs
          r.p_util_workers r.p_util_wide
          r.p_minor_words r.p_major_words r.p_identical)
      perf
  in
  Buffer.add_string buf (String.concat ",\n" perf_entries);
  Buffer.add_string buf "\n  ]\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Format.printf "@.wrote %s@." path

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let () =
  section "Figure 4: node cost model example";
  Format.printf "%a@." Harness.Experiments.pp_figure4
    (Harness.Experiments.figure4 ());
  let summaries = Harness.Experiments.run_all_figures () in
  List.iter
    (fun s ->
      section
        (Printf.sprintf "%s: %s" s.Harness.Report.figure
           s.Harness.Report.suite_name);
      Format.printf "%a@." Harness.Report.pp_suite s)
    summaries;
  section "Headline (paper abstract)";
  Format.printf "%a@." Harness.Report.pp_headline
    (Harness.Report.headline_of summaries);
  section "Ablation: backtracking vs simulation (paper 3.1)";
  Format.printf "%a@." Harness.Experiments.pp_backtracking
    (Harness.Experiments.run_backtracking_ablation ());
  section "Ablation: DBDS iterations (paper 5.2)";
  Format.printf "%a@." Harness.Experiments.pp_iterations
    (Harness.Experiments.run_iteration_ablation ());
  section "Ablation: trade-off constants (paper 5.4)";
  Format.printf "%a@." Harness.Experiments.pp_budget
    (Harness.Experiments.run_budget_ablation ());
  section "Extension: path-based duplication (paper 8)";
  Format.printf "%a@." Harness.Experiments.pp_path_ablation
    (Harness.Experiments.run_path_ablation ());
  let cache_rows = analysis_cache_rows () in
  print_analysis_cache cache_rows;
  let tiered = tiered_rows () in
  print_tiered tiered;
  let service = service_rows () in
  print_service service;
  let frontdoor = frontdoor_row () in
  print_frontdoor frontdoor;
  let lab = tier_rows () in
  print_tier_compare lab;
  let fps = tier_fingerprints () in
  let perf = perf_rows () in
  print_perf perf;
  let rows = run_bechamel () in
  write_results_json "BENCH_results.json" rows cache_rows tiered service perf
    frontdoor lab fps
