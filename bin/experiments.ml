(** Prints every deterministic number of the evaluation: the paper's
    tables and figures (Figures 4–8, the headline numbers, the
    ablations), one fingerprint line per paper program and
    configuration, the workload-lab table with its IR fingerprint, the
    trace hashes of a fixed set of simulator schedules and one line of
    cold compile-service replies.  Every figure is a pure function of
    the code, so the output is pinned in
    [test/golden/experiments.expected]: [dune runtest] diffs a fresh
    run against it and [dune promote] accepts a deliberate change.  Host timings live in [bench/main.exe]
    and perfbench, never here. *)

let section title = Format.printf "@.=== %s ===@.@." title

(* One line per paper program and configuration: the optimized IR's
   digest beside the three figure metrics and the computed result. *)
let pp_programs summaries =
  Format.printf "%-8s %-14s %-7s %-32s %6s %12s %8s  %s@." "figure"
    "benchmark" "config" "ir md5" "size" "cycles" "work" "result";
  List.iter
    (fun (s : Harness.Report.suite_summary) ->
      List.iter
        (fun (r : Harness.Metrics.row) ->
          List.iter
            (fun (config, (m : Harness.Metrics.measurement)) ->
              Format.printf "%-8s %-14s %-7s %s %6d %12.1f %8d  %s@."
                s.Harness.Report.figure r.Harness.Metrics.benchmark config
                m.Harness.Metrics.ir_digest m.Harness.Metrics.code_size
                m.Harness.Metrics.peak_cycles m.Harness.Metrics.optimizer_work
                m.Harness.Metrics.result_value)
            [
              ("off", r.Harness.Metrics.baseline);
              ("dbds", r.Harness.Metrics.dbds);
              ("dupalot", r.Harness.Metrics.dupalot);
            ])
        s.Harness.Report.rows)
    summaries

(* Fixed simulator schedules: seeds 1–10 with the default chaos (a
   slice of CI's 50-seed sweep). *)
let pp_sim () =
  let module H = Simtest.Harness in
  List.iter
    (fun (r : H.result) ->
      Format.printf "seed %d: %s%s@." r.H.r_spec.H.seed (H.summary r)
        (if H.violating r then " VIOLATING" else ""))
    (H.run_seeds ~seeds:10 (H.builder ~seed:1 ()))

(* Cold compile-service replies on generated code: the generated
   benchmark suite's rotation of eight shapes (progen programs of varied
   helper count and nesting depth, dispatch loops of 4 and 8 handlers),
   five programs per shape.  Every post-inlining function goes through a
   store-less broker, so each request parses, optimizes and
   canonicalizes cold; the md5 covers each request's digest and the
   broker's reply. *)
let pp_generated_service () =
  let shapes = Array.of_list Workloads.Generated.shapes in
  let config = Dbds.Config.dbds in
  let broker = Service.Broker.create ~workers:1 ~store:None () in
  let buf = Buffer.create 65536 in
  let programs = 5 * Array.length shapes and fns = ref 0 and done_ = ref 0 in
  Fun.protect
    ~finally:(fun () -> Service.Broker.shutdown broker)
    (fun () ->
      for i = 0 to programs - 1 do
        let seed = 20180224 + i in
        let src =
          Workloads.Generated.source shapes.(i mod Array.length shapes) ~seed
        in
        (* Context-free requests: the md5 pins replies compiled without
           the program's class layouts and globals. *)
        let _, units = Service.Client.units (Lang.Frontend.compile src) in
        List.iter
          (fun (fn, ir) ->
            let digest =
              Service.Digest.of_request
                (Service.Digest.request_of_text ~config ~fn ir)
            in
            let reply =
              match Service.Broker.submit ~config ~fn ~ir broker with
              | Service.Broker.Done { ir; work; _ } ->
                  incr done_;
                  Printf.sprintf "done %d\n%s" work ir
              | o -> Service.Broker.outcome_label o
            in
            incr fns;
            Printf.bprintf buf "%s %s\n%s\n" fn digest reply)
          units
      done);
  Format.printf
    "generated service replies: %d programs, %d functions, %d done, md5 %s@."
    programs !fns !done_
    (Stdlib.Digest.to_hex (Stdlib.Digest.string (Buffer.contents buf)))

let () =
  section "Figure 4";
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
  section "Headline";
  Format.printf "%a@." Harness.Report.pp_headline
    (Harness.Report.headline_of summaries);
  section "Ablation: backtracking";
  Format.printf "%a@." Harness.Experiments.pp_backtracking
    (Harness.Experiments.run_backtracking_ablation ());
  section "Ablation: iterations";
  Format.printf "%a@." Harness.Experiments.pp_iterations
    (Harness.Experiments.run_iteration_ablation ());
  section "Ablation: trade-off constants";
  Format.printf "%a@." Harness.Experiments.pp_budget
    (Harness.Experiments.run_budget_ablation ());
  section "Extension: path-based duplication";
  Format.printf "%a@." Harness.Experiments.pp_path_ablation
    (Harness.Experiments.run_path_ablation ());
  section "Programs: optimized IR per configuration";
  pp_programs summaries;
  section "Workload lab: adversarial suites under every tier";
  Format.printf "%a@." Harness.Tiercompare.pp (Harness.Tiercompare.run ());
  Format.printf "lab IR fingerprint: %s@."
    (Harness.Tiercompare.fingerprint ());
  section "Simulator trace hashes";
  pp_sim ();
  section "Compile service: cold replies on generated code";
  pp_generated_service ()
