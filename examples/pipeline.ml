(** End-to-end pipeline on a real workload: compile one of the Octane
    suite's sources through the frontend, optimize under all three
    configurations, and compare the three metrics of the paper's
    evaluation — peak cycles (with the i-cache model), code size and
    compile work.

    Run with: [dune exec examples/pipeline.exe] — optionally pass a
    benchmark name, e.g. [dune exec examples/pipeline.exe -- raytrace] *)

let find_benchmark name =
  List.concat_map
    (fun s -> s.Workloads.Suite.benchmarks)
    Workloads.Registry.all
  |> List.find_opt (fun b -> b.Workloads.Suite.name = name)

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "jython" in
  match find_benchmark name with
  | None ->
      Format.printf "unknown benchmark %s; available:@." name;
      List.iter
        (fun s ->
          Format.printf "  %s: %s@." s.Workloads.Suite.suite_name
            (String.concat ", "
               (List.map
                  (fun b -> b.Workloads.Suite.name)
                  s.Workloads.Suite.benchmarks)))
        Workloads.Registry.all;
      exit 1
  | Some b ->
      Format.printf "benchmark %s: %s@.@." b.Workloads.Suite.name
        b.Workloads.Suite.description;
      let configs =
        [
          ("baseline", Dbds.Config.off);
          ("dbds", Dbds.Config.dbds);
          ("dupalot", Dbds.Config.dupalot);
        ]
      in
      Format.printf "%-10s %14s %12s %14s %14s@." "config" "peak cycles"
        "code size" "compile work" "duplications";
      let baseline_cycles = ref 0.0 in
      List.iter
        (fun (label, config) ->
          let m = Harness.Runner.measure ~config b in
          if label = "baseline" then baseline_cycles := m.Harness.Metrics.peak_cycles;
          Format.printf "%-10s %14.0f %12d %14d %14d   (peak %+.2f%%)@." label
            m.Harness.Metrics.peak_cycles m.Harness.Metrics.code_size
            m.Harness.Metrics.optimizer_work m.Harness.Metrics.duplications
            ((!baseline_cycles /. m.Harness.Metrics.peak_cycles -. 1.0) *. 100.))
        configs
