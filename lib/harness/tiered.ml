(** Tiered-execution measurements: the VM engine run to steady state on
    the evaluation's workloads, against a tier-0-only engine and the AOT
    configurations.

    For each benchmark the same source is driven four ways:

    - {e tier0}: a {!Vm.Engine} with {!Vm.Policy.never} — a plain
      profiled interpreter, the promotion-free control;
    - {e tiered}: the full engine, warmed over [warmup] runs so
      promotions and background compiles settle, then one measured run;
    - {e AOT baseline / dbds}: the existing {!Runner.measure} numbers
      for context (compile-everything-up-front upper bounds).

    The acceptance bar mirrors the evaluation: steady-state tiered
    cycles must beat pure interpretation wherever the workload has any
    heat — the win comes from hot functions running optimized bodies
    (profile-guided DBDS included) instead of being re-interpreted. *)

let default_warmup = 4

(* Engine fuel matches Runner's workload budget: suites run tens of
   millions of interpreted instructions. *)
let fuel = 50_000_000

let measure_benchmark ?(warmup = default_warmup) ?(config = Vm.Engine.config ())
    (b : Workloads.Suite.benchmark) =
  let args = b.Workloads.Suite.args in
  let fresh () = Workloads.Suite.compile b in
  (* Tier-0-only control: same engine machinery, promotion disabled. *)
  let tier0_cfg =
    Vm.Engine.config ~policy:Vm.Policy.never ~icache:config.Vm.Engine.icache
      ~fuel ()
  in
  let tier0 = Vm.Engine.create ~config:tier0_cfg (fresh ()) in
  for _ = 1 to warmup do
    ignore (Vm.Engine.run_full tier0 ~args)
  done;
  let _, t0_stats, _ = Vm.Engine.run_full tier0 ~args in
  (* The tiered engine: first (cold) run, warmup, steady-state run. *)
  let cfg = { config with Vm.Engine.fuel } in
  let tiered = Vm.Engine.create ~config:cfg (fresh ()) in
  let tiered_result, first_stats, _ = Vm.Engine.run_full tiered ~args in
  for _ = 1 to max 0 (warmup - 1) do
    ignore (Vm.Engine.run_full tiered ~args)
  done;
  let steady_result, steady_stats, _ = Vm.Engine.run_full tiered ~args in
  if
    Interp.Machine.result_to_string tiered_result
    <> Interp.Machine.result_to_string steady_result
  then
    raise
      (Runner.Benchmark_failed
         ( b.Workloads.Suite.name,
           Printf.sprintf "tiered runs disagree: %s / %s"
             (Interp.Machine.result_to_string tiered_result)
             (Interp.Machine.result_to_string steady_result) ));
  let vs = Vm.Engine.finish tiered in
  (* AOT context rows. *)
  let aot config = Runner.measure ~jobs:1 ~config b in
  let aot_baseline = aot Dbds.Config.off in
  let aot_dbds = aot Dbds.Config.dbds in
  if
    Interp.Machine.result_to_string steady_result
    <> aot_baseline.Metrics.result_value
  then
    raise
      (Runner.Benchmark_failed
         ( b.Workloads.Suite.name,
           Printf.sprintf "tiered result %s disagrees with AOT %s"
             (Interp.Machine.result_to_string steady_result)
             aot_baseline.Metrics.result_value ));
  {
    Metrics.t_benchmark = b.Workloads.Suite.name;
    t_tier0_cycles = t0_stats.Interp.Machine.cycles;
    t_first_cycles = first_stats.Interp.Machine.cycles;
    t_steady_cycles = steady_stats.Interp.Machine.cycles;
    t_aot_dbds_cycles = aot_dbds.Metrics.peak_cycles;
    t_promotions = vs.Vm.Vmstats.promotions;
    t_deopts = vs.Vm.Vmstats.deopts;
    t_tier1_share = Vm.Vmstats.tier1_share vs;
  }

(** One row per suite (its representative first benchmark), as
    [bin/experiments.exe] reports. *)
let measure_suite ?warmup ?config (s : Workloads.Suite.t) =
  measure_benchmark ?warmup ?config (List.hd s.Workloads.Suite.benchmarks)
