(** Compiles and measures one benchmark under one configuration. *)

exception Benchmark_failed of string * string

let compile_benchmark (b : Workloads.Suite.benchmark) =
  try Workloads.Suite.compile b with
  | Lang.Frontend.Error msg ->
      raise (Benchmark_failed (b.Workloads.Suite.name, msg))
  | Ir.Parse.Parse_error msg ->
      raise (Benchmark_failed (b.Workloads.Suite.name, msg))

let program_code_size prog =
  let total = ref 0 in
  Ir.Program.iter_functions prog (fun g ->
      total := !total + Costmodel.Estimate.graph_size g);
  !total

(* The work-unit model covers the optimizer; a real JIT also parses,
   schedules, allocates registers and emits machine code — several passes
   whose cost scales with the *final* IR size.  Charging them makes the
   compile-time ratios meaningful (the paper's +18% DBDS overhead is
   relative to a whole compilation, not to the optimizer alone). *)
let backend_passes = 60

let program_instr_count prog =
  let total = ref 0 in
  Ir.Program.iter_functions prog (fun g ->
      total := !total + Ir.Graph.live_instr_count g);
  !total

(** Compile [b] under [config], then execute its workload on the cost
    interpreter.  Fresh frontend output per call so configurations never
    share IR.  [jobs] fans the optimizer out over that many domains
    (default: all cores); results are identical for any value. *)
let measure ?(icache = Interp.Machine.default_icache) ?jobs ~config
    (b : Workloads.Suite.benchmark) =
  let prog = compile_benchmark b in
  let r = Dbds.Driver.optimize_program_report ~config ?jobs prog in
  let ctx = r.Dbds.Driver.rep_ctx in
  let optimizer_work = ctx.Opt.Phase.work in
  Opt.Phase.charge ctx (backend_passes * program_instr_count prog);
  let totals = Dbds.Driver.total_stats r.Dbds.Driver.rep_stats in
  let ir = Buffer.create 4096 in
  Ir.Program.iter_functions prog (fun g ->
      Buffer.add_string ir (Ir.Printer.graph_to_string g));
  let result, run_stats =
    try Interp.Machine.run ~icache ~fuel:50_000_000 prog ~args:b.Workloads.Suite.args
    with e ->
      raise
        (Benchmark_failed
           ( b.Workloads.Suite.name,
             Printf.sprintf "%s under %s" (Printexc.to_string e)
               (Opt.Spec.to_string config.Dbds.Config.passes) ))
  in
  {
    Metrics.peak_cycles = run_stats.Interp.Machine.cycles;
    code_size = program_code_size prog;
    compile_work = ctx.Opt.Phase.work;
    optimizer_work;
    ir_digest = Digest.to_hex (Digest.string (Buffer.contents ir));
    duplications = totals.Dbds.Driver.duplications_performed;
    contained = ctx.Opt.Phase.contained;
    passes = Opt.Phase.pass_table ctx;
    analysis_hits = ctx.Opt.Phase.analysis_hits;
    analysis_misses = ctx.Opt.Phase.analysis_misses;
    run_icache_hits = run_stats.Interp.Machine.icache_hits;
    run_icache_misses = run_stats.Interp.Machine.icache_misses;
    result_value = Interp.Machine.result_to_string result;
  }

(** Measure a benchmark under the three paper configurations, checking
    that all three compute the same result. *)
let run_benchmark ?icache ?jobs (b : Workloads.Suite.benchmark) =
  let baseline = measure ?icache ?jobs ~config:Dbds.Config.off b in
  let dbds = measure ?icache ?jobs ~config:Dbds.Config.dbds b in
  let dupalot = measure ?icache ?jobs ~config:Dbds.Config.dupalot b in
  if
    baseline.Metrics.result_value <> dbds.Metrics.result_value
    || baseline.Metrics.result_value <> dupalot.Metrics.result_value
  then
    raise
      (Benchmark_failed
         ( b.Workloads.Suite.name,
           Printf.sprintf "configurations disagree: %s / %s / %s"
             baseline.Metrics.result_value dbds.Metrics.result_value
             dupalot.Metrics.result_value ));
  {
    Metrics.benchmark = b.Workloads.Suite.name;
    baseline;
    dbds;
    dupalot;
  }

let run_suite ?icache ?jobs (s : Workloads.Suite.t) =
  List.map (run_benchmark ?icache ?jobs) s.Workloads.Suite.benchmarks
