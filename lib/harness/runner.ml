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

(** Compile [b] under [config], then execute its workload on the cost
    interpreter.  Fresh frontend output per call so configurations never
    share IR.  [jobs] fans the optimizer out over that many domains
    (default: all cores); results are identical for any value.  The
    compile effort recorded is the work the optimizer's passes charged. *)
let measure ?jobs ~config (b : Workloads.Suite.benchmark) =
  let prog = compile_benchmark b in
  let r = Dbds.Driver.optimize_program_report ~config ?jobs prog in
  let ctx = r.Dbds.Driver.rep_ctx in
  let totals = Dbds.Driver.total_stats r.Dbds.Driver.rep_stats in
  let ir = Buffer.create 4096 in
  Ir.Program.iter_functions prog (fun g ->
      Buffer.add_string ir (Ir.Printer.graph_to_string g));
  let result, run_stats =
    try Interp.Machine.run ~fuel:50_000_000 prog ~args:b.Workloads.Suite.args
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
    optimizer_work = ctx.Opt.Phase.work;
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

(** Measure [b] under each labelled configuration (through [measure],
    by default {!measure}), checking that every one computes the first
    one's result. *)
let measure_agreeing ?jobs ?(measure = fun ~config b -> measure ?jobs ~config b)
    configs (b : Workloads.Suite.benchmark) =
  let measured =
    List.map (fun (label, config) -> (label, measure ~config b)) configs
  in
  (match measured with
  | (first_label, first) :: rest ->
      List.iter
        (fun (label, m) ->
          if m.Metrics.result_value <> first.Metrics.result_value then
            raise
              (Benchmark_failed
                 ( b.Workloads.Suite.name,
                   Printf.sprintf "%s computes %s, %s computes %s" label
                     m.Metrics.result_value first_label
                     first.Metrics.result_value )))
        rest
  | [] -> ());
  measured

(** Measure a benchmark under the three paper configurations, checking
    that all three compute the same result. *)
let run_benchmark ?measure (b : Workloads.Suite.benchmark) =
  match
    measure_agreeing ?measure
      [
        ("baseline", Dbds.Config.off);
        ("dbds", Dbds.Config.dbds);
        ("dupalot", Dbds.Config.dupalot);
      ]
      b
  with
  | [ (_, baseline); (_, dbds); (_, dupalot) ] ->
      { Metrics.benchmark = b.Workloads.Suite.name; baseline; dbds; dupalot }
  | _ -> assert false

let run_suite (s : Workloads.Suite.t) =
  List.map run_benchmark s.Workloads.Suite.benchmarks
