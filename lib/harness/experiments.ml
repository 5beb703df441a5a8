(** The experiment definitions: one entry per paper artifact (see the
    experiment index in DESIGN.md §4), each able to regenerate its rows.
    [bin/experiments.exe] prints all of them, pinned in
    [test/golden/experiments.expected]. *)

(* ------------------------------------------------------------------ *)
(* Figures 5–8                                                         *)
(* ------------------------------------------------------------------ *)

(* Every (configuration, benchmark) pair is measured once per process:
   the figures and the ablations share one table, keyed by the
   configuration's wire line and the benchmark's name.  The ablations'
   [off] baselines and their default-valued rows ([iters=3],
   [BS=256 IB=1.5], plain dbds beside the paths) are the figures'
   measurements again.  Measurements are deterministic, so a repeat
   would only cost time. *)
let measured : (string * string, Metrics.measurement) Hashtbl.t =
  Hashtbl.create 512

let measure ~config (b : Workloads.Suite.benchmark) =
  let key = (Dbds.Config.to_line config, b.Workloads.Suite.name) in
  match Hashtbl.find_opt measured key with
  | Some m -> m
  | None ->
      let m = Runner.measure ~config b in
      Hashtbl.add measured key m;
      m

let run_figure (suite : Workloads.Suite.t) =
  Report.summarize suite
    (List.map (Runner.run_benchmark ~measure) suite.Workloads.Suite.benchmarks)

let run_all_figures () = List.map run_figure Workloads.Registry.all

(* Every benchmark of [benchmarks] measured under [config]. *)
let measure_all config benchmarks = List.map (fun b -> measure ~config b) benchmarks

(* Geomean of a metric's delta, per benchmark, against [baseline]. *)
let geo delta baseline ms =
  Metrics.geomean_pct (List.map2 (fun b m -> delta ~baseline:b m) baseline ms)

let micro = Workloads.Micro.suite.Workloads.Suite.benchmarks

(* ------------------------------------------------------------------ *)
(* Ablation: backtracking vs simulation compile time (paper §3.1)      *)
(* ------------------------------------------------------------------ *)

type backtracking_row = {
  bt_benchmark : string;
  dbds_work : int;
  backtracking_work : int;
}

(** The paper reports that the graph-copying backtracking strategy
    increased compilation time ~10x; this reproduces the comparison on
    every paper program, by the work each optimizer charged. *)
let run_backtracking_ablation () =
  List.concat_map (fun s -> s.Workloads.Suite.benchmarks) Workloads.Registry.all
  |> List.map (fun b ->
         let work config = (measure ~config b).Metrics.optimizer_work in
         {
           bt_benchmark = b.Workloads.Suite.name;
           dbds_work = work Dbds.Config.dbds;
           backtracking_work = work Dbds.Config.backtracking;
         })

let pp_backtracking ppf rows =
  let ratio dbds bt = float_of_int bt /. float_of_int (max dbds 1) in
  let pp_row name dbds bt =
    Fmt.pf ppf "%-14s | %12d | %14d | %6.1fx@\n" name dbds bt (ratio dbds bt)
  in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 rows in
  let rule = String.make 56 '-' in
  Fmt.pf ppf
    "Ablation (paper §3.1): backtracking vs DBDS compile effort (optimizer \
     work)@\n";
  Fmt.pf ppf "%-14s | %12s | %14s | %7s@\n" "benchmark" "DBDS work"
    "backtrack work" "ratio";
  Fmt.pf ppf "%s@\n" rule;
  List.iter
    (fun r -> pp_row r.bt_benchmark r.dbds_work r.backtracking_work)
    rows;
  Fmt.pf ppf "%s@\n" rule;
  pp_row "summed"
    (sum (fun r -> r.dbds_work))
    (sum (fun r -> r.backtracking_work));
  let geo =
    Metrics.geomean_pct
      (List.map
         (fun r -> (ratio r.dbds_work r.backtracking_work -. 1.0) *. 100.0)
         rows)
  in
  Fmt.pf ppf "%-14s | %43.1fx   (paper: ~10x)@\n" "geomean"
    (1.0 +. (geo /. 100.0))

(* ------------------------------------------------------------------ *)
(* Ablation: DBDS iteration count (paper §5.2)                         *)
(* ------------------------------------------------------------------ *)

type iteration_row = {
  it_iterations : int;
  it_peak : float;  (** geomean peak delta vs baseline *)
  it_compile : float;
  it_size : float;
}

let run_iteration_ablation () =
  let baseline = measure_all Dbds.Config.off micro in
  List.map
    (fun iters ->
      let passes =
        Dbds.Config.pipeline
          ~opts:[ ("iters", string_of_int iters) ]
          (Some "dbds")
      in
      let ms = measure_all { Dbds.Config.dbds with Dbds.Config.passes } micro in
      {
        it_iterations = iters;
        it_peak = geo Metrics.peak_delta baseline ms;
        it_compile = geo Metrics.compile_delta baseline ms;
        it_size = geo Metrics.size_delta baseline ms;
      })
    [ 1; 2; 3; 4 ]

let pp_iterations ppf rows =
  Fmt.pf ppf "Ablation (paper §5.2): DBDS iteration count (micro suite)@\n";
  Fmt.pf ppf "%10s | %10s | %14s | %11s@\n" "iterations" "peak %" "compile %"
    "size %";
  Fmt.pf ppf "%s@\n" (String.make 54 '-');
  List.iter
    (fun r ->
      Fmt.pf ppf "%10d | %+10.2f | %+14.2f | %+11.2f@\n" r.it_iterations
        r.it_peak r.it_compile r.it_size)
    rows

(* ------------------------------------------------------------------ *)
(* Ablation: trade-off constants (paper §5.4)                          *)
(* ------------------------------------------------------------------ *)

type budget_row = {
  bd_label : string;
  bd_peak : float;
  bd_size : float;
  bd_duplications : int;
}

let run_budget_ablation () =
  let baseline = measure_all Dbds.Config.off micro in
  List.map
    (fun (label, bs, ib) ->
      let ms =
        measure_all
          {
            Dbds.Config.default with
            Dbds.Config.benefit_scale = bs;
            Dbds.Config.size_budget = ib;
          }
          micro
      in
      {
        bd_label = label;
        bd_peak = geo Metrics.peak_delta baseline ms;
        bd_size = geo Metrics.size_delta baseline ms;
        bd_duplications =
          List.fold_left (fun n m -> n + m.Metrics.duplications) 0 ms;
      })
    [
      ("BS=1    IB=1.5", 1.0, 1.5);
      ("BS=16   IB=1.5", 16.0, 1.5);
      ("BS=256  IB=1.5", 256.0, 1.5);
      ("BS=4096 IB=1.5", 4096.0, 1.5);
      ("BS=256  IB=1.1", 256.0, 1.1);
      ("BS=256  IB=3.0", 256.0, 3.0);
    ]

let pp_budget ppf rows =
  Fmt.pf ppf
    "Ablation (paper §5.4): benefit scale BS and size budget IB (micro suite)@\n";
  Fmt.pf ppf "%-16s | %10s | %11s | %13s@\n" "config" "peak %" "size %"
    "duplications";
  Fmt.pf ppf "%s@\n" (String.make 58 '-');
  List.iter
    (fun r ->
      Fmt.pf ppf "%-16s | %+10.2f | %+11.2f | %13d@\n" r.bd_label r.bd_peak
        r.bd_size r.bd_duplications)
    rows

(* ------------------------------------------------------------------ *)
(* Extension: path-based duplication (paper §8 future work)            *)
(* ------------------------------------------------------------------ *)

type path_row = {
  pd_suite : string;
  pd_peak_plain : float;
  pd_peak_paths : float;
  pd_compile_plain : float;
  pd_compile_paths : float;
  pd_size_plain : float;
  pd_size_paths : float;
}

(** The paper's §8 asks whether duplicating over multiple merges along
    paths can "increase peak performance even further": compare plain
    DBDS against DBDS with the path extension on every suite. *)
let run_path_ablation () =
  List.map
    (fun (suite : Workloads.Suite.t) ->
      let benchmarks = suite.Workloads.Suite.benchmarks in
      let baseline = measure_all Dbds.Config.off benchmarks in
      let plain = measure_all Dbds.Config.dbds benchmarks in
      let paths = measure_all Dbds.Config.dbds_paths benchmarks in
      {
        pd_suite = suite.Workloads.Suite.suite_name;
        pd_peak_plain = geo Metrics.peak_delta baseline plain;
        pd_peak_paths = geo Metrics.peak_delta baseline paths;
        pd_compile_plain = geo Metrics.compile_delta baseline plain;
        pd_compile_paths = geo Metrics.compile_delta baseline paths;
        pd_size_plain = geo Metrics.size_delta baseline plain;
        pd_size_paths = geo Metrics.size_delta baseline paths;
      })
    Workloads.Registry.all

let pp_path_ablation ppf rows =
  Fmt.pf ppf
    "Extension (paper §8): path-based duplication vs plain DBDS (geomeans vs \
     baseline)@\n";
  Fmt.pf ppf "%-16s | %9s %9s | %9s %9s | %9s %9s@\n" "suite" "pk-dbds"
    "pk-paths" "ct-dbds" "ct-paths" "sz-dbds" "sz-paths";
  Fmt.pf ppf "%s@\n" (String.make 80 '-');
  List.iter
    (fun r ->
      Fmt.pf ppf "%-16s | %+9.2f %+9.2f | %+9.2f %+9.2f | %+9.2f %+9.2f@\n"
        r.pd_suite r.pd_peak_plain r.pd_peak_paths r.pd_compile_plain
        r.pd_compile_paths r.pd_size_plain r.pd_size_paths)
    rows

(* ------------------------------------------------------------------ *)
(* Figure 4: the node cost model example                               *)
(* ------------------------------------------------------------------ *)

(** Rebuild Figure 4's two-block example and report the estimated times
    before and after duplication (the paper's table computes 14 → 12.2
    cycles with its node costs; the mechanism — constant folding removes
    the multiply from the 90% path — is identical under our table). *)
let figure4 () =
  let src =
    {|
    global int sink;
    int main(int p0) {
      int phi;
      if (p0 > 0) @0.9 { phi = 3; } else { phi = p0; }
      int m = phi * 3;
      sink = m;
      return m;
    }
    |}
  in
  let before = Lang.Frontend.compile src in
  let after = Ir.Program.copy before in
  let _ = Dbds.Driver.optimize_program_report ~config:Dbds.Config.off before in
  let _ = Dbds.Driver.optimize_program_report ~config:Dbds.Config.dbds after in
  let cycles p =
    Costmodel.Estimate.weighted_cycles
      (Option.get (Ir.Program.find_function p "main"))
  in
  (cycles before, cycles after)

let pp_figure4 ppf (before, after) =
  Fmt.pf ppf
    "Figure 4 (node cost model example): estimated %.1f cycles before, %.1f \
     after duplication (saving %.1f; the paper's instance saves 1.8 with its \
     store=10/mul=2/return=2 table)@\n"
    before after (before -. after)
