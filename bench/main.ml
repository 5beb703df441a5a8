(** Host timings of the compile path: every paper benchmark (Figures
    5–8, 46 programs) compiled source → optimized IR under baseline,
    dbds and dupalot, sequentially ([jobs:1]).  Each cell is the minimum
    of five timed compiles after one warm-up — the robust estimator on a
    noisy host — and the GC words it allocated, averaged over the same
    compiles.

    The report is printed and written to [BENCH_results.json] in the
    invoking directory.  It holds host timings only: [cores], [unit],
    [perf] and [dbds_over_baseline_geomean], the geomean over the 46
    programs of each one's dbds/baseline time (the wall-clock
    counterpart of the headline's mean optimizer work).  Per figure,
    [dbds_over_baseline] is the ratio of the dbds and baseline batch
    times of the same run, which holds from run to run where the
    absolute times do not.  Every deterministic number is printed by
    [bin/experiments.exe] and pinned in
    [test/golden/experiments.expected]. *)

let fig_tags = [ "fig5"; "fig6"; "fig7"; "fig8" ]

let configs =
  [
    ("baseline", Dbds.Config.off);
    ("dbds", Dbds.Config.dbds);
    ("dupalot", Dbds.Config.dupalot);
  ]

let runs = 5

(* One benchmark under one configuration. *)
type cell = {
  ns : float;  (** fastest of [runs] compiles *)
  minor_words : float;  (** per compile *)
  major_words : float;  (** per compile *)
}

let measure config (b : Workloads.Suite.benchmark) =
  let compile () =
    let prog = Workloads.Suite.compile b in
    ignore (Dbds.Driver.optimize_program_report ~config ~jobs:1 prog)
  in
  compile ();
  let best = ref infinity in
  let s0 = Gc.quick_stat () in
  for _ = 1 to runs do
    let t0 = Unix.gettimeofday () in
    compile ();
    best := Float.min !best ((Unix.gettimeofday () -. t0) *. 1e9)
  done;
  let s1 = Gc.quick_stat () in
  let per_compile w0 w1 = (w1 -. w0) /. float_of_int runs in
  {
    ns = !best;
    minor_words = per_compile s0.Gc.minor_words s1.Gc.minor_words;
    major_words = per_compile s0.Gc.major_words s1.Gc.major_words;
  }

(* Per suite: every benchmark's row of cells, in [configs] order. *)
let measure_suite (suite : Workloads.Suite.t) =
  List.map
    (fun (b : Workloads.Suite.benchmark) ->
      (b.Workloads.Suite.name, List.map (fun (_, c) -> measure c b) configs))
    suite.Workloads.Suite.benchmarks

let column i rows = List.map (fun (_, cells) -> List.nth cells i) rows
let sum f cells = List.fold_left (fun acc c -> acc +. f c) 0.0 cells

let mean f cells =
  if cells = [] then 0.0 else sum f cells /. float_of_int (List.length cells)

(* The dbds batch time over the baseline's, within one run. *)
let dbds_over_baseline rows =
  let batch i = sum (fun c -> c.ns) (column i rows) in
  batch 1 /. batch 0

let dbds_over_baseline_geomean suites =
  List.concat_map (fun (_, _, rows) -> rows) suites
  |> List.map (fun (_, cells) ->
         log ((List.nth cells 1).ns /. (List.nth cells 0).ns))
  |> mean Fun.id |> exp

let print_suite tag (suite : Workloads.Suite.t) rows =
  Format.printf "@.=== %s: %s (min of %d compiles, jobs 1) ===@.@." tag
    suite.Workloads.Suite.suite_name runs;
  Format.printf "%-14s %12s %12s %12s@." "benchmark" "baseline ms" "dbds ms"
    "dupalot ms";
  let ms c = c.ns /. 1e6 in
  let row name cells =
    Format.printf "%-14s%a@." name
      (Format.pp_print_list ~pp_sep:(fun _ () -> ())
         (fun ppf v -> Format.fprintf ppf " %12.3f" v))
      cells
  in
  List.iter (fun (name, cells) -> row name (List.map ms cells)) rows;
  let columns = List.mapi (fun i _ -> column i rows) configs in
  row "total" (List.map (sum ms) columns);
  Format.printf "%-14s%a@." "minor w/c"
    (Format.pp_print_list ~pp_sep:(fun _ () -> ())
       (fun ppf v -> Format.fprintf ppf " %12.0f" v))
    (List.map (mean (fun c -> c.minor_words)) columns);
  Format.printf "%-14s %12.3f@." "dbds/baseline" (dbds_over_baseline rows)

let json_suite tag (suite : Workloads.Suite.t) rows =
  let config_entry i (label, _) =
    let cells = column i rows in
    let per_benchmark =
      String.concat ",\n"
        (List.map
           (fun (name, cells) ->
             Printf.sprintf "            { \"benchmark\": %S, \"ns\": %.0f }"
               name (List.nth cells i).ns)
           rows)
    in
    Printf.sprintf
      "        {\n\
      \          \"config\": %S,\n\
      \          \"batch_ns\": %.0f,\n\
      \          \"gc_per_compile\": { \"minor_words\": %.0f, \
       \"major_words\": %.0f },\n\
      \          \"per_benchmark_ns\": [\n%s\n          ]\n\
      \        }"
      label
      (sum (fun c -> c.ns) cells)
      (mean (fun c -> c.minor_words) cells)
      (mean (fun c -> c.major_words) cells)
      per_benchmark
  in
  Printf.sprintf
    "    {\n\
    \      \"figure\": %S,\n\
    \      \"suite\": %S,\n\
    \      \"benchmarks\": %d,\n\
    \      \"dbds_over_baseline\": %.3f,\n\
    \      \"configs\": [\n%s\n      ]\n\
    \    }"
    tag suite.Workloads.Suite.suite_name (List.length rows)
    (dbds_over_baseline rows)
    (String.concat ",\n" (List.mapi config_entry configs))

let () =
  let suites =
    List.map2
      (fun tag suite -> (tag, suite, measure_suite suite))
      fig_tags Workloads.Registry.all
  in
  List.iter (fun (tag, suite, rows) -> print_suite tag suite rows) suites;
  let geomean = dbds_over_baseline_geomean suites in
  Format.printf "@.dbds/baseline, geomean over all programs: %.3f@." geomean;
  let path = "BENCH_results.json" in
  let oc = open_out path in
  Printf.fprintf oc
    "{\n  \"cores\": %d,\n  \"unit\": \"ns_per_compile\",\n  \
     \"dbds_over_baseline_geomean\": %.3f,\n  \"perf\": [\n%s\n  ]\n}\n"
    (Ir.Parallel.default_jobs ()) geomean
    (String.concat ",\n"
       (List.map (fun (tag, suite, rows) -> json_suite tag suite rows) suites));
  close_out oc;
  Format.printf "@.wrote %s@." path
