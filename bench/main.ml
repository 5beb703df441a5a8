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
    absolute times do not.  [before_first_pass] times the stages from
    source text to the first classic pass (parse+typecheck, lowering,
    the frontend verifier, the inliner) on the paper programs and on the
    generated set, beside [rows]: every row of the per-pass table of
    the corpus's dbds compiles (the classic passes, [inline], the
    inclusive [dbds] row and its tiers [dbds.simulate],
    [dbds.tradeoff] and [dbds.duplicate]), each with its runs, work
    units, ns, [idle_ns] (the ns of runs that fired nothing), ns per
    unit and minor words.  [simulate] repeats the
    [dbds.simulate] row with the rounds and candidates.
    [service_cold_path] times the server's cold path stage by stage
    ({!Cold}: decode, parse, hash, compile, canonical reply IR, store
    put, render) over the functions of perfbench-shaped cold requests,
    in ns and minor words per function.  Every
    deterministic number is printed by [bin/experiments.exe] and pinned
    in [test/golden/experiments.expected]. *)

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

(* ------------------------------------------------------------------ *)
(* Before the first pass                                               *)
(* ------------------------------------------------------------------ *)

(* The stages from source text to the first classic pass over a corpus:
   parse+typecheck, SSA lowering, the frontend verifier and the inliner.
   Per stage: the corpus total of the fastest of [runs] runs, and the
   minor words one run allocates.  The inliner's stage is its [inline]
   row of the per-pass table. *)
let stages = [ "parse+typecheck"; "lower"; "verify"; "inline" ]

let classic_passes =
  List.map
    (fun n -> (Opt.Pipeline.resolve_classic n []).Opt.Phase.pass_name)
    Opt.Pipeline.classic_names

(* The two corpora: the paper's 46 programs and the generated set, the
   eight shapes of perfbench's aot-generated suite at seeds 0-19. *)
let corpora () =
  let paper =
    List.concat_map
      (fun (s : Workloads.Suite.t) ->
        List.map (fun b -> b.Workloads.Suite.source) s.Workloads.Suite.benchmarks)
      Workloads.Registry.all
  in
  let generated =
    List.concat_map
      (fun shape ->
        List.init 20 (fun seed -> Workloads.Generated.source shape ~seed))
      Workloads.Generated.shapes
  in
  [ ("paper", paper); ("generated", generated) ]

type stage_cell = { sc_ns : float; sc_minor : float }

(* A row of the per-pass table summed over a corpus; [idle] is the part
   of [ns] spent in runs that fired nothing. *)
type row = { runs : int; work : int; ns : float; idle : float; minor : float }

type corpus_report = {
  programs : int;
  cells : stage_cell list;  (** in [stages] order *)
  inline_work : int;
  rows : (string * row) list;
      (** every row of the per-pass table, in table order, under dbds *)
  simulate : stage_cell;  (** the [dbds.simulate] row, every dbds round *)
  rounds : int;
  candidates : int;
}

(* One timed run of the frontend's three stages over every program: per
   stage the summed ns and minor words. *)
let time_stages sources =
  let ns = Array.make 3 0.0 and minor = Array.make 3 0.0 in
  let timed i f =
    let w0 = Gc.minor_words () and t0 = Unix.gettimeofday () in
    let r = f () in
    ns.(i) <- ns.(i) +. ((Unix.gettimeofday () -. t0) *. 1e9);
    minor.(i) <- minor.(i) +. (Gc.minor_words () -. w0);
    r
  in
  List.iter
    (fun src ->
      let ast =
        timed 0 (fun () ->
            let ast = Lang.Parser.parse_program src in
            Lang.Typecheck.check_program ast;
            ast)
      in
      let prog = timed 1 (fun () -> Lang.Lower.lower_program ast) in
      timed 2 (fun () ->
          Ir.Program.iter_functions prog (fun g ->
              match Ir.Verifier.verify_result g with
              | Ok () -> ()
              | Error m -> failwith m)))
    sources;
  (ns, minor)

let no_row = { runs = 0; work = 0; ns = 0.0; idle = 0.0; minor = 0.0 }
let find_row rows name =
  Option.value ~default:no_row (Hashtbl.find_opt rows name)

(* One dbds compile of every program: the merged per-pass table's rows,
   their names in table order, and the candidates the simulation
   found. *)
let time_passes sources =
  let rows = Hashtbl.create 32 and names = ref [] and candidates = ref 0 in
  List.iter
    (fun src ->
      let prog = Lang.Frontend.compile src in
      let r =
        Dbds.Driver.optimize_program_report ~config:Dbds.Config.dbds ~jobs:1
          prog
      in
      candidates :=
        !candidates
        + (Dbds.Driver.total_stats r.Dbds.Driver.rep_stats)
            .Dbds.Driver.candidates_found;
      List.iter
        (fun (name, (st : Opt.Phase.pass_stat)) ->
          if not (Hashtbl.mem rows name) then names := name :: !names;
          let r = find_row rows name in
          Hashtbl.replace rows name
            {
              runs = r.runs + st.Opt.Phase.runs;
              work = r.work + st.Opt.Phase.pwork;
              ns = r.ns +. (st.Opt.Phase.time_s *. 1e9);
              idle = r.idle +. (st.Opt.Phase.idle_s *. 1e9);
              minor = r.minor +. float_of_int st.Opt.Phase.minor_words;
            })
        (Opt.Phase.pass_table r.Dbds.Driver.rep_ctx))
    sources;
  (rows, List.rev !names, !candidates)

(* [runs] timed runs after one warm-up: per stage and per row, the
   fastest run's ns and the fewest minor words. *)
let measure_corpus sources =
  ignore (time_stages sources);
  let stage_runs = List.init runs (fun _ -> time_stages sources) in
  let pass_runs = List.init runs (fun _ -> time_passes sources) in
  let least f = List.fold_left (fun b run -> Float.min b (f run)) infinity in
  let row name =
    let of_run (rows, _, _) = find_row rows name in
    {
      (of_run (List.hd pass_runs)) with
      ns = least (fun run -> (of_run run).ns) pass_runs;
      idle = least (fun run -> (of_run run).idle) pass_runs;
      minor = least (fun run -> (of_run run).minor) pass_runs;
    }
  in
  let cell r = { sc_ns = r.ns; sc_minor = r.minor } in
  let inline = row "inline" and simulate = row "dbds.simulate" in
  let _, names, candidates = List.hd pass_runs in
  {
    programs = List.length sources;
    cells =
      List.init 3 (fun i ->
          {
            sc_ns = least (fun (ns, _) -> ns.(i)) stage_runs;
            sc_minor = least (fun (_, minor) -> minor.(i)) stage_runs;
          })
      @ [ cell inline ];
    inline_work = inline.work;
    rows = List.map (fun name -> (name, row name)) names;
    simulate = cell simulate;
    rounds = simulate.runs;
    candidates;
  }

let per_work ns work = if work = 0 then 0.0 else ns /. float_of_int work

let classic_median r =
  let a =
    Array.of_list
      (List.filter_map
         (fun (name, row) ->
           if List.mem name classic_passes && row.work > 0 then
             Some (per_work row.ns row.work)
           else None)
         r.rows)
  in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let inline_ns r = (List.nth r.cells 3).sc_ns

let print_corpus name r =
  Format.printf "@.=== before the first pass: %s (%d programs, min of %d) ===@.@."
    name r.programs runs;
  Format.printf "%-16s %12s %14s@." "stage" "ms" "minor words";
  List.iter2
    (fun stage c ->
      Format.printf "%-16s %12.3f %14.0f@." stage (c.sc_ns /. 1e6) c.sc_minor)
    stages r.cells;
  Format.printf "%-16s %12d units, %.0f ns/unit@." "inline work" r.inline_work
    (per_work (inline_ns r) r.inline_work);
  Format.printf "%-16s %12.0f ns/unit (dbds)@." "classic median"
    (classic_median r);
  Format.printf "%-16s %12.3f %14.0f  (%d rounds, %d candidates)@." "simulate"
    (r.simulate.sc_ns /. 1e6) r.simulate.sc_minor r.rounds r.candidates;
  Format.printf "@.%-16s %8s %10s %12s %10s %14s  (dbds)@." "row" "runs" "units"
    "ms" "idle ms" "minor words";
  List.iter
    (fun (name, row) ->
      Format.printf "%-16s %8d %10d %12.3f %10.3f %14.0f@." name row.runs
        row.work (row.ns /. 1e6) (row.idle /. 1e6) row.minor)
    r.rows

let json_corpus name r =
  let stage_entry stage c =
    Printf.sprintf
      "        { \"stage\": %S, \"ns\": %.0f, \"minor_words\": %.0f }" stage
      c.sc_ns c.sc_minor
  in
  let row_entry (name, row) =
    Printf.sprintf
      "        { \"row\": %S, \"runs\": %d, \"work\": %d, \"ns\": %.0f, \
       \"idle_ns\": %.0f, \"ns_per_work\": %.1f, \"minor_words\": %.0f }"
      name row.runs row.work row.ns row.idle (per_work row.ns row.work)
      row.minor
  in
  Printf.sprintf
    "    {\n\
    \      \"corpus\": %S,\n\
    \      \"programs\": %d,\n\
    \      \"stages\": [\n%s\n      ],\n\
    \      \"inline_work\": %d,\n\
    \      \"inline_ns_per_work\": %.1f,\n\
    \      \"rows\": [\n%s\n      ],\n\
    \      \"classic_median_ns_per_work\": %.1f,\n\
    \      \"simulate\": { \"ns\": %.0f, \"minor_words\": %.0f, \"rounds\": \
     %d, \"candidates\": %d }\n\
    \    }"
    name r.programs
    (String.concat ",\n" (List.map2 stage_entry stages r.cells))
    r.inline_work
    (per_work (inline_ns r) r.inline_work)
    (String.concat ",\n" (List.map row_entry r.rows))
    (classic_median r) r.simulate.sc_ns r.simulate.sc_minor r.rounds
    r.candidates

(* ------------------------------------------------------------------ *)
(* The service's cold path                                             *)
(* ------------------------------------------------------------------ *)

(* Programs of perfbench's cold request stream the block covers. *)
let cold_programs = 60

(* Per stage of [Cold.stages]: the fastest of [runs] runs (after one
   warm-up) in ns per function, and the minor words per function. *)
let measure_cold_path fns =
  ignore (Cold.run_once fns);
  let all = List.init runs (fun _ -> Cold.run_once fns) in
  let n = float_of_int (Array.length fns) in
  List.mapi
    (fun i stage ->
      let ns = List.fold_left (fun b (ns, _) -> Float.min b ns.(i)) infinity all in
      (stage, ns /. n, (snd (List.hd all)).(i) /. n))
    Cold.stages

let print_cold_path fns rows =
  Format.printf
    "@.=== service cold path: %d functions of %d generated requests (min of %d) ===@.@."
    (Array.length fns) cold_programs runs;
  Format.printf "%-12s %12s %14s@." "stage" "us/fn" "minor words/fn";
  List.iter
    (fun (stage, ns, words) ->
      Format.printf "%-12s %12.1f %14.0f@." stage (ns /. 1e3) words)
    rows

let json_cold_path fns rows =
  Printf.sprintf
    "{\n\
    \    \"programs\": %d,\n\
    \    \"functions\": %d,\n\
    \    \"runs\": %d,\n\
    \    \"stages\": [\n%s\n    ]\n\
    \  }"
    cold_programs (Array.length fns) runs
    (String.concat ",\n"
       (List.map
          (fun (stage, ns, words) ->
            Printf.sprintf
              "      { \"stage\": %S, \"ns_per_fn\": %.0f, \
               \"minor_words_per_fn\": %.0f }"
              stage ns words)
          rows))

let () =
  let suites =
    List.map2
      (fun tag suite -> (tag, suite, measure_suite suite))
      fig_tags Workloads.Registry.all
  in
  List.iter (fun (tag, suite, rows) -> print_suite tag suite rows) suites;
  let geomean = dbds_over_baseline_geomean suites in
  Format.printf "@.dbds/baseline, geomean over all programs: %.3f@." geomean;
  let before =
    List.map (fun (name, sources) -> (name, measure_corpus sources)) (corpora ())
  in
  List.iter (fun (name, r) -> print_corpus name r) before;
  let cold_fns = Cold.functions ~programs:cold_programs in
  let cold = measure_cold_path cold_fns in
  print_cold_path cold_fns cold;
  let path = "BENCH_results.json" in
  let oc = open_out path in
  Printf.fprintf oc
    "{\n  \"cores\": %d,\n  \"unit\": \"ns_per_compile\",\n  \
     \"dbds_over_baseline_geomean\": %.3f,\n  \"perf\": [\n%s\n  ],\n  \
     \"before_first_pass\": {\n    \"runs\": %d,\n    \"corpora\": [\n%s\n    \
     ]\n  },\n  \"service_cold_path\": %s\n}\n"
    (Ir.Parallel.default_jobs ()) geomean
    (String.concat ",\n"
       (List.map (fun (tag, suite, rows) -> json_suite tag suite rows) suites))
    runs
    (String.concat ",\n"
       (List.map (fun (name, r) -> json_corpus name r) before))
    (json_cold_path cold_fns cold);
  close_out oc;
  Format.printf "@.wrote %s@." path
