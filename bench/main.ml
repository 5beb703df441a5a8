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
    generated set, beside the classic passes' ns per work unit.
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

(* The stages from source text to the first classic pass, timed one by
   one over a corpus: parse+typecheck, SSA lowering, the frontend
   verifier and the inliner.  Per stage: the corpus total of the
   fastest of [runs] runs, and the minor words one run allocates. *)
let stages = [ "parse+typecheck"; "lower"; "verify"; "inline" ]

let classic_passes =
  [ "canonicalize"; "simplify-cfg"; "sccp"; "gvn"; "condelim"; "readelim";
    "pea"; "dce" ]

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

type corpus_report = {
  programs : int;
  cells : stage_cell list;  (** in [stages] order *)
  inline_work : int;
  pass_rows : (string * int * float) list;
      (** classic pass, its work units and fastest corpus ns, under dbds *)
}

(* One timed run of the four stages over every program: per stage the
   summed ns and minor words, and the inliner's work. *)
let time_stages sources =
  let ns = Array.make 4 0.0 and minor = Array.make 4 0.0 and work = ref 0 in
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
              | Error m -> failwith m));
      let ctx = Opt.Phase.create ~program:prog () in
      timed 3 (fun () -> ignore (Opt.Inline.inline_program ctx prog));
      work := !work + ctx.Opt.Phase.work)
    sources;
  (ns, minor, !work)

(* One dbds compile of every program: the classic passes' rows of the
   merged per-pass table, as (work, seconds). *)
let time_passes sources =
  let rows = Hashtbl.create 16 in
  List.iter
    (fun src ->
      let prog = Lang.Frontend.compile src in
      let r =
        Dbds.Driver.optimize_program_report ~config:Dbds.Config.dbds ~jobs:1
          prog
      in
      List.iter
        (fun (name, (st : Opt.Phase.pass_stat)) ->
          let w, t =
            Option.value ~default:(0, 0.0) (Hashtbl.find_opt rows name)
          in
          Hashtbl.replace rows name
            (w + st.Opt.Phase.pwork, t +. st.Opt.Phase.time_s))
        (Opt.Phase.pass_table r.Dbds.Driver.rep_ctx))
    sources;
  List.map
    (fun name -> (name, Option.value ~default:(0, 0.0) (Hashtbl.find_opt rows name)))
    classic_passes

(* [runs] timed runs after one warm-up: per stage and per classic pass,
   the fastest run's ns. *)
let measure_corpus sources =
  ignore (time_stages sources);
  let stage_runs = List.init runs (fun _ -> time_stages sources) in
  let pass_runs = List.init runs (fun _ -> time_passes sources) in
  let _, minor, work = List.hd stage_runs in
  let fastest f = List.fold_left (fun b run -> Float.min b (f run)) infinity in
  {
    programs = List.length sources;
    cells =
      List.mapi
        (fun i _ ->
          {
            sc_ns = fastest (fun (ns, _, _) -> ns.(i)) stage_runs;
            sc_minor = minor.(i);
          })
        stages;
    inline_work = work;
    pass_rows =
      List.map
        (fun name ->
          let work = fst (List.assoc name (List.hd pass_runs)) in
          let ns = fastest (fun run -> snd (List.assoc name run) *. 1e9) pass_runs in
          (name, work, ns))
        classic_passes;
  }

let per_work ns work = if work = 0 then 0.0 else ns /. float_of_int work

let classic_median r =
  let a =
    Array.of_list
      (List.filter_map
         (fun (_, w, ns) -> if w > 0 then Some (per_work ns w) else None)
         r.pass_rows)
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
    (classic_median r)

let json_corpus name r =
  let stage_entry stage c =
    Printf.sprintf
      "        { \"stage\": %S, \"ns\": %.0f, \"minor_words\": %.0f }" stage
      c.sc_ns c.sc_minor
  in
  let pass_entry (pass, w, ns) =
    Printf.sprintf
      "        { \"pass\": %S, \"work\": %d, \"ns\": %.0f, \"ns_per_work\": \
       %.1f }"
      pass w ns (per_work ns w)
  in
  Printf.sprintf
    "    {\n\
    \      \"corpus\": %S,\n\
    \      \"programs\": %d,\n\
    \      \"stages\": [\n%s\n      ],\n\
    \      \"inline_work\": %d,\n\
    \      \"inline_ns_per_work\": %.1f,\n\
    \      \"classic_passes\": [\n%s\n      ],\n\
    \      \"classic_median_ns_per_work\": %.1f\n\
    \    }"
    name r.programs
    (String.concat ",\n" (List.map2 stage_entry stages r.cells))
    r.inline_work
    (per_work (inline_ns r) r.inline_work)
    (String.concat ",\n" (List.map pass_entry r.pass_rows))
    (classic_median r)

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
