(** Paper-style table rendering: one row per benchmark with the three
    metrics for DBDS and dupalot normalized to baseline, plus the
    geometric-mean footer matching the tables under Figures 5–8. *)

open Metrics

type suite_summary = {
  suite_name : string;
  figure : string;
  rows : row list;
  geo_peak_dbds : float;
  geo_peak_dupalot : float;
  geo_compile_dbds : float;
  geo_compile_dupalot : float;
  geo_size_dbds : float;
  geo_size_dupalot : float;
}

let summarize (suite : Workloads.Suite.t) rows =
  let collect f = List.map f rows in
  {
    suite_name = suite.Workloads.Suite.suite_name;
    figure = suite.Workloads.Suite.figure;
    rows;
    geo_peak_dbds =
      geomean_pct (collect (fun r -> peak_delta ~baseline:r.baseline r.dbds));
    geo_peak_dupalot =
      geomean_pct (collect (fun r -> peak_delta ~baseline:r.baseline r.dupalot));
    geo_compile_dbds =
      geomean_pct (collect (fun r -> compile_delta ~baseline:r.baseline r.dbds));
    geo_compile_dupalot =
      geomean_pct
        (collect (fun r -> compile_delta ~baseline:r.baseline r.dupalot));
    geo_size_dbds =
      geomean_pct (collect (fun r -> size_delta ~baseline:r.baseline r.dbds));
    geo_size_dupalot =
      geomean_pct (collect (fun r -> size_delta ~baseline:r.baseline r.dupalot));
  }

(* Degraded-but-complete runs must be visible in benchmark output: any
   contained optimizer failure is listed per benchmark, configuration
   and crash site. *)
let pp_contained ppf rows =
  List.iter
    (fun r ->
      List.iter
        (fun (cfg, m) ->
          if contained_total m > 0 then
            Fmt.pf ppf "  ! %s/%s: %d contained optimizer failure(s): %a@\n"
              r.benchmark cfg (contained_total m)
              Fmt.(
                list ~sep:(any ", ") (fun ppf (site, n) ->
                    pf ppf "%s x%d" site n))
              m.contained)
        [ ("baseline", r.baseline); ("dbds", r.dbds); ("dupalot", r.dupalot) ])
    rows

(* Aggregated per-pass instrumentation over a suite's rows (DBDS
   configuration), merged in pass-name order; immutable accumulation so
   the measurements' own stat records are never mutated. *)
let pp_passes ppf (s : suite_summary) =
  let merge acc (name, (st : Opt.Phase.pass_stat)) =
    let runs, fired, work, dsize =
      match List.assoc_opt name acc with
      | Some t -> t
      | None -> (0, 0, 0, 0)
    in
    (name,
     ( runs + st.Opt.Phase.runs,
       fired + st.Opt.Phase.fired,
       work + st.Opt.Phase.pwork,
       dsize + st.Opt.Phase.size_delta ))
    :: List.remove_assoc name acc
  in
  let table =
    List.fold_left (fun acc r -> List.fold_left merge acc r.dbds.passes) []
      s.rows
    |> List.sort (fun (a, _) (b, _) -> compare (a : string) b)
  in
  if table <> [] then begin
    Fmt.pf ppf "per-pass (dbds configuration, summed over the suite):@\n";
    Fmt.pf ppf "  %-14s %6s %6s %10s %8s@\n" "pass" "runs" "fired" "work"
      "dsize";
    List.iter
      (fun (name, (runs, fired, work, dsize)) ->
        Fmt.pf ppf "  %-14s %6d %6d %10d %8d@\n" name runs fired work dsize)
      table;
    let hits, misses =
      List.fold_left
        (fun (h, m) r -> (h + r.dbds.analysis_hits, m + r.dbds.analysis_misses))
        (0, 0) s.rows
    in
    if hits + misses > 0 then
      Fmt.pf ppf "  analysis cache: %d hits, %d misses (%.1f%% hit rate)@\n"
        hits misses
        (100.0 *. float_of_int hits /. float_of_int (hits + misses))
  end

(* Run-time i-cache behaviour, summed per configuration over the
   suite's rows — the mechanism behind dupalot's peak regressions
   (more duplicated code, more modelled misses). *)
let pp_icache ppf rows =
  let totals =
    List.map
      (fun (cfg, pick) ->
        let hits, misses =
          List.fold_left
            (fun (h, m) r ->
              let mm = pick r in
              (h + mm.run_icache_hits, m + mm.run_icache_misses))
            (0, 0) rows
        in
        (cfg, hits, misses))
      [
        ("baseline", fun r -> r.baseline);
        ("dbds", fun r -> r.dbds);
        ("dupalot", fun r -> r.dupalot);
      ]
  in
  if List.exists (fun (_, h, m) -> h + m > 0) totals then begin
    Fmt.pf ppf "run i-cache (block model, summed over the suite):@\n";
    List.iter
      (fun (cfg, hits, misses) ->
        let total = hits + misses in
        Fmt.pf ppf "  %-10s %10d hits %9d misses (%5.1f%% hit rate)@\n" cfg
          hits misses
          (if total = 0 then 0.0
           else 100.0 *. float_of_int hits /. float_of_int total))
      totals
  end

let pp_suite ppf (s : suite_summary) =
  Fmt.pf ppf "%s: %s (normalized to baseline; peak higher is better,@\n"
    s.figure s.suite_name;
  Fmt.pf ppf "compile time and code size lower is better)@\n";
  Fmt.pf ppf
    "%-14s | %22s | %22s | %22s@\n" "benchmark" "peak perf %" "compile time %"
    "code size %";
  Fmt.pf ppf "%-14s | %10s %11s | %10s %11s | %10s %11s@\n" "" "DBDS" "dupalot"
    "DBDS" "dupalot" "DBDS" "dupalot";
  Fmt.pf ppf "%s@\n" (String.make 88 '-');
  List.iter
    (fun r ->
      Fmt.pf ppf "%-14s | %+10.2f %+11.2f | %+10.2f %+11.2f | %+10.2f %+11.2f@\n"
        r.benchmark
        (peak_delta ~baseline:r.baseline r.dbds)
        (peak_delta ~baseline:r.baseline r.dupalot)
        (compile_delta ~baseline:r.baseline r.dbds)
        (compile_delta ~baseline:r.baseline r.dupalot)
        (size_delta ~baseline:r.baseline r.dbds)
        (size_delta ~baseline:r.baseline r.dupalot))
    s.rows;
  Fmt.pf ppf "%s@\n" (String.make 88 '-');
  Fmt.pf ppf "%-14s | %+10.2f %+11.2f | %+10.2f %+11.2f | %+10.2f %+11.2f@\n"
    "geomean" s.geo_peak_dbds s.geo_peak_dupalot s.geo_compile_dbds
    s.geo_compile_dupalot s.geo_size_dbds s.geo_size_dupalot;
  pp_icache ppf s.rows;
  pp_passes ppf s;
  pp_contained ppf s.rows

(** The headline aggregate of the abstract: mean peak-performance
    increase, mean code-size increase and mean optimizer-work increase
    over every benchmark of every suite, plus the best individual
    speedup and the summed optimizer work of both configurations. *)
type headline = {
  mean_peak : float;
  mean_size : float;
  mean_work : float;
      (** geomean over programs of the dbds configuration's optimizer
          work delta *)
  baseline_work : int;  (** the baseline's summed optimizer work units *)
  dbds_work : int;  (** the dbds configuration's summed optimizer work *)
  max_peak : float;
  max_peak_benchmark : string;
}

let headline_of summaries =
  let all_rows = List.concat_map (fun s -> s.rows) summaries in
  let peaks =
    List.map (fun r -> (peak_delta ~baseline:r.baseline r.dbds, r.benchmark)) all_rows
  in
  let max_peak, max_peak_benchmark =
    List.fold_left
      (fun (bm, bn) (m, n) -> if m > bm then (m, n) else (bm, bn))
      (neg_infinity, "-") peaks
  in
  let summed_work config =
    List.fold_left
      (fun acc r -> acc + (config r).Metrics.optimizer_work)
      0 all_rows
  in
  let baseline_work = summed_work (fun r -> r.baseline) in
  let dbds_work = summed_work (fun r -> r.dbds) in
  {
    mean_peak = geomean_pct (List.map fst peaks);
    mean_size =
      geomean_pct
        (List.map (fun r -> size_delta ~baseline:r.baseline r.dbds) all_rows);
    mean_work =
      geomean_pct
        (List.map (fun r -> compile_delta ~baseline:r.baseline r.dbds) all_rows);
    baseline_work;
    dbds_work;
    max_peak;
    max_peak_benchmark;
  }

let pp_headline ppf h =
  Fmt.pf ppf
    "headline (DBDS vs baseline over all suites):@\n\
    \  mean peak performance:  %+.2f%%   (paper: +5.89%%)@\n\
    \  best peak performance:  %+.2f%% on %s (paper: up to ~40%%)@\n\
    \  mean code size:         %+.2f%%   (paper: +9.93%%)@\n\
    \  mean optimizer work:    %+.2f%%   (geomean per program; paper: +18.44%% \
     compile time, which includes a JIT backend this substrate lacks)@\n\
    \  optimizer work:         %+.2f%%   (baseline %d, dbds %d units; summed, \
     no backend charge)@\n"
    h.mean_peak h.max_peak h.max_peak_benchmark h.mean_size h.mean_work
    (pct_change
       ~base:(float_of_int (max h.baseline_work 1))
       (float_of_int h.dbds_work))
    h.baseline_work h.dbds_work
