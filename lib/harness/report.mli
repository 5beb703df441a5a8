(** Paper-style table rendering: one row per benchmark with the three
    metrics for DBDS and dupalot normalized to baseline, plus the
    geometric-mean footer matching the tables under Figures 5–8. *)

type suite_summary = {
  suite_name : string;
  figure : string;
  rows : Metrics.row list;
  geo_peak_dbds : float;
  geo_peak_dupalot : float;
  geo_compile_dbds : float;
  geo_compile_dupalot : float;
  geo_size_dbds : float;
  geo_size_dupalot : float;
}

val summarize : Workloads.Suite.t -> Metrics.row list -> suite_summary

(** Aggregated per-pass instrumentation (DBDS configuration) plus the
    analysis-cache hit rate, summed over the suite's rows.  Included in
    {!pp_suite}. *)
val pp_passes : Format.formatter -> suite_summary -> unit

val pp_suite : Format.formatter -> suite_summary -> unit

(** The headline aggregate of the abstract: mean peak-performance
    increase, mean code-size increase, mean compile-time increase over
    every benchmark of every suite, plus the best individual speedup
    and the optimizer's own work increase. *)
type headline = {
  mean_peak : float;
  mean_size : float;
  mean_compile : float;
  optimizer_work : float;
      (** % change of the dbds configuration's summed optimizer work
          over the baseline's, without the backend charge *)
  baseline_work : int;  (** the baseline's summed optimizer work units *)
  dbds_work : int;  (** the dbds configuration's summed optimizer work *)
  max_peak : float;
  max_peak_benchmark : string;
}

val headline_of : suite_summary list -> headline
val pp_headline : Format.formatter -> headline -> unit
