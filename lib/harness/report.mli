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

val pp_suite : Format.formatter -> suite_summary -> unit

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

val headline_of : suite_summary list -> headline
val pp_headline : Format.formatter -> headline -> unit
