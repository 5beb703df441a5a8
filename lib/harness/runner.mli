(** Compiles and measures one benchmark under one configuration. *)

exception Benchmark_failed of string * string

(** Compile under [config], then execute the workload on the cost
    interpreter.  Fresh frontend output per call so configurations never
    share IR.  [jobs] fans the optimizer out over that many domains
    (default: all cores); results are identical for any value.  The
    recorded compile effort is the optimizer's own work units.
    @raise Benchmark_failed when compilation or execution fails. *)
val measure :
  ?jobs:int ->
  config:Dbds.Config.t ->
  Workloads.Suite.benchmark ->
  Metrics.measurement

(** Measure a benchmark under each labelled configuration, in order,
    through [measure] (default: {!measure} with [jobs]).
    @raise Benchmark_failed when a configuration computes a result other
    than the first one's. *)
val measure_agreeing :
  ?jobs:int ->
  ?measure:
    (config:Dbds.Config.t -> Workloads.Suite.benchmark -> Metrics.measurement) ->
  (string * Dbds.Config.t) list ->
  Workloads.Suite.benchmark ->
  (string * Metrics.measurement) list

(** Measure a benchmark under the three paper configurations, checking
    that all three compute the same result.
    @raise Benchmark_failed when the configurations disagree. *)
val run_benchmark :
  ?measure:
    (config:Dbds.Config.t -> Workloads.Suite.benchmark -> Metrics.measurement) ->
  Workloads.Suite.benchmark ->
  Metrics.row
