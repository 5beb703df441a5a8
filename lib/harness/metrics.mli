(** Measurement records and derived statistics for the evaluation
    harness.  The three metrics mirror paper §6.1:

    - {e peak performance}: total cost-model cycles charged by the
      interpreter (with the i-cache model active) running the benchmark's
      workload — lower is better, reported as speedup vs. baseline;
    - {e compile time}: the deterministic work units the optimizer's
      passes charged (wall-clock is timed by [bench/main.exe] and
      perfbench);
    - {e code size}: cost-model size of all optimized functions. *)

type measurement = {
  peak_cycles : float;
  code_size : int;
  optimizer_work : int;
      (** the work units the optimizer's own passes charged — the one
          compile-effort number *)
  ir_digest : string;
      (** hex md5 of the optimized IR, every function printed in name
          order — the compiled output's fingerprint *)
  duplications : int;
  contained : (string * int) list;
      (** contained per-function optimizer failures, per crash site —
          a degraded-but-complete compilation, never silent *)
  passes : (string * Opt.Phase.pass_stat) list;
      (** per-pass instrumentation from the pass manager, sorted by
          pass name; all columns except wall time are deterministic *)
  analysis_hits : int;  (** {!Ir.Analyses} cache hits during compile *)
  analysis_misses : int;  (** ... and misses (= real recomputes) *)
  run_icache_hits : int;  (** interpreter i-cache hits during the run *)
  run_icache_misses : int;  (** ... and misses (each charges a penalty) *)
  result_value : string;  (** for cross-configuration sanity checking *)
}

(** Total contained failures across all sites. *)
val contained_total : measurement -> int

type row = {
  benchmark : string;
  baseline : measurement;
  dbds : measurement;
  dupalot : measurement;
}

(** Relative change against a base value, as a percentage. *)
val pct_change : base:float -> float -> float

(** Peak performance delta (%); positive = faster than baseline. *)
val peak_delta : baseline:measurement -> measurement -> float

(** Compile-effort delta (%) of [optimizer_work]; positive = more work
    than baseline. *)
val compile_delta : baseline:measurement -> measurement -> float
val size_delta : baseline:measurement -> measurement -> float

(** One benchmark × tier cell of the adversarial workload-lab
    comparison ({!Tiercompare}). *)
type tier_cell = {
  tc_tier : string;
  tc_peak_cycles : float;
  tc_code_size : int;
}

(** One adversarial benchmark's row: a cell per tier, in
    {!Tiercompare.tiers} order. *)
type tier_row = {
  tc_suite : string;
  tc_benchmark : string;
  tc_cells : tier_cell list;
}

(** Geometric mean of percentage deltas: geomean of the ratios
    (1 + d/100) minus one, as the paper's tables report. *)
val geomean_pct : float list -> float
