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

let contained_total m = List.fold_left (fun acc (_, n) -> acc + n) 0 m.contained

type row = {
  benchmark : string;
  baseline : measurement;
  dbds : measurement;
  dupalot : measurement;
}

(** Relative change of [v] against [base], as a percentage; positive =
    larger than baseline. *)
let pct_change ~base v = (v /. base -. 1.0) *. 100.0

(** Peak performance delta (%); positive = faster than baseline (the
    paper plots speedups as positive). *)
let peak_delta ~baseline m =
  (baseline.peak_cycles /. m.peak_cycles -. 1.0) *. 100.0

let compile_delta ~baseline m =
  pct_change
    ~base:(float_of_int (max baseline.optimizer_work 1))
    (float_of_int m.optimizer_work)

let size_delta ~baseline m =
  pct_change
    ~base:(float_of_int (max baseline.code_size 1))
    (float_of_int m.code_size)

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

(** Geometric mean of percentage deltas: geomean of the ratios (1 + d/100)
    minus one, as the paper's tables report. *)
let geomean_pct deltas =
  match deltas with
  | [] -> 0.0
  | _ ->
      let log_sum =
        List.fold_left (fun acc d -> acc +. log (1.0 +. (d /. 100.0))) 0.0 deltas
      in
      (exp (log_sum /. float_of_int (List.length deltas)) -. 1.0) *. 100.0
