(** The experiment definitions: one entry per paper artifact (see the
    experiment index in DESIGN.md §4), each able to regenerate its rows.
    [bin/experiments.exe] prints all of them, pinned in
    [test/golden/experiments.expected]. *)

(** {2 Figures 5–8} *)

val run_all_figures : unit -> Report.suite_summary list

(** {2 Ablation: backtracking vs simulation compile time (paper §3.1)} *)

type backtracking_row = {
  bt_benchmark : string;
  dbds_work : int;
  backtracking_work : int;
}

(** Compare the optimizer work of DBDS and backtracking on every paper
    program, one row each in {!Workloads.Registry.all} order. *)
val run_backtracking_ablation : unit -> backtracking_row list

(** One row per program, then the summed work of each column and the
    geomean of the per-program ratios beside the paper's ~10x. *)
val pp_backtracking : Format.formatter -> backtracking_row list -> unit

(** {2 Ablation: DBDS iteration count (paper §5.2)} *)

type iteration_row = {
  it_iterations : int;
  it_peak : float;  (** geomean peak delta vs baseline *)
  it_compile : float;
  it_size : float;
}

(** DBDS at 1–4 iterations over the micro suite. *)
val run_iteration_ablation : unit -> iteration_row list

val pp_iterations : Format.formatter -> iteration_row list -> unit

(** {2 Ablation: trade-off constants (paper §5.4)} *)

type budget_row = {
  bd_label : string;
  bd_peak : float;
  bd_size : float;
  bd_duplications : int;
}

(** Six benefit-scale / size-budget pairs over the micro suite. *)
val run_budget_ablation : unit -> budget_row list
val pp_budget : Format.formatter -> budget_row list -> unit

(** {2 Extension: path-based duplication (paper §8 future work)} *)

type path_row = {
  pd_suite : string;
  pd_peak_plain : float;
  pd_peak_paths : float;
  pd_compile_plain : float;
  pd_compile_paths : float;
  pd_size_plain : float;
  pd_size_paths : float;
}

val run_path_ablation : unit -> path_row list
val pp_path_ablation : Format.formatter -> path_row list -> unit

(** {2 Figure 4: the node cost model example} *)

(** (estimated cycles before, after) duplication for the Figure 4
    program. *)
val figure4 : unit -> float * float

val pp_figure4 : Format.formatter -> float * float -> unit
