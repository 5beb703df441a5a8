(** DBDS configuration: the trade-off constants of paper §5.4 and the
    evaluation configurations of §6.1. *)

type mode =
  | Off  (** baseline: classic optimizations only, no duplication *)
  | Dbds  (** full simulate → trade-off → optimize pipeline *)
  | Dupalot
      (** simulation tier finds opportunities; every candidate with any
          benefit is duplicated, ignoring cost (paper's dupalot) *)
  | Backtracking
      (** Algorithm 1: tentatively duplicate, optimize, keep on progress,
          restore otherwise — the expensive strategy DBDS replaces *)
  | Condelim_dup
      (** conditional elimination through duplication (arXiv 1106.3478):
          duplicate every (merge, predecessor) pair where the duplicate's
          branch or a compare would fold, with no trade-off — the greedy
          single-optimization comparator of the workload lab *)

type t = {
  mode : mode;
  benefit_scale : float;  (** BS; the paper derived 256 empirically *)
  size_budget : float;  (** IB; 1.5 = max 150% of the initial code size *)
  max_unit_size : int;  (** MS; the VM's installed-code limit *)
  max_iterations : int;  (** iterative DBDS applications; paper uses 3 *)
  path_duplication : bool;
      (** §8 future-work extension: let the simulation continue through a
          straight chain of merges and apply the whole path as one
          candidate (up to [max_path_length] merges) *)
  max_path_length : int;
  containment : bool;
      (** contain per-function crashes: roll the graph back, record a
          structured failure, keep optimizing the remaining functions *)
  verify_between_phases : bool;
      (** paranoid mode: run the IR verifier after every phase /
          duplication and treat violations as contained crashes *)
  fault_plan : Faults.plan option;
      (** deterministic fault injection (testing); [None] in production *)
  bundle_dir : string option;
      (** write a replayable crash bundle here on every containment *)
  passes : Opt.Spec.t option;
      (** explicit pipeline spec ([dbdsc --passes]); [None] = the
          mode-derived default ({!Driver.default_spec}) *)
}

(** Mode [Dbds], BS=256, IB=1.5, MS=65536, 3 iterations, paths off,
    mode-derived pipeline, preservation contracts honored. *)
val default : t

val dbds : t
val off : t
val dupalot : t
val backtracking : t
val condelim_dup : t

(** DBDS with the §8 path extension enabled. *)
val dbds_paths : t

(** Every accepted spelling of a mode, for the command line and the
    wire line alike; a mode's first entry is its canonical name. *)
val mode_names : (string * mode) list

(** A mode's canonical name (its first entry in {!mode_names}). *)
val mode_to_string : mode -> string

val mode_of_string : string -> mode option

(** One space-separated [key=value] line covering every knob that shapes
    the produced IR (crash-bundle header, service protocol, and the
    artifact-store digest all share it).  Knobs without a pipeline
    effect — containment, fault plan, bundle dir — are excluded so that
    configs differing only there collide in the compilation cache. *)
val to_line : t -> string

(** Parse a {!to_line} rendering.  Missing keys fall back to {!default}
    (old crash bundles predate some keys); a token without [=], an
    unknown or repeated key (a key a later version removed is unknown),
    or a value that does not parse — a [passes=] spec included — is an
    [Error], never a silent default. *)
val of_line : string -> (t, string) result

(** DBDS with paranoid between-phase verification enabled. *)
val paranoid : t
