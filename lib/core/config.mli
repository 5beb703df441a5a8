(** DBDS configuration: the trade-off constants of paper §5.4 and the
    evaluation configurations of §6.1. *)

type t = {
  benefit_scale : float;  (** BS; the paper derived 256 empirically *)
  size_budget : float;  (** IB; 1.5 = max 150% of the initial code size *)
  max_unit_size : int;  (** MS; the VM's installed-code limit *)
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
  passes : Opt.Spec.t;
      (** the pipeline a compile runs ([dbdsc --passes]), checked
          against {!Opt.Spec.schema}.  The duplication tiers carry their
          own parameters as spec options: [iters] (the §5.2 iteration
          count), [threshold] and, on [dbds] and [dupalot], [paths] (the
          §8 extension: at most that many merges per candidate) *)
}

(** The evaluation pipelines of §6.1: inline, the classic
    optimizations to a fixpoint ({!Opt.Pipeline.fix_group}), then
    duplication tier [tier] with options [opts] (the schema's defaults
    for the rest).  [backtracking] and [condelim_dup] are followed by a
    second fixpoint group; [None] is the baseline, with no tier.
    @raise Invalid_argument when {!Opt.Spec.check} refuses [opts]. *)
val pipeline : ?opts:(string * string) list -> string option -> Opt.Spec.t

(** BS=256, IB=1.5, MS=65536, containment on, and the DBDS pipeline
    [inline,fix(fix(canon,simplify,gvn,condelim,readelim,pea,dce),sccp),dbds]
    (in checked form, every [fix] carries [rounds=8] and [dbds]
    [iters=3,paths=1,threshold=20]). *)
val default : t

(** The evaluation configurations of §6.1: {!default} with the pipeline
    swapped.  [off] stops after the classic fixpoint group; [dupalot]
    runs the dupalot tier in place of [dbds]; [backtracking] and
    [condelim_dup] run their tier followed by a second fixpoint group. *)
val dbds : t

val off : t
val dupalot : t
val backtracking : t
val condelim_dup : t

(** DBDS with the §8 path extension: [dbds{paths=3}]. *)
val dbds_paths : t

(** Every accepted [dbdsc -m] spelling, with the configuration it
    names. *)
val named : (string * t) list

(** One space-separated [key=value] line covering every knob that shapes
    the produced IR (crash-bundle header, service protocol, and the
    artifact-store digest all share it).  Knobs without a pipeline
    effect — containment, fault plan, bundle dir — are excluded so that
    configs differing only there collide in the compilation cache. *)
val to_line : t -> string

(** Parse a {!to_line} rendering.  Missing keys fall back to {!default}
    (old crash bundles predate some keys); a token without [=], an
    unknown or repeated key (a key a later version removed is unknown),
    or a value that does not parse — a [passes=] spec that fails
    {!Opt.Spec.of_string} included — is an [Error], never a silent
    default. *)
val of_line : string -> (t, string) result

(** DBDS with paranoid between-phase verification enabled. *)
val paranoid : t
