(** What is left of the tiered VM: one profile → compile → run entry.

    The first {!run_full} interprets the tier-0 program with a branch
    profile attached, then compiles a copy under {!Dbds.Config.dbds}
    with the recorded probabilities ({!Interp.Machine.profile_guided},
    the step [dbdsc --profile-runs] takes).  Every later {!run_full}
    interprets the compiled copy.  Heap and globals are fresh on every
    run. *)

type t

(** An engine over [tier0], which it never mutates. *)
val create : Ir.Program.t -> t

(** One program execution: the result, the run's interpreter statistics
    and the final globals, sorted by name. *)
val run_full :
  t ->
  args:int array ->
  Interp.Machine.value option
  * Interp.Machine.stats
  * (string * Interp.Machine.value) list

(** The compile failures the driver contained, in its order. *)
val finish : t -> Dbds.Driver.failure list
