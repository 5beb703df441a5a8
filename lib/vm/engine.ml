(** What is left of the tiered VM: one profile → compile → run entry.

    The first {!run_full} interprets the tier-0 program with a branch
    profile attached, then compiles a copy under {!Dbds.Config.dbds}
    with the recorded probabilities ({!Interp.Machine.profile_guided},
    the step [dbdsc --profile-runs] takes).  Every later {!run_full}
    interprets the compiled copy.  Heap and globals are fresh on every
    run. *)

type t = {
  tier0 : Ir.Program.t;  (** never mutated *)
  mutable compiled : Ir.Program.t option;
  mutable failures : Dbds.Driver.failure list;
}

let create tier0 = { tier0; compiled = None; failures = [] }

(** One program execution: the result, the run's interpreter statistics
    and the final globals, sorted by name. *)
let run_full t ~args =
  match t.compiled with
  | Some program -> Interp.Machine.run_full program ~args
  | None ->
      let program = Ir.Program.copy t.tier0 in
      let _, run = Interp.Machine.profile_guided ~runs:1 program ~args in
      let report =
        Dbds.Driver.optimize_program_report ~config:Dbds.Config.dbds ~jobs:1
          program
      in
      t.failures <- report.Dbds.Driver.rep_failures;
      t.compiled <- Some program;
      run

(** The compile failures the driver contained, in its order. *)
let finish t = t.failures
