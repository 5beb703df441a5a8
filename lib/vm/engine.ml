(** The tiered VM's one profile → compile → run entry — see the
    interface. *)

type t = {
  tier0 : Ir.Program.t;  (** never mutated *)
  mutable compiled : Ir.Program.t option;
  mutable failures : Dbds.Driver.failure list;
}

let create tier0 = { tier0; compiled = None; failures = [] }

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

let finish t = t.failures
