(** Profile-guided compilation: interpret with profiling, feed the
    observed branch frequencies back into the IR, then compile with DBDS
    — the flow of [dbdsc --profile-runs] (the paper's probabilities come
    from HotSpot's interpreter profiles, §5.3).

    The program has no [@prob] annotations at all; the profile makes the
    idle-task dispatch hot enough for the trade-off tier to duplicate.

    Run with: [dune exec examples/profile_guided.exe] *)

let source =
  {|
  class Task { int kind; int work; }
  global int scheduled;
  int main(int n) {
    int seed = 47;
    int acc = 0;
    int i = 0;
    while (i < n) {
      seed = (seed * 139 + 61) & 32767;
      Task t;
      if ((seed >> 6) % 8 < 6) { t = new Task(0, 1); } else { t = new Task(seed % 3 + 1, seed & 31); }
      int k = t.kind;
      int r;
      if (k == 0) { r = t.work; } else { r = t.work * k + 2; }
      acc = (acc + r) & 16777215;
      scheduled = scheduled + 1;
      i = i + 1;
    }
    return acc + scheduled;
  }
  |}

let () =
  (* Tier 1: interpret with a profile attached (the warmup run), then
     feed the observed frequencies back into the IR. *)
  let prog = Lang.Frontend.compile source in
  let profile, (warmup_result, _, _) =
    Interp.Machine.profile_guided ~runs:1 prog ~args:[| 2000 |]
  in
  Format.printf "tier 1 (interpreter): result %s, %d branch samples@."
    (Interp.Machine.result_to_string warmup_result)
    (Interp.Profile.samples profile);
  let g = Option.get (Ir.Program.find_function prog "main") in
  Format.printf "@.observed branch probabilities:@.";
  Ir.Graph.iter_blocks g (fun bid ->
      match Ir.Graph.term g bid with
      | Ir.Types.Branch { prob; _ } ->
          Format.printf "  b%d: %.3f@." bid prob
      | _ -> ());

  (* Tier 2: compile with DBDS using the real profile. *)
  let ctx = Opt.Phase.create ~program:prog () in
  let stats = Dbds.Driver.optimize_graph ctx g in
  Format.printf "@.tier 2 (DBDS): %a@." Dbds.Driver.pp_stats stats;

  let compiled_result, run_stats = Interp.Machine.run prog ~args:[| 2000 |] in
  Format.printf
    "compiled: result %s (matches: %b), %d allocations at run time@."
    (Interp.Machine.result_to_string compiled_result)
    (compiled_result = warmup_result)
    run_stats.Interp.Machine.allocations;
  if stats.Dbds.Driver.duplications_performed > 0 then
    Format.printf
      "the profiled hot dispatch was duplicated and its task record \
       scalar-replaced.@."
