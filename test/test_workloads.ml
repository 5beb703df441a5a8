(** Workload suite tests: every benchmark compiles, verifies, terminates
    with a stable result, and the suites exhibit the structural properties
    the evaluation depends on (merges to duplicate, agreement across
    configurations). *)

open Helpers

let all_benchmarks () =
  List.concat_map
    (fun s ->
      List.map
        (fun b -> (s.Workloads.Suite.suite_name, b))
        s.Workloads.Suite.benchmarks)
    Workloads.Registry.all

let test_registry_complete () =
  Alcotest.(check int) "four suites" 4 (List.length Workloads.Registry.all);
  Alcotest.(check int) "paper benchmark counts" (10 + 12 + 10 + 14)
    (List.fold_left
       (fun n s -> n + List.length s.Workloads.Suite.benchmarks)
       0 Workloads.Registry.all);
  List.iter2
    (fun suite figure ->
      Alcotest.(check string)
        (suite.Workloads.Suite.suite_name ^ " figure")
        figure suite.Workloads.Suite.figure)
    Workloads.Registry.all
    [ "Figure 5"; "Figure 6"; "Figure 7"; "Figure 8" ]

let test_all_compile_and_verify () =
  List.iter
    (fun (suite, b) ->
      match Lang.Frontend.compile b.Workloads.Suite.source with
      | prog -> check_program_verifies prog
      | exception Lang.Frontend.Error msg ->
          Alcotest.failf "%s/%s does not compile: %s" suite
            b.Workloads.Suite.name msg)
    (all_benchmarks ())

let test_all_run_deterministically () =
  List.iter
    (fun (suite, b) ->
      let run () =
        let prog = Lang.Frontend.compile b.Workloads.Suite.source in
        let result, _ =
          Interp.Machine.run ~fuel:50_000_000 prog ~args:b.Workloads.Suite.args
        in
        Interp.Machine.result_to_string result
      in
      Alcotest.(check string)
        (Printf.sprintf "%s/%s deterministic" suite b.Workloads.Suite.name)
        (run ()) (run ()))
    (all_benchmarks ())

let test_all_have_merges () =
  (* Every benchmark must offer the duplication transformation something
     to look at. *)
  List.iter
    (fun (suite, b) ->
      let prog = Lang.Frontend.compile b.Workloads.Suite.source in
      let merges = ref 0 in
      Ir.Program.iter_functions prog (fun g ->
          Ir.Graph.iter_blocks g (fun bid ->
              if Ir.Graph.pred_count g bid >= 2 then incr merges));
      if !merges = 0 then
        Alcotest.failf "%s/%s has no merges" suite b.Workloads.Suite.name)
    (all_benchmarks ())

let test_configurations_agree () =
  (* The evaluation's sanity invariant: baseline, DBDS and dupalot compute
     the same result on every benchmark (spot-check one per suite; the
     full sweep runs in bench/main.exe). *)
  List.iter
    (fun s ->
      let b = List.hd s.Workloads.Suite.benchmarks in
      let result config =
        let prog = Lang.Frontend.compile b.Workloads.Suite.source in
        let _ = Dbds.Driver.optimize_program_report ~config prog in
        let r, _ =
          Interp.Machine.run ~fuel:50_000_000 prog ~args:b.Workloads.Suite.args
        in
        Interp.Machine.result_to_string r
      in
      let base = result Dbds.Config.off in
      Alcotest.(check string)
        (b.Workloads.Suite.name ^ ": dbds agrees")
        base
        (result Dbds.Config.dbds);
      Alcotest.(check string)
        (b.Workloads.Suite.name ^ ": dupalot agrees")
        base
        (result Dbds.Config.dupalot))
    Workloads.Registry.all

let test_progen_deterministic () =
  let a = Workloads.Progen.generate ~seed:1234 () in
  let b = Workloads.Progen.generate ~seed:1234 () in
  Alcotest.(check string) "same seed, same program" a b;
  let c = Workloads.Progen.generate ~seed:1235 () in
  Alcotest.(check bool) "different seed differs" true (a <> c)

let suite =
  [
    test "registry complete" test_registry_complete;
    test "all benchmarks compile and verify" test_all_compile_and_verify;
    test "all benchmarks run deterministically" test_all_run_deterministically;
    test "all benchmarks have merges" test_all_have_merges;
    test "configurations agree" test_configurations_agree;
    test "progen deterministic" test_progen_deterministic;
  ]
