(** Tests for the §8 future-work extension: duplication over multiple
    merges along a path.

    The canonical shape is a nested conditional whose inner join jumps
    straight into the outer join:

    {v if (c1) { if (c2) { p = 1; } else { p = 2; } } else { p = 3; }
       return x / p; v}

    A single-level DST from an inner-branch predecessor stops at the
    inner join and sees nothing; only by continuing through the outer
    join does the divisor become the constant. *)

open Helpers
module G = Ir.Graph

let nested =
  {|
  int main(int x) {
    int p;
    if (x > 10) @0.8 {
      if (x > 100) @0.1 { p = 4; } else { p = 2; }
    } else {
      p = x % 7 + 3;
    }
    return x / p;
  }
  |}

(* DBDS with the tier options [opts]. *)
let dbds_with opts =
  {
    Dbds.Config.dbds with
    Dbds.Config.passes = Dbds.Config.pipeline ~opts (Some "dbds");
  }

let simulate ?paths prog =
  let g = Option.get (Ir.Program.find_function prog "main") in
  let ctx = Opt.Phase.create ~program:prog () in
  Dbds.Simulation.simulate ?paths ctx Dbds.Config.dbds g

let test_plain_simulation_misses_chain () =
  let prog = compile nested in
  let candidates = simulate prog in
  Alcotest.(check bool) "no path candidates without the extension" true
    (List.for_all (fun c -> c.Dbds.Candidate.path = []) candidates);
  (* The inner-join predecessors yield no single-level benefit: their DST
     ends at the inner join, before the division. *)
  Alcotest.(check bool)
    "single-level simulation finds only the outer merge" true
    (List.length candidates <= 2)

let test_path_simulation_finds_chain () =
  let prog = compile nested in
  let candidates = simulate ~paths:3 prog in
  let path_candidates =
    List.filter (fun c -> c.Dbds.Candidate.path <> []) candidates
  in
  Alcotest.(check bool) "path candidates found" true (path_candidates <> []);
  (* The path through p=4 (or p=2) makes the division a shift: ~31 cycles. *)
  Alcotest.(check bool) "a path candidate carries the division win" true
    (List.exists
       (fun c ->
         c.Dbds.Candidate.benefit >= 31.0
         && List.mem Dbds.Candidate.Strength_reduce
              c.Dbds.Candidate.opportunities)
       path_candidates)

let test_path_duplication_end_to_end () =
  let prog = compile nested in
  let prog' = Ir.Program.copy prog in
  let stats =
    (Dbds.Driver.optimize_program_report ~config:Dbds.Config.dbds_paths prog')
      .Dbds.Driver.rep_stats
  in
  check_program_verifies prog';
  let t = Dbds.Driver.total_stats stats in
  Alcotest.(check bool) "duplicated along the path" true
    (t.Dbds.Driver.duplications_performed >= 2);
  List.iter
    (fun x ->
      Alcotest.(check int)
        (Printf.sprintf "x=%d" x)
        (run_int prog [ x ]) (run_int prog' [ x ]))
    [ 200; 50; 5; 0; -13 ]

let test_path_extension_beats_iterated_plain () =
  (* Iteration (paper §5.2) only helps once a *first* duplication
     happened — but here the inner join offers zero single-level benefit,
     so plain DBDS never starts, no matter how many iterations.  The path
     extension prices the whole chain at once and wins: exactly the gap
     §8 describes. *)
  let result config =
    let prog = compile nested in
    let _ = Dbds.Driver.optimize_program_report ~config prog in
    let g = Option.get (Ir.Program.find_function prog "main") in
    G.fold_instrs g
      (fun n id ->
        match G.kind g id with Ir.Types.Binop (Ir.Types.Shr, _, _) -> n + 1 | _ -> n)
      0
  in
  let one_shot_paths =
    result (dbds_with [ ("iters", "1"); ("paths", "3") ])
  in
  let iterated_plain = result Dbds.Config.dbds in
  Alcotest.(check bool) "path extension shifts in one iteration" true
    (one_shot_paths >= 1);
  Alcotest.(check int) "iterated plain DBDS cannot reach it" 0 iterated_plain

let test_path_respects_budget () =
  let config =
    { Dbds.Config.dbds_paths with Dbds.Config.size_budget = 1.0 }
  in
  let prog = compile nested in
  let stats =
    (Dbds.Driver.optimize_program_report ~config prog).Dbds.Driver.rep_stats
  in
  Alcotest.(check int) "no duplication under zero budget" 0
    (Dbds.Driver.total_stats stats).Dbds.Driver.duplications_performed

let test_path_length_limit () =
  (* A chain of three nested joins; dbds{paths=2} must not produce
     paths longer than one extra merge. *)
  let src =
    {|
    int main(int x) {
      int p;
      if (x > 0) {
        if (x > 10) {
          if (x > 100) { p = 8; } else { p = 4; }
        } else { p = 2; }
      } else { p = x % 5 + 1; }
      return x / p;
    }
    |}
  in
  let prog = compile src in
  let config = dbds_with [ ("paths", "2") ] in
  let candidates = simulate ~paths:2 prog in
  List.iter
    (fun c ->
      Alcotest.(check bool) "path length bounded" true
        (List.length c.Dbds.Candidate.path <= 1))
    candidates;
  (* And end-to-end still sound. *)
  let prog' = Ir.Program.copy prog in
  let _ = Dbds.Driver.optimize_program_report ~config prog' in
  check_program_verifies prog';
  List.iter
    (fun x ->
      Alcotest.(check int)
        (Printf.sprintf "x=%d" x)
        (run_int prog [ x ]) (run_int prog' [ x ]))
    [ 500; 50; 5; -5 ]

let test_path_property_preservation () =
  (* Random programs under the path configuration stay sound. *)
  let obs p args =
    match
      Interp.Machine.run_full ~icache:Interp.Machine.no_icache ~fuel:2_000_000
        p ~args
    with
    | r, _, gs ->
        Interp.Machine.result_to_string r
        ^ String.concat ";"
            (List.map
               (fun (n, v) -> n ^ "=" ^ Interp.Machine.value_to_string v)
               gs)
    | exception Interp.Machine.Runtime_error m -> "fault " ^ m
  in
  List.iter
    (fun seed ->
      let src = Workloads.Progen.generate ~seed () in
      let prog = compile src in
      let prog' = Ir.Program.copy prog in
      ignore
        (Dbds.Driver.optimize_program_report
           ~config:Dbds.Config.dbds_paths prog');
      check_program_verifies prog';
      List.iter
        (fun args ->
          Alcotest.(check string)
            (Printf.sprintf "seed %d" seed)
            (obs prog args) (obs prog' args))
        [ [| 0; 0 |]; [| 3; -7 |]; [| 64; 9 |] ])
    [ 7; 42; 99; 345; 777; 1024; 4200 ]

let suite =
  [
    test "plain simulation misses the chain" test_plain_simulation_misses_chain;
    test "path simulation finds the chain" test_path_simulation_finds_chain;
    test "path duplication end to end" test_path_duplication_end_to_end;
    test "path extension beats iterated plain" test_path_extension_beats_iterated_plain;
    test "path respects budget" test_path_respects_budget;
    test "path length limit" test_path_length_limit;
    test "path preserves random programs" test_path_property_preservation;
  ]
