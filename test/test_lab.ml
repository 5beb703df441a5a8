(** Workload-lab tests: the adversarial suites compile/verify/run
    deterministically, the irreducible rings really are irreducible, and
    the condelim_dup tier duplicates the dispatch merge it targets. *)

module G = Ir.Graph
open Helpers

let all_adversarial () =
  List.concat_map
    (fun s ->
      List.map
        (fun b -> (s.Workloads.Suite.suite_name, b))
        s.Workloads.Suite.benchmarks)
    Workloads.Registry.adversarial

(* ------------------------------------------------------------------ *)
(* Suites                                                              *)
(* ------------------------------------------------------------------ *)

let test_suites_compile_and_verify () =
  Alcotest.(check int)
    "four adversarial suites" 4
    (List.length Workloads.Registry.adversarial);
  List.iter
    (fun (suite, b) ->
      match Workloads.Suite.compile b with
      | prog -> check_program_verifies prog
      | exception e ->
          Alcotest.failf "%s/%s does not build: %s" suite
            b.Workloads.Suite.name (Printexc.to_string e))
    (all_adversarial ())

let test_suites_run_deterministically () =
  List.iter
    (fun (suite, b) ->
      let run () =
        let prog = Workloads.Suite.compile b in
        let r, _ =
          Interp.Machine.run ~fuel:50_000_000 prog ~args:b.Workloads.Suite.args
        in
        Interp.Machine.result_to_string r
      in
      Alcotest.(check string)
        (Printf.sprintf "%s/%s deterministic" suite b.Workloads.Suite.name)
        (run ()) (run ()))
    (all_adversarial ())

let test_registry_finds_lab_suites () =
  List.iter
    (fun name ->
      match Workloads.Registry.find_suite name with
      | Some _ -> ()
      | None -> Alcotest.failf "find_suite misses %s" name)
    [ "adv-irreducible"; "adv-dispatch"; "adv-diamonds"; "adv-abnormal" ];
  (* ...without disturbing the paper registry. *)
  Alcotest.(check int) "paper suites unchanged" 4
    (List.length Workloads.Registry.all)

(* The ring really is irreducible: it has a cycle, yet natural-loop
   detection (back edge = edge to a dominator) finds nothing. *)
let test_ring_is_irreducible () =
  List.iter
    (fun nodes ->
      let g =
        Ir.Parse.parse_graph (Workloads.Advgen.irr_ring_text ~nodes ~seed:23)
      in
      check_verifies g;
      let dom = Ir.Dom.compute g in
      let loops = Ir.Loops.loops (Ir.Loops.compute dom) in
      Alcotest.(check int)
        (Printf.sprintf "%d-node ring: no natural loops" nodes)
        0 (List.length loops);
      (* ...but a cycle exists: some edge targets a non-dominating block
         already seen on the path — cheap check: some block has an
         in-edge from a block with a higher RPO index. *)
      let rpo = G.rpo g in
      let index = Hashtbl.create 16 in
      List.iteri (fun i b -> Hashtbl.replace index b i) rpo;
      let retreating = ref 0 in
      List.iter
        (fun b ->
          List.iter
            (fun s ->
              if Hashtbl.find index s <= Hashtbl.find index b then
                incr retreating)
            (G.succs g b))
        rpo;
      if !retreating = 0 then
        Alcotest.failf "%d-node ring has no retreating edge (no cycle?)" nodes)
    [ 2; 3; 5; 8 ]

(* Every tier computes the same result on every adversarial benchmark —
   the lab's differential-correctness invariant. *)
let test_tiers_agree () =
  List.iter
    (fun (suite, b) ->
      let result (tier, config) =
        let prog = Workloads.Suite.compile b in
        let _ = Dbds.Driver.optimize_program_report ~config prog in
        check_program_verifies prog;
        let r, _ =
          Interp.Machine.run ~fuel:50_000_000 prog ~args:b.Workloads.Suite.args
        in
        (tier, Interp.Machine.result_to_string r)
      in
      match List.map result Harness.Tiercompare.tiers with
      | [] -> assert false
      | (_, expect) :: rest ->
          List.iter
            (fun (tier, got) ->
              Alcotest.(check string)
                (Printf.sprintf "%s/%s: %s agrees with off" suite
                   b.Workloads.Suite.name tier)
                expect got)
            rest)
    (all_adversarial ())

(* ------------------------------------------------------------------ *)
(* condelim_dup tier                                                   *)
(* ------------------------------------------------------------------ *)

(* The canonical decode/dispatch shape: the tier must find the merge
   between the chains, duplicate it, and the repeated test folds. *)
let test_condelim_dup_duplicates () =
  let src =
    {|
    int main(int n) {
      int i = 0;
      int acc = 0;
      while (i < n) @0.999 {
        int t = 0;
        if ((i & 1) == 0) @0.50 { t = 1; } else { t = 2; }
        if (t == 1) @0.50 { acc = acc + 3; } else { acc = acc + 5; }
        i = i + 1;
      }
      return acc;
    }
    |}
  in
  let expect = run_int (compile src) [ 100 ] in
  let prog = compile src in
  let stats =
    (Dbds.Driver.optimize_program_report ~config:Dbds.Config.condelim_dup
       prog)
      .Dbds.Driver.rep_stats
  in
  check_program_verifies prog;
  let totals = Dbds.Driver.total_stats stats in
  if totals.Dbds.Driver.duplications_performed = 0 then
    Alcotest.fail "condelim_dup tier performed no duplication";
  Alcotest.(check int) "semantics kept" expect (run_int prog [ 100 ])

let suite =
  [
    test "lab: suites compile and verify" test_suites_compile_and_verify;
    test "lab: suites run deterministically" test_suites_run_deterministically;
    test "lab: registry finds lab suites" test_registry_finds_lab_suites;
    test "lab: rings are irreducible" test_ring_is_irreducible;
    test "lab: all tiers agree on all benchmarks" test_tiers_agree;
    test "condelim_dup: duplicates the dispatch merge" test_condelim_dup_duplicates;
  ]
