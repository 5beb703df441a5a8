(** Tests for the DBDS core: simulation tier (the paper's figures and
    listings as golden tests), duplication transform + SSA repair,
    trade-off predicate, and the full driver. *)

open Ir.Types
module G = Ir.Graph
open Helpers

let ctx_for prog = Opt.Phase.create ~program:prog ()

let simulate ?(config = Dbds.Config.default) prog fn =
  let g = Option.get (Ir.Program.find_function prog fn) in
  let ctx = ctx_for prog in
  Dbds.Simulation.simulate ctx config g

let count_kind prog fn pred =
  let g = Option.get (Ir.Program.find_function prog fn) in
  G.fold_instrs g (fun n id -> if pred (G.kind g id) then n + 1 else n) 0

let has_opp opp c = List.mem opp c.Dbds.Candidate.opportunities

(* Differential check under a DBDS config. *)
let check_dbds_preserves ?(config = Dbds.Config.default)
    ?(inputs = [ [ 0 ]; [ 1 ]; [ -7 ]; [ 13 ]; [ 42 ] ]) src =
  let prog = compile src in
  let prog' = Ir.Program.copy prog in
  let _ = Dbds.Driver.optimize_program_report ~config prog' in
  check_program_verifies prog';
  List.iter
    (fun args ->
      let run p =
        match
          Interp.Machine.run ~icache:Interp.Machine.no_icache p
            ~args:(Array.of_list args)
        with
        | r, _ -> Interp.Machine.result_to_string r
        | exception Interp.Machine.Runtime_error m -> "fault: " ^ m
      in
      Alcotest.(check string)
        (Printf.sprintf "args %s" (String.concat "," (List.map string_of_int args)))
        (run prog) (run prog'))
    inputs;
  prog'

(* ---- paper figure 1: constant folding through a phi ---- *)

let figure1 =
  {|
  int main(int x) {
    int phi;
    if (x > 0) { phi = x; } else { phi = 0; }
    return 2 + phi;
  }
  |}

let test_fig1_simulation_finds_constant_fold () =
  let prog = compile figure1 in
  let candidates = simulate prog "main" in
  (* The false predecessor (phi = 0) enables constant folding 2 + 0. *)
  Alcotest.(check bool) "at least one candidate" true (candidates <> []);
  Alcotest.(check bool) "a constant-fold or copy-prop candidate exists" true
    (List.exists
       (fun c ->
         has_opp Dbds.Candidate.Constant_fold c
         || has_opp Dbds.Candidate.Copy_propagation c)
       candidates)

let test_fig1_dbds_end_to_end () =
  let prog' = check_dbds_preserves figure1 in
  (* After duplication + folding, the false path returns the constant 2:
     no add remains on that path; at most one add in the function. *)
  Alcotest.(check bool) "adds reduced to at most 1" true
    (count_kind prog' "main" (function Binop (Add, _, _) -> true | _ -> false)
    <= 1)

(* ---- paper figure 3: strength reduction x / phi(a>b ? x : 2) ---- *)

let figure3 =
  {|
  int main(int a, int b, int x) {
    int phi;
    if (a > b) { phi = x; } else { phi = 2; }
    return x / phi;
  }
  |}

let test_fig3_simulation_finds_strength_reduction () =
  let prog = compile figure3 in
  let candidates = simulate prog "main" in
  let sr =
    List.filter (has_opp Dbds.Candidate.Strength_reduce) candidates
  in
  Alcotest.(check bool) "strength-reduction candidate found" true (sr <> []);
  (* The paper computes 32 - 1 = 31 cycles saved for the division. *)
  List.iter
    (fun c ->
      Alcotest.(check bool) "saves ~31 cycles" true
        (c.Dbds.Candidate.benefit >= 31.0))
    sr

let test_fig3_dbds_end_to_end () =
  let prog' =
    check_dbds_preserves
      ~inputs:[ [ 3; 1; 10 ]; [ 1; 3; 10 ]; [ 0; 0; -9 ]; [ 5; 2; 0 ] ]
      figure3
  in
  (* The division survives only on the a>b path; the other path shifts. *)
  Alcotest.(check int) "one division left" 1
    (count_kind prog' "main" (function Binop (Div, _, _) -> true | _ -> false));
  Alcotest.(check int) "a shift appeared" 1
    (count_kind prog' "main" (function Binop (Shr, _, _) -> true | _ -> false))

(* ---- paper listings 1/2: conditional elimination ---- *)

let listing1 =
  {|
  int main(int i) {
    int p;
    if (i > 0) { p = i; } else { p = 13; }
    if (p > 12) { return 12; }
    return i;
  }
  |}

let test_listing1_simulation_finds_condelim () =
  let prog = compile listing1 in
  let candidates = simulate prog "main" in
  Alcotest.(check bool) "conditional-elimination candidate" true
    (List.exists (has_opp Dbds.Candidate.Conditional_elimination) candidates)

let test_listing1_dbds_end_to_end () =
  let prog' =
    check_dbds_preserves ~inputs:[ [ 14 ]; [ 1 ]; [ 0 ]; [ -5 ] ] listing1
  in
  (* The else-path condition p=13 > 12 folds: its compare disappears. *)
  Alcotest.(check int) "i=0 goes through constant path" 12 (run_int prog' [ 0 ]);
  Alcotest.(check bool) "compare count reduced" true
    (count_kind prog' "main" (function Cmp _ -> true | _ -> false) <= 2)

(* ---- paper listings 3/4: escape analysis ---- *)

let listing3 =
  {|
  class A { int x; }
  int main(int k) {
    A a = null;
    if (k > 0) { a = new A(77); }
    A p;
    if (a == null) { p = new A(0); } else { p = a; }
    return p.x;
  }
  |}

let test_listing3_simulation_finds_pea () =
  let prog = compile listing3 in
  let candidates = simulate prog "main" in
  Alcotest.(check bool) "escape-analysis candidate" true
    (List.exists (has_opp Dbds.Candidate.Escape_analysis) candidates)

let test_listing3_dbds_end_to_end () =
  let prog' = check_dbds_preserves ~inputs:[ [ 1 ]; [ 0 ] ] listing3 in
  (* After duplicating the merge, scalar replacement removes the
     null-branch allocation — and with the loads folded, the k>0
     allocation dies too: the function becomes allocation-free. *)
  Alcotest.(check bool) "allocations eliminated" true
    (count_kind prog' "main" (function New _ -> true | _ -> false) <= 1);
  Alcotest.(check int) "null path returns 0" 0 (run_int prog' [ 0 ]);
  Alcotest.(check int) "non-null path returns 77" 77 (run_int prog' [ 1 ])

(* ---- paper listings 5/6: read elimination ---- *)

let listing5 =
  {|
  class A { int x; }
  global int s;
  int foo(A a, int i) {
    if (i > 0) @0.9 { s = a.x; } else { s = 0; }
    return a.x;
  }
  int main(int i) { A a = new A(41); return foo(a, i); }
  |}

let test_listing5_simulation_finds_readelim () =
  let prog = compile listing5 in
  let candidates = simulate prog "foo" in
  let re = List.filter (has_opp Dbds.Candidate.Read_elimination) candidates in
  Alcotest.(check bool) "read-elimination candidate on the hot pred" true
    (List.exists (fun c -> c.Dbds.Candidate.probability > 0.5) re)

let test_listing5_dbds_end_to_end () =
  let src = listing5 in
  let prog = compile src in
  let prog' = Ir.Program.copy prog in
  let _ = Dbds.Driver.optimize_program_report prog' in
  check_program_verifies prog';
  Alcotest.(check int) "result preserved (hot path)" 41 (run_int prog' [ 5 ]);
  Alcotest.(check int) "result preserved (cold path)" 41 (run_int prog' [ -5 ]);
  (* In the duplicated hot path the second read is eliminated: strictly
     fewer dynamic loads than the baseline on the hot path. *)
  let dynamic_loads p =
    let prog_run = Ir.Program.copy p in
    let _, stats =
      Interp.Machine.run ~icache:Interp.Machine.no_icache prog_run ~args:[| 5 |]
    in
    stats.Interp.Machine.instrs_executed
  in
  Alcotest.(check bool) "fewer instructions executed" true
    (dynamic_loads prog' < dynamic_loads prog)

(* ---- transform: duplication + SSA repair ---- *)

let diamond_with_tail () =
  (* Build: entry -> (bt|bf) -> merge (v = phi*2) -> tail uses v. *)
  compile
    {|
    int main(int x) {
      int p;
      if (x > 0) { p = x; } else { p = 3; }
      int v = p * 2;
      int w = v + 1;
      return w;
    }
    |}

let find_merge g =
  match
    G.fold_blocks g
      (fun acc bid -> if G.pred_count g bid >= 2 then bid :: acc else acc)
      []
  with
  | [ m ] -> m
  | l -> Alcotest.failf "expected exactly one merge, got %d" (List.length l)

let test_transform_duplicates_and_verifies () =
  let prog = diamond_with_tail () in
  let g = Option.get (Ir.Program.find_function prog "main") in
  let m = find_merge g in
  let pred = List.hd (G.preds g m) in
  let bm' = Dbds.Transform.duplicate g ~merge:m ~pred in
  check_verifies g;
  Alcotest.(check bool) "duplicate block exists" true (G.block_exists g bm');
  (* The merge lost one predecessor. *)
  Alcotest.(check int) "merge has 1 pred left" 1 (List.length (G.preds g m))

let test_transform_preserves_semantics_each_pred () =
  let run p args =
    match
      Interp.Machine.run ~icache:Interp.Machine.no_icache p
        ~args:(Array.of_list args)
    with
    | Some (Interp.Machine.VInt n), _ -> n
    | _ -> Alcotest.fail "expected int"
  in
  List.iter
    (fun pred_pick ->
      let prog = diamond_with_tail () in
      let g = Option.get (Ir.Program.find_function prog "main") in
      let m = find_merge g in
      let pred = List.nth (G.preds g m) pred_pick in
      ignore (Dbds.Transform.duplicate g ~merge:m ~pred);
      check_verifies g;
      List.iter
        (fun x ->
          Alcotest.(check int)
            (Printf.sprintf "pred %d, x=%d" pred_pick x)
            (run (diamond_with_tail ()) [ x ])
            (run prog [ x ]))
        [ 5; -5; 0 ])
    [ 0; 1 ]

let test_transform_duplicate_into_both_preds () =
  let prog = diamond_with_tail () in
  let g = Option.get (Ir.Program.find_function prog "main") in
  let m = find_merge g in
  (match G.preds g m with
  | [ p1; p2 ] ->
      ignore (Dbds.Transform.duplicate g ~merge:m ~pred:p1);
      check_verifies g;
      (* The merge now has a single pred; duplicating again must refuse. *)
      (match Dbds.Transform.duplicate g ~merge:m ~pred:p2 with
      | exception Dbds.Transform.Not_applicable _ -> ()
      | _ -> Alcotest.fail "expected Not_applicable")
  | _ -> Alcotest.fail "expected two preds");
  check_verifies g

let test_transform_merge_with_branch_terminator () =
  (* The merge block ends in a branch: SSA repair must insert phis at both
     successors. *)
  let src =
    {|
    int main(int x) {
      int p;
      if (x > 0) { p = x; } else { p = 5; }
      int v = p + 7;
      if (v > 9) { return v * 2; }
      return v;
    }
    |}
  in
  let prog = compile src in
  let g = Option.get (Ir.Program.find_function prog "main") in
  let merges =
    G.fold_blocks g
      (fun acc bid -> if G.pred_count g bid >= 2 then bid :: acc else acc)
      []
  in
  (* Duplicate the phi-merge (the one holding a phi). *)
  let m =
    List.find (fun bid -> G.phis g bid <> []) merges
  in
  let pred = List.hd (G.preds g m) in
  ignore (Dbds.Transform.duplicate g ~merge:m ~pred);
  check_verifies g;
  let run p args =
    match Interp.Machine.run p ~args with
    | Some (Interp.Machine.VInt n), _ -> n
    | _ -> Alcotest.fail "int expected"
  in
  List.iter
    (fun x ->
      Alcotest.(check int)
        (Printf.sprintf "x=%d" x)
        (run (compile src) [| x |])
        (run prog [| x |]))
    [ 5; 1; -4; 0; 100 ]

let test_transform_rejects_loop_header () =
  (* Regression (progen seed 345): duplicating a loop header into its
     back-edge predecessor is loop rotation, not tail duplication — the
     sequential SSA repair is off by one iteration when one header phi's
     edge input is another phi of the same header.  The transform must
     refuse. *)
  let src =
    {|
    global int gs;
    int main(int n) {
      int y = 1;
      int acc = 7;
      int i = 0;
      while (i < 3) {
        gs = gs + 2;
        i = i + 1;
        acc = acc + y;
        y = gs;
      }
      return acc + y;
    }
    |}
  in
  let prog = compile src in
  let g = Option.get (Ir.Program.find_function prog "main") in
  let dom = Ir.Dom.compute g in
  let loops = Ir.Loops.compute dom in
  let headers =
    G.fold_blocks g
      (fun acc bid ->
        if Ir.Loops.is_header loops bid then bid :: acc else acc)
      []
  in
  Alcotest.(check bool) "has a loop header" true (headers <> []);
  List.iter
    (fun h ->
      List.iter
        (fun p ->
          match Dbds.Transform.duplicate g ~merge:h ~pred:p with
          | exception Dbds.Transform.Not_applicable _ -> ()
          | _ -> Alcotest.fail "loop header duplication must be rejected")
        (G.preds g h))
    headers;
  check_verifies g;
  (* Backtracking (which probes every merge) must stay sound here. *)
  let prog' = Ir.Program.copy prog in
  ignore
    (Dbds.Driver.optimize_program_report
       ~config:Dbds.Config.backtracking prog');
  check_program_verifies prog';
  Alcotest.(check int) "semantics preserved" (run_int prog [ 0 ])
    (run_int prog' [ 0 ])

(* Regression: within one round, a duplication can make the other
   entry of an irreducible ring a loop header.  E branches to X or P, P
   jumps to Y, Y jumps to X, X branches to Y or out.  Neither X nor Y
   dominates the other until Y is duplicated into P: then Y's only
   predecessor is X, so X dominates Y, one of its own predecessors.  The
   round's tree, taken before that duplication, still says otherwise;
   the check must not trust it for a merge whose predecessor the round
   touched. *)
let test_transform_round_new_loop_header () =
  let module B = Ir.Builder in
  let b = B.create ~name:"main" ~n_params:1 () in
  let e = B.entry b in
  let x = B.new_block b and p = B.new_block b in
  let y = B.new_block b and out = B.new_block b in
  let zero = B.const b 0 in
  let c = B.cmp b Lt (B.param b 0) zero in
  B.branch b c ~if_true:x ~if_false:p;
  B.switch b p;
  B.jump b y;
  B.switch b y;
  B.jump b x;
  B.switch b x;
  B.branch b c ~if_true:y ~if_false:out;
  B.switch b out;
  B.ret b zero;
  let g = B.finish b in
  let round = Dbds.Transform.round g in
  let y' = Dbds.Transform.duplicate ~round g ~merge:y ~pred:p in
  check_verifies g;
  Alcotest.(check (list int))
    "X's predecessors" (List.sort compare [ e; y; y' ])
    (List.sort compare (G.preds g x));
  Alcotest.(check bool)
    "X dominates Y" true
    (Ir.Dom.dominates (Ir.Dom.compute g) x y);
  match Dbds.Transform.duplicate ~round g ~merge:x ~pred:e with
  | exception Dbds.Transform.Not_applicable _ -> check_verifies g
  | _ -> Alcotest.fail "X became a loop header; its duplication must be rejected"

let test_transform_three_way_merge () =
  let src =
    {|
    int main(int x) {
      int p;
      if (x > 10) { p = 1; } else {
        if (x > 0) { p = 2; } else { p = 3; }
      }
      return p * 100 + x;
    }
    |}
  in
  let prog = compile src in
  let g = Option.get (Ir.Program.find_function prog "main") in
  (* Find the 3-way merge (after simplification of the inner merge the
     frontend produces nested 2-way merges; duplicate the outer one). *)
  let m =
    G.fold_blocks g
      (fun acc bid ->
        if G.pred_count g bid >= 2 && G.phis g bid <> [] then bid :: acc
        else acc)
      []
    |> List.hd
  in
  List.iter
    (fun pred ->
      if G.block_exists g m && List.mem pred (G.preds g m)
         && List.length (G.preds g m) >= 2
      then begin
        ignore (Dbds.Transform.duplicate g ~merge:m ~pred);
        check_verifies g
      end)
    (G.preds g m);
  let run p args =
    match Interp.Machine.run p ~args with
    | Some (Interp.Machine.VInt n), _ -> n
    | _ -> Alcotest.fail "int expected"
  in
  List.iter
    (fun x ->
      Alcotest.(check int)
        (Printf.sprintf "x=%d" x)
        (run (compile src) [| x |])
        (run prog [| x |]))
    [ 20; 5; -5 ]

(* ---- trade-off tier ---- *)

let mk_candidate ?(benefit = 10.0) ?(probability = 1.0) ?(size_delta = 4) () =
  {
    Dbds.Candidate.merge = 1;
    pred = 0;
    path = [];
    benefit;
    probability;
    size_delta;
    opportunities = [ Dbds.Candidate.Constant_fold ];
  }

let budget_with ~initial ~current =
  { Dbds.Tradeoff.initial_size = initial; current_size = current }

let test_tradeoff_accepts_beneficial () =
  let b = budget_with ~initial:100 ~current:100 in
  Alcotest.(check bool) "accepted" true
    (Dbds.Tradeoff.should_duplicate Dbds.Config.default b (mk_candidate ()))

let test_tradeoff_rejects_high_cost () =
  let b = budget_with ~initial:100 ~current:100 in
  let c = mk_candidate ~benefit:0.001 ~probability:0.001 ~size_delta:40 () in
  Alcotest.(check bool) "rejected" false
    (Dbds.Tradeoff.should_duplicate Dbds.Config.default b c)

let test_tradeoff_respects_size_budget () =
  (* cs + c >= is * IB: reject. *)
  let b = budget_with ~initial:100 ~current:148 in
  let c = mk_candidate ~size_delta:10 () in
  Alcotest.(check bool) "budget exhausted" false
    (Dbds.Tradeoff.should_duplicate Dbds.Config.default b c);
  let b2 = budget_with ~initial:100 ~current:100 in
  Alcotest.(check bool) "budget available" true
    (Dbds.Tradeoff.should_duplicate Dbds.Config.default b2 c)

let test_tradeoff_respects_max_unit_size () =
  let config = { Dbds.Config.default with Dbds.Config.max_unit_size = 200 } in
  let b = budget_with ~initial:100 ~current:201 in
  Alcotest.(check bool) "hard cap" false
    (Dbds.Tradeoff.should_duplicate config b (mk_candidate ()))

let test_tradeoff_probability_scales () =
  (* A cold block needs proportionally more benefit. *)
  let b = budget_with ~initial:1000 ~current:1000 in
  let cold = mk_candidate ~benefit:1.0 ~probability:0.0001 ~size_delta:30 () in
  let hot = mk_candidate ~benefit:1.0 ~probability:1.0 ~size_delta:30 () in
  Alcotest.(check bool) "cold rejected" false
    (Dbds.Tradeoff.should_duplicate Dbds.Config.default b cold);
  Alcotest.(check bool) "hot accepted" true
    (Dbds.Tradeoff.should_duplicate Dbds.Config.default b hot)

let test_tradeoff_dupalot_ignores_cost () =
  let b = budget_with ~initial:100 ~current:100 in
  let c = mk_candidate ~benefit:0.001 ~probability:0.001 ~size_delta:500 () in
  Alcotest.(check bool) "dupalot accepts any benefit" true
    (Dbds.Tradeoff.dupalot_should_duplicate Dbds.Config.dupalot b c);
  Alcotest.(check bool) "the paper predicate does not" false
    (Dbds.Tradeoff.should_duplicate Dbds.Config.dupalot b c)

let test_tradeoff_ranking () =
  let c1 = mk_candidate ~benefit:1.0 ~probability:1.0 () in
  let c2 = mk_candidate ~benefit:100.0 ~probability:1.0 () in
  let c3 = mk_candidate ~benefit:100.0 ~probability:0.001 () in
  match Dbds.Tradeoff.rank [ c1; c2; c3 ] with
  | first :: _ ->
      Alcotest.(check (float 1e-9)) "highest scaled benefit first" 100.0
        (Dbds.Candidate.scaled_benefit first)
  | [] -> Alcotest.fail "empty"

(* ---- driver ---- *)

let test_driver_baseline_no_duplication () =
  let prog = compile figure1 in
  let stats =
    (Dbds.Driver.optimize_program_report ~config:Dbds.Config.off prog)
      .Dbds.Driver.rep_stats
  in
  let t = Dbds.Driver.total_stats stats in
  Alcotest.(check int) "no duplications in baseline" 0
    t.Dbds.Driver.duplications_performed

let test_driver_dbds_duplicates () =
  let prog = compile figure1 in
  let stats =
    (Dbds.Driver.optimize_program_report prog).Dbds.Driver.rep_stats
  in
  let t = Dbds.Driver.total_stats stats in
  Alcotest.(check bool) "performed duplications" true
    (t.Dbds.Driver.duplications_performed > 0);
  check_program_verifies prog

let test_driver_dupalot_duplicates_at_least_as_much () =
  let src = listing1 in
  let p1 = compile src and p2 = compile src in
  let s1 =
    (Dbds.Driver.optimize_program_report ~config:Dbds.Config.dbds p1)
      .Dbds.Driver.rep_stats
  in
  let s2 =
    (Dbds.Driver.optimize_program_report ~config:Dbds.Config.dupalot p2)
      .Dbds.Driver.rep_stats
  in
  let d1 = (Dbds.Driver.total_stats s1).Dbds.Driver.duplications_performed in
  let d2 = (Dbds.Driver.total_stats s2).Dbds.Driver.duplications_performed in
  Alcotest.(check bool) "dupalot >= dbds" true (d2 >= d1)

let test_driver_backtracking_improves_and_verifies () =
  let prog = compile figure3 in
  let stats =
    (Dbds.Driver.optimize_program_report ~config:Dbds.Config.backtracking
       prog)
      .Dbds.Driver.rep_stats
  in
  check_program_verifies prog;
  let t = Dbds.Driver.total_stats stats in
  Alcotest.(check bool) "attempted backtracking" true
    (t.Dbds.Driver.backtrack_attempts > 0)

let test_driver_backtracking_preserves_semantics () =
  ignore
    (check_dbds_preserves ~config:Dbds.Config.backtracking
       ~inputs:[ [ 14 ]; [ 1 ]; [ 0 ]; [ -5 ] ]
       listing1)

let test_driver_respects_code_size_budget () =
  (* With a zero budget, nothing should be duplicated. *)
  let config =
    { Dbds.Config.default with Dbds.Config.size_budget = 1.0 }
  in
  let prog = compile listing1 in
  let stats =
    (Dbds.Driver.optimize_program_report ~config prog).Dbds.Driver.rep_stats
  in
  let t = Dbds.Driver.total_stats stats in
  Alcotest.(check int) "no duplication under zero budget" 0
    t.Dbds.Driver.duplications_performed

let test_driver_iterates () =
  (* Chained merges: the second opportunity appears only after the first
     duplication (paper §5.2's motivation for iterating). *)
  let src =
    {|
    int main(int x) {
      int p;
      if (x > 0) @0.9 { p = x; } else { p = 0; }
      int q = 2 + p;
      int r;
      if (x > 5) @0.9 { r = q; } else { r = 1; }
      return r * 4;
    }
    |}
  in
  ignore (check_dbds_preserves ~inputs:[ [ 7 ]; [ 3 ]; [ -1 ]; [ 0 ] ] src)

let test_driver_loop_bodies_preserved () =
  ignore
    (check_dbds_preserves
       ~inputs:[ [ 0 ]; [ 1 ]; [ 9 ]; [ 33 ] ]
       {|
       int main(int n) {
         int acc = 0;
         int i = 0;
         while (i < n) @0.95 {
           int p;
           if (i % 2 == 0) @0.5 { p = i; } else { p = 2; }
           acc = acc + 6 / p;
           i = i + 1;
         }
         return acc;
       }
       |})

let suite =
  [
    test "fig1: simulation finds fold" test_fig1_simulation_finds_constant_fold;
    test "fig1: dbds end-to-end" test_fig1_dbds_end_to_end;
    test "fig3: simulation finds strength reduction"
      test_fig3_simulation_finds_strength_reduction;
    test "fig3: dbds end-to-end" test_fig3_dbds_end_to_end;
    test "listing1: simulation finds condelim"
      test_listing1_simulation_finds_condelim;
    test "listing1: dbds end-to-end" test_listing1_dbds_end_to_end;
    test "listing3: simulation finds pea" test_listing3_simulation_finds_pea;
    test "listing3: dbds end-to-end" test_listing3_dbds_end_to_end;
    test "listing5: simulation finds readelim"
      test_listing5_simulation_finds_readelim;
    test "listing5: dbds end-to-end" test_listing5_dbds_end_to_end;
    test "transform: duplicates and verifies"
      test_transform_duplicates_and_verifies;
    test "transform: semantics per pred"
      test_transform_preserves_semantics_each_pred;
    test "transform: both preds" test_transform_duplicate_into_both_preds;
    test "transform: branch terminator" test_transform_merge_with_branch_terminator;
    test "transform: rejects loop header" test_transform_rejects_loop_header;
    test "transform: a round sees a new loop header"
      test_transform_round_new_loop_header;
    test "transform: three-way merge" test_transform_three_way_merge;
    test "tradeoff: accepts beneficial" test_tradeoff_accepts_beneficial;
    test "tradeoff: rejects high cost" test_tradeoff_rejects_high_cost;
    test "tradeoff: size budget" test_tradeoff_respects_size_budget;
    test "tradeoff: max unit size" test_tradeoff_respects_max_unit_size;
    test "tradeoff: probability scaling" test_tradeoff_probability_scales;
    test "tradeoff: dupalot ignores cost" test_tradeoff_dupalot_ignores_cost;
    test "tradeoff: ranking" test_tradeoff_ranking;
    test "driver: baseline off" test_driver_baseline_no_duplication;
    test "driver: dbds duplicates" test_driver_dbds_duplicates;
    test "driver: dupalot >= dbds" test_driver_dupalot_duplicates_at_least_as_much;
    test "driver: backtracking verifies" test_driver_backtracking_improves_and_verifies;
    test "driver: backtracking semantics" test_driver_backtracking_preserves_semantics;
    test "driver: size budget respected" test_driver_respects_code_size_budget;
    test "driver: iterates over chained merges" test_driver_iterates;
    test "driver: loop bodies preserved" test_driver_loop_bodies_preserved;
  ]
