(** SCCP tests: constants through cycles and conditionally-dead code —
    the cases per-instruction canonicalization cannot see. *)

open Ir.Types
module G = Ir.Graph
open Helpers

let run_sccp prog =
  let ctx = Opt.Phase.create ~program:prog () in
  Ir.Program.iter_functions prog (fun g ->
      ignore (Opt.Sccp.run ctx g);
      (* Cleanup passes so assertions see the residue. *)
      ignore (Opt.Canonicalize.run ctx g);
      ignore (Opt.Simplify_cfg.run ctx g);
      ignore (Opt.Dce.run ctx g));
  check_program_verifies prog;
  prog

let count_kind prog fn pred =
  let g = Option.get (Ir.Program.find_function prog fn) in
  G.fold_instrs g (fun n id -> if pred (G.kind g id) then n + 1 else n) 0

let test_constant_through_loop () =
  (* x stays 5 through the loop: SCCP proves the loop-carried phi
     constant; the canonicalizer alone cannot (phi(5, x+0) is cyclic). *)
  let src =
    {|
    int main(int n) {
      int x = 5;
      int i = 0;
      while (i < n) {
        x = x + 0;
        i = i + 1;
      }
      return x * 2;
    }
    |}
  in
  let prog = run_sccp (compile src) in
  Alcotest.(check int) "result" 10 (run_int prog [ 3 ]);
  (* The multiply folded: x was proven constant. *)
  Alcotest.(check int) "no multiply/shift left" 0
    (count_kind prog "main" (function
      | Binop ((Mul | Shl), _, _) -> true
      | _ -> false))

let test_conditionally_dead_code () =
  (* The condition is constant, so the else side never executes and its
     would-be-Bottom contribution to the phi is ignored. *)
  let src =
    {|
    int main(int n) {
      int flag = 1;
      int v;
      if (flag > 0) { v = 7; } else { v = n * 1000; }
      return v + 1;
    }
    |}
  in
  let prog = run_sccp (compile src) in
  Alcotest.(check int) "result" 8 (run_int prog [ 99 ]);
  let g = Option.get (Ir.Program.find_function prog "main") in
  (match G.term g (G.entry g) with
  | Return (Some v) -> (
      match G.kind g v with
      | Const 8 -> ()
      | k -> Alcotest.failf "expected const 8, got %s" (Fmt.str "%a" Ir.Printer.pp_kind k))
  | _ -> Alcotest.fail "expected straight return");
  Alcotest.(check int) "single block" 1 (G.live_block_count g)

let test_mutual_constants () =
  (* Two phis feeding each other with the same constant. *)
  let src =
    {|
    int main(int n) {
      int a = 3;
      int b = 3;
      int i = 0;
      while (i < n) {
        int t = a;
        a = b;
        b = t;
        i = i + 1;
      }
      return a + b;
    }
    |}
  in
  let prog = run_sccp (compile src) in
  Alcotest.(check int) "swap of equal constants folds" 6 (run_int prog [ 7 ]);
  Alcotest.(check int) "no add left" 0
    (count_kind prog "main" (function Binop (Add, a, b) when a <> b -> false | Binop (Add, _, _) -> false | _ -> false))

let test_swap_of_distinct_values_not_folded () =
  (* The classic swap: phis must NOT be folded when values actually
     alternate. *)
  let src =
    {|
    int main(int n) {
      int a = 1;
      int b = 2;
      int i = 0;
      while (i < n) {
        int t = a;
        a = b;
        b = t;
        i = i + 1;
      }
      return a * 10 + b;
    }
    |}
  in
  let prog = run_sccp (compile src) in
  Alcotest.(check int) "even" 12 (run_int prog [ 4 ]);
  Alcotest.(check int) "odd" 21 (run_int prog [ 5 ])

let test_branch_on_propagated_constant () =
  let src =
    {|
    global int side;
    int main(int n) {
      int k = 4;
      int v = k * 2;
      if (v == 8) { side = 1; return n + 1; }
      side = 2;
      return n - 1;
    }
    |}
  in
  let prog = run_sccp (compile src) in
  Alcotest.(check int) "constant branch taken" 6 (run_int prog [ 5 ]);
  let g = Option.get (Ir.Program.find_function prog "main") in
  Alcotest.(check int) "dead side removed" 0
    (count_kind prog "main" (function Binop (Sub, _, _) -> true | _ -> false));
  ignore g

let test_sccp_leaves_genuine_variables () =
  let src = "int main(int n) { int x = n + 1; return x * x; }" in
  let prog = run_sccp (compile src) in
  Alcotest.(check int) "still computes" 36 (run_int prog [ 5 ]);
  Alcotest.(check bool) "multiply remains" true
    (count_kind prog "main" (function Binop (Mul, _, _) -> true | _ -> false) >= 1)

let test_in_pipeline_differential () =
  (* Through the full pipeline with SCCP enabled, semantics hold on a
     mixed program. *)
  let src =
    {|
    global int gs;
    int main(int n) {
      int mode = 2;
      int acc = 0;
      int i = 0;
      while (i < n) {
        if (mode == 2) { acc = acc + i; } else { acc = acc - i; gs = gs + 1; }
        i = i + 1;
      }
      return acc;
    }
    |}
  in
  let prog = compile src in
  let prog' = Ir.Program.copy prog in
  ignore
    (Dbds.Driver.optimize_program_report ~config:Dbds.Config.off
       ~inline:false prog');
  check_program_verifies prog';
  List.iter
    (fun n ->
      Alcotest.(check int)
        (Printf.sprintf "n=%d" n)
        (run_int prog [ n ]) (run_int prog' [ n ]))
    [ 0; 1; 10 ]

let suite =
  [
    test "constant through loop" test_constant_through_loop;
    test "conditionally dead code" test_conditionally_dead_code;
    test "mutual constants" test_mutual_constants;
    test "swap not over-folded" test_swap_of_distinct_values_not_folded;
    test "branch on propagated constant" test_branch_on_propagated_constant;
    test "genuine variables left alone" test_sccp_leaves_genuine_variables;
    test "pipeline differential" test_in_pipeline_differential;
  ]
