(** LICM tests: invariant hoisting, dependency chains, and the things it
    must not touch. *)

open Ir.Types
module G = Ir.Graph
open Helpers

let run_licm prog =
  let ctx = Opt.Phase.create ~program:prog () in
  Ir.Program.iter_functions prog (fun g -> ignore (Opt.Licm.run ctx g));
  check_program_verifies prog;
  prog

(* Count instructions matching [pred] that live inside some loop. *)
let count_in_loops prog fn pred =
  let g = Option.get (Ir.Program.find_function prog fn) in
  let dom = Ir.Dom.compute g in
  let loops = Ir.Loops.compute dom in
  G.fold_instrs g
    (fun n id ->
      if
        pred (G.kind g id)
        && G.block_of g id >= 0
        && Ir.Loops.depth loops (G.block_of g id) > 0
      then n + 1
      else n)
    0

let invariant_src =
  {|
  int main(int n, int k) {
    int acc = 0;
    int i = 0;
    while (i < n) {
      acc = acc + k * 37;
      i = i + 1;
    }
    return acc;
  }
  |}

let test_hoists_invariant_multiply () =
  let prog = run_licm (compile invariant_src) in
  Alcotest.(check int) "no multiply left in loop" 0
    (count_in_loops prog "main" (function Binop (Mul, _, _) -> true | _ -> false));
  Alcotest.(check int) "semantics" 370 (run_int prog [ 10; 1 ])

let test_hoists_dependency_chain () =
  let src =
    {|
    int main(int n, int k) {
      int acc = 0;
      int i = 0;
      while (i < n) {
        acc = acc + (k * 3 + 7) * (k * 3 + 7);
        i = i + 1;
      }
      return acc;
    }
    |}
  in
  let prog = run_licm (compile src) in
  Alcotest.(check int) "whole chain hoisted" 0
    (count_in_loops prog "main" (function
      | Binop ((Mul | Add), a, b) when a <> b -> true
      | Binop (Mul, _, _) -> true
      | _ -> false)
    (* the loop's own acc/i adds remain; count only multiplies *)
    |> fun n -> min n (count_in_loops prog "main" (function Binop (Mul, _, _) -> true | _ -> false)));
  Alcotest.(check int) "semantics" 200 (run_int prog [ 2; 1 ])

let test_does_not_hoist_variant () =
  let src =
    {|
    int main(int n) {
      int acc = 0;
      int i = 0;
      while (i < n) {
        acc = acc + i * 3;
        i = i + 1;
      }
      return acc;
    }
    |}
  in
  let prog = run_licm (compile src) in
  Alcotest.(check bool) "i*3 stays in the loop" true
    (count_in_loops prog "main" (function Binop (Mul, _, _) -> true | _ -> false)
    >= 1);
  Alcotest.(check int) "semantics" 135 (run_int prog [ 10 ])

let test_does_not_hoist_loads () =
  let src =
    {|
    class Box { int v; }
    global Box shared;
    global int sink;
    void mutate() { shared.v = shared.v + 1; }
    int main(int n) {
      shared = new Box(5);
      int acc = 0;
      int i = 0;
      while (i < n) {
        acc = acc + shared.v;
        mutate();
        i = i + 1;
      }
      return acc;
    }
    |}
  in
  let prog = compile src in
  let expected = run_int (Ir.Program.copy prog) [ 4 ] in
  let prog = run_licm prog in
  (* 5+6+7+8 = 26; a hoisted load would give 20. *)
  Alcotest.(check int) "loads not hoisted" expected (run_int prog [ 4 ]);
  Alcotest.(check int) "value" 26 expected

let test_division_speculation_is_safe () =
  (* k/0 inside a loop that never executes: hoisting the division must
     not fault (division is total in this IR). *)
  let src =
    {|
    int main(int n, int k) {
      int acc = 0;
      int i = 0;
      while (i < n) {
        acc = acc + 100 / k;
        i = i + 1;
      }
      return acc;
    }
    |}
  in
  let prog = run_licm (compile src) in
  Alcotest.(check int) "loop never runs, div by zero hoisted" 0
    (run_int prog [ 0; 0 ]);
  Alcotest.(check int) "normal case" 100 (run_int prog [ 2; 2 ])

let test_nested_loops () =
  let src =
    {|
    int main(int n, int k) {
      int acc = 0;
      int i = 0;
      while (i < n) {
        int j = 0;
        while (j < n) {
          acc = acc + k * 11;
          j = j + 1;
        }
        i = i + 1;
      }
      return acc;
    }
    |}
  in
  let prog = run_licm (compile src) in
  Alcotest.(check int) "hoisted out of both loops" 0
    (count_in_loops prog "main" (function Binop (Mul, _, _) -> true | _ -> false));
  Alcotest.(check int) "semantics" 99 (run_int prog [ 3; 1 ])

let test_pipeline_with_licm_differential () =
  List.iter
    (fun seed ->
      let src = Workloads.Progen.generate ~seed () in
      let prog = compile src in
      let prog' = Ir.Program.copy prog in
      ignore
        (Dbds.Driver.optimize_program_report
           ~config:
             {
               Dbds.Config.off with
               Dbds.Config.passes =
                 Result.get_ok
                   (Opt.Spec.of_string
                      "inline,fix(fix(canon,simplify,gvn,condelim,readelim,pea,dce,licm),sccp)");
             }
           ~inline:false prog');
      check_program_verifies prog';
      let obs p =
        match
          Interp.Machine.run_full ~icache:Interp.Machine.no_icache
            ~fuel:2_000_000 p ~args:[| 3; -7 |]
        with
        | r, _, gs ->
            Interp.Machine.result_to_string r
            ^ String.concat ";"
                (List.map (fun (n, v) -> n ^ "=" ^ Interp.Machine.value_to_string v) gs)
        | exception Interp.Machine.Runtime_error m -> "fault " ^ m
      in
      Alcotest.(check string)
        (Printf.sprintf "seed %d" seed)
        (obs prog) (obs prog'))
    [ 1; 2; 3; 5; 8; 13; 21; 34 ]

let suite =
  [
    test "hoists invariant multiply" test_hoists_invariant_multiply;
    test "hoists dependency chain" test_hoists_dependency_chain;
    test "keeps variant computation" test_does_not_hoist_variant;
    test "keeps memory reads" test_does_not_hoist_loads;
    test "division speculation safe" test_division_speculation_is_safe;
    test "nested loops" test_nested_loops;
    test "pipeline with licm preserves semantics" test_pipeline_with_licm_differential;
  ]
