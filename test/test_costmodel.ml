(** Cost model tests, including the paper's published data points
    (division 32 cycles, shift 1, allocation 8) and the Figure 4
    mechanism (frequency-weighted estimate drops by p x mul-cost after
    duplication). *)

open Ir.Types
module B = Ir.Builder
open Helpers

let test_published_data_points () =
  (* §4.1: "the original division needs 32 cycles ... the shift only
     takes 1" — CS = 31. *)
  Alcotest.(check (float 1e-9)) "div 32" 32.0
    (Costmodel.Cost.cycles_of_kind (Binop (Div, 0, 1)));
  Alcotest.(check (float 1e-9)) "shr 1" 1.0
    (Costmodel.Cost.cycles_of_kind (Binop (Shr, 0, 1)));
  (* Listing 7: AbstractNewObjectNode is CYCLES_8 / SIZE_8. *)
  Alcotest.(check (float 1e-9)) "new 8 cycles" 8.0
    (Costmodel.Cost.cycles_of_kind (New ("A", [||])));
  Alcotest.(check bool) "new size >= 8" true
    (Costmodel.Cost.size_of_kind (New ("A", [||])) >= 8)

let test_phi_is_free () =
  Alcotest.(check (float 1e-9)) "phi 0 cycles" 0.0
    (Costmodel.Cost.cycles_of_kind (Phi [| 0; 1 |]))

let test_graph_size_accumulates () =
  let b = B.create ~n_params:1 () in
  let x = B.param b 0 in
  let c = B.const b 3 in
  let m = B.binop b Mul x c in
  B.ret b m;
  let g = B.finish b in
  let expected =
    Costmodel.Cost.size_of_kind (Param 0)
    + Costmodel.Cost.size_of_kind (Const 3)
    + Costmodel.Cost.size_of_kind (Binop (Mul, x, c))
    + (Costmodel.Cost.of_term (Return (Some m))).Costmodel.Cost.size
  in
  Alcotest.(check int) "sum of parts" expected (Costmodel.Estimate.graph_size g)

(* The size counts reachable blocks only.  With the reachability bit
   clear it sums the live blocks; with it set, the reverse postorder.
   Either way it is the reverse-postorder sum. *)
let test_graph_size_reachable_only () =
  let module G = Ir.Graph in
  let prog = compile stranded_loop_src in
  let g = Option.get (Ir.Program.find_function prog "main") in
  let rpo_sum () =
    List.fold_left
      (fun acc b -> acc + Costmodel.Estimate.block_size g b)
      0 (G.rpo g)
  in
  let check label bit =
    Alcotest.(check bool) (label ^ ": bit") bit (G.may_have_unreachable g);
    Alcotest.(check int) label (rpo_sum ()) (Costmodel.Estimate.graph_size g)
  in
  ignore (G.remove_unreachable_blocks g);
  check "swept" false;
  fold_constant_guard g;
  check "stranded" true;
  let live_sum =
    G.fold_blocks g (fun acc b -> acc + Costmodel.Estimate.block_size g b) 0
  in
  Alcotest.(check bool) "the stranded loop is not counted" true
    (Costmodel.Estimate.graph_size g < live_sum);
  ignore (G.remove_unreachable_blocks g);
  check "swept again" false

(* Figure 4: two predecessors (90% / 10%) merging into a block with a
   multiply by phi; on the hot predecessor the operand is the constant 3,
   so after duplication the multiply folds there and the weighted
   estimate drops by 0.9 x cycles(Mul) = 1.8. *)
let figure4_graph () =
  let b = B.create ~name:"fig4" ~n_params:1 () in
  let p0 = B.param b 0 in
  let zero = B.const b 0 in
  let cond = B.cmp b Gt p0 zero in
  let hot = B.new_block b in
  let cold = B.new_block b in
  let merge = B.new_block b in
  B.branch ~prob:0.9 b cond ~if_true:hot ~if_false:cold;
  B.switch b hot;
  let three = B.const b 3 in
  B.jump b merge;
  B.switch b cold;
  B.jump b merge;
  let phi = B.phi b merge [ three; p0 ] in
  B.switch b merge;
  let three2 = B.const b 3 in
  let mul = B.binop b Mul phi three2 in
  let st = B.gstore b "sink" mul in
  ignore st;
  B.ret b mul;
  B.finish b

let test_figure4_weighted_estimate_drops () =
  let g = figure4_graph () in
  let before = Costmodel.Estimate.weighted_cycles g in
  let prog = Ir.Program.of_graph ~globals:[ "sink" ] g in
  let ctx = Opt.Phase.create ~program:prog () in
  let stats = Dbds.Driver.optimize_graph ctx g in
  let after = Costmodel.Estimate.weighted_cycles g in
  Alcotest.(check bool) "a duplication happened" true
    (stats.Dbds.Driver.duplications_performed >= 1);
  let saved = before -. after in
  (* 0.9 x Mul(2 cycles) = 1.8, the paper's exact number.  Other folding
     may add to it, so check the 1.8 is at least realized. *)
  Alcotest.(check bool)
    (Printf.sprintf "saved %.2f >= 1.8" saved)
    true (saved >= 1.8 -. 1e-6)

let test_weighted_cycles_scales_with_loops () =
  let hot =
    compile
      "int main(int n) { int acc = 0; int i = 0; while (i < n) { acc = acc + i * 3; i = i + 1; } return acc; }"
  in
  let flat = compile "int main(int n) { return n * 3 + 1; }" in
  let wc p =
    Costmodel.Estimate.weighted_cycles
      (Option.get (Ir.Program.find_function p "main"))
  in
  Alcotest.(check bool) "loop body weighted heavier" true (wc hot > wc flat)

let suite =
  [
    test "published data points" test_published_data_points;
    test "phi is free" test_phi_is_free;
    test "graph size accumulates" test_graph_size_accumulates;
    test "graph size counts reachable blocks only" test_graph_size_reachable_only;
    test "figure 4: weighted estimate drops by 1.8" test_figure4_weighted_estimate_drops;
    test "weighted cycles scale with loops" test_weighted_cycles_scales_with_loops;
  ]
