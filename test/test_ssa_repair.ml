(** Direct unit tests for the SSA reconstruction utility (it is also
    exercised transitively by every duplication test). *)

open Ir.Types
module G = Ir.Graph
module B = Ir.Builder
open Helpers

(* entry -> (left | right) -> join -> exit(uses v).  We hand-create a
   second definition of v in [right] and ask repair to fix the use. *)
let split_def_graph () =
  let b = B.create ~n_params:1 () in
  let x = B.param b 0 in
  let zero = B.const b 0 in
  let cond = B.cmp b Gt x zero in
  let left = B.new_block b in
  let right = B.new_block b in
  let join = B.new_block b in
  B.branch b cond ~if_true:left ~if_false:right;
  B.switch b left;
  let v_left = B.binop b Add x x in
  B.jump b join;
  B.switch b right;
  let v_right = B.binop b Mul x x in
  B.jump b join;
  B.switch b join;
  (* Deliberately broken SSA: join uses v_left although left does not
     dominate join (the verifier would reject this). *)
  let use = B.binop b Add v_left zero in
  B.ret b use;
  (B.graph b, left, right, join, v_left, v_right, use)

let test_repair_inserts_phi () =
  let g, _, right, join, v_left, v_right, use = split_def_graph () in
  (* Before repair the graph violates dominance. *)
  (match Ir.Verifier.verify_result g with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "fixture should be broken before repair");
  let inserted =
    Ir.Ssa_repair.repair g ~classes:[ (v_left, [ (right, v_right) ]) ]
  in
  check_verifies g;
  Alcotest.(check int) "one phi inserted" 1 (List.length inserted);
  let phi = List.hd inserted in
  Alcotest.(check int) "phi lives in the join" join (G.block_of g phi);
  (* The use now reads the phi. *)
  (match G.kind g use with
  | Binop (Add, a, _) -> Alcotest.(check int) "use reads phi" phi a
  | _ -> Alcotest.fail "unexpected use kind");
  (* Semantics: x>0 -> x+x, else x*x (plus 0). *)
  let run args =
    match Interp.Machine.run_graph g ~args with
    | Some (Interp.Machine.VInt n), _ -> n
    | _ -> Alcotest.fail "int expected"
  in
  Alcotest.(check int) "positive" 14 (run [| 7 |]);
  Alcotest.(check int) "negative" 9 (run [| -3 |])

let test_repair_use_dominated_by_original_untouched () =
  (* A use inside the original def's own block needs no rewriting. *)
  let b = B.create ~n_params:1 () in
  let x = B.param b 0 in
  let v = B.binop b Add x x in
  let w = B.binop b Mul v v in
  B.ret b w;
  let g = B.graph b in
  let dummy_block = G.add_block g in
  let copy = G.append g dummy_block (Binop (Add, x, x)) in
  G.set_term g dummy_block (Return (Some copy));
  ignore (Ir.Ssa_repair.repair g ~classes:[ (v, [ (dummy_block, copy) ]) ]);
  (match G.kind g w with
  | Binop (Mul, a, bb) ->
      Alcotest.(check int) "left operand unchanged" v a;
      Alcotest.(check int) "right operand unchanged" v bb
  | _ -> Alcotest.fail "unexpected");
  ()

let test_repair_trivial_phi_collapsed () =
  (* If both reaching defs are the same value, no phi should survive. *)
  let g, _, right, _, v_left, _, use = split_def_graph () in
  (* Use v_left itself as the "copy": the repair's phi would be
     phi(v_left, v_left) and must collapse. *)
  ignore use;
  ignore (Ir.Ssa_repair.repair g ~classes:[ (v_left, [ (right, v_left) ]) ]);
  let phis =
    G.fold_instrs g
      (fun n id -> match G.kind g id with Phi _ -> n + 1 | _ -> n)
      0
  in
  Alcotest.(check int) "no phi survives" 0 phis

let test_repair_through_loop () =
  (* The duplicated-def pattern inside a loop: repair must thread the
     reaching definition around the back edge. *)
  let src =
    {|
    int main(int x) {
      int p;
      if (x > 0) { p = x; } else { p = 3; }
      int v = p * 2;
      int acc = 0;
      int i = 0;
      while (i < 4) {
        acc = acc + v;
        i = i + 1;
      }
      return acc;
    }
    |}
  in
  let prog = compile src in
  let g = Option.get (Ir.Program.find_function prog "main") in
  (* Duplicate the phi-merge; SSA repair must fix v's uses inside the
     loop below. *)
  let dom = Ir.Dom.compute g in
  let loops = Ir.Loops.compute dom in
  let m =
    G.fold_blocks g
      (fun acc bid ->
        if
          G.pred_count g bid >= 2
          && G.phis g bid <> []
          && not (Ir.Loops.is_header loops bid)
        then bid :: acc
        else acc)
      []
    |> List.hd
  in
  ignore (Dbds.Transform.duplicate g ~merge:m ~pred:(List.hd (G.preds g m)));
  check_verifies g;
  Alcotest.(check int) "positive path" 40 (run_int prog [ 5 ]);
  Alcotest.(check int) "negative path" 24 (run_int prog [ -5 ])

(* Entry-into-loop-body edge (the irreducible shape the adversarial lab
   generates): a side entry jumps into the middle of a loop, so the
   header no longer dominates the body and its definitions need repair.
   Dominance must place the body's idom above the loop, natural-loop
   detection must see no loop, and repair must phi both broken values. *)
let test_repair_entry_into_loop_body () =
  let g =
    Ir.Parse.parse_graph
      "fn f(2 params) entry=b0\n\
       b0:\n\
       v0 = param 0\n\
       v1 = param 1\n\
       v2 = const 0\n\
       v3 = const 1\n\
       v4 = cmp.gt v1, v2\n\
       branch v4 ? b4 : b1  @0.50\n\
       b4:\n\
       v10 = const 5\n\
       v11 = add v0, v0\n\
       jump b2\n\
       b1:  ; preds: b0, b3\n\
       v5 = phi [v2, v9]\n\
       v6 = add v0, v3\n\
       jump b2\n\
       b2:\n\
       v7 = mul v6, v6\n\
       jump b3\n\
       b3:\n\
       v9 = add v5, v3\n\
       v12 = cmp.lt v9, v1\n\
       branch v12 ? b1 : b5  @0.50\n\
       b5:\n\
       v13 = add v9, v7\n\
       return v13\n"
  in
  (* Resolve textual ids to arena ids via kinds (the parser remaps). *)
  let find pred =
    G.fold_instrs g (fun acc id -> if pred (G.kind g id) then Some id else acc)
      None
    |> Option.get
  in
  let v5 = find (function Phi _ -> true | _ -> false) in
  (* Identify blocks structurally: the side entry holds the const 5, the
     header holds the (only) phi. *)
  let side = ref (-1) and header = ref (-1) in
  G.iter_blocks g (fun b ->
      G.iter_block_instrs g b (fun id ->
          match G.kind g id with
          | Const 5 -> side := b
          | _ -> ());
      G.iter_phis g b (fun _ -> header := b));
  let alt_counter = ref (-1) and alt_x = ref (-1) and hdr_x = ref (-1) in
  G.iter_block_instrs g !side (fun id ->
      match G.kind g id with
      | Const 5 -> alt_counter := id
      | Binop (Add, _, _) -> alt_x := id
      | _ -> ());
  G.iter_block_instrs g !header (fun id ->
      match G.kind g id with Binop (Add, _, _) -> hdr_x := id | _ -> ());
  let dom = Ir.Dom.compute g in
  let loops = Ir.Loops.compute dom in
  Alcotest.(check (list int)) "no loop headers despite the cycle" []
    (List.filter (Ir.Loops.is_header loops) (G.rpo g));
  let inserted =
    Ir.Ssa_repair.repair g
      ~classes:
        [
          (v5, [ (!side, !alt_counter) ]); (!hdr_x, [ (!side, !alt_x) ]);
        ]
  in
  check_verifies g;
  Alcotest.(check bool) "phis inserted at the side-entry join" true
    (List.length inserted >= 2);
  let prog = Ir.Program.of_graph g in
  Alcotest.(check int) "side-entry path" 25 (run_int prog [ 3; 9 ]);
  Alcotest.(check int) "header path" 17 (run_int prog [ 3; 0 ])

let suite =
  [
    test "repair inserts phi at join" test_repair_inserts_phi;
    test "entry into loop body" test_repair_entry_into_loop_body;
    test "use in def block untouched" test_repair_use_dominated_by_original_untouched;
    test "trivial phi collapsed" test_repair_trivial_phi_collapsed;
    test "repair through loop" test_repair_through_loop;
  ]
