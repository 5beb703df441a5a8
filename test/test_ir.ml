(** Unit tests for the IR core: graph arena, builder, use lists, edge
    maintenance and the verifier. *)

open Ir.Types
module G = Ir.Graph
module B = Ir.Builder
open Helpers

(* Build the diamond of Figure 1: phi of (x, 0), return 2 + phi. *)
let figure1_graph () =
  let b = B.create ~name:"foo" ~n_params:1 () in
  let x = B.param b 0 in
  let zero = B.const b 0 in
  let cond = B.cmp b Gt x zero in
  let bt = B.new_block b in
  let bf = B.new_block b in
  let merge = B.new_block b in
  B.branch b cond ~if_true:bt ~if_false:bf;
  B.switch b bt;
  B.jump b merge;
  B.switch b bf;
  B.jump b merge;
  let phi = B.phi b merge [ x; zero ] in
  B.switch b merge;
  let two = B.const b 2 in
  let sum = B.binop b Add two phi in
  B.ret b sum;
  (B.finish b, phi, sum)

let test_build_diamond () =
  let g, phi, _ = figure1_graph () in
  Alcotest.(check int) "4 blocks" 4 (G.live_block_count g);
  let merge = G.block_of g phi in
  Alcotest.(check int) "merge has 2 preds" 2 (List.length (G.preds g merge));
  Alcotest.(check int) "entry has 2 succs" 2
    (List.length (G.succs g (G.entry g)))

let test_use_lists () =
  let g, phi, sum = figure1_graph () in
  (* phi is used once, by the add. *)
  (match G.uses g phi with
  | [ G.U_instr u ] -> Alcotest.(check int) "phi used by add" sum u
  | l -> Alcotest.failf "unexpected uses of phi: %d entries" (List.length l));
  (* sum is used by the return terminator. *)
  match G.uses g sum with
  | [ G.U_term _ ] -> ()
  | _ -> Alcotest.fail "sum should be used by the return terminator"

let test_replace_uses () =
  let g, phi, sum = figure1_graph () in
  let merge = G.block_of g phi in
  let c42 = G.prepend g merge (Const 42) in
  G.replace_uses g phi ~by:c42;
  (match G.kind g sum with
  | Binop (Add, _, v) -> Alcotest.(check int) "add reads 42" c42 v
  | _ -> Alcotest.fail "sum is not an add");
  Alcotest.(check (list pass)) "phi unused" [] (G.uses g phi);
  G.remove_instr g phi;
  check_verifies g

let test_set_kind_updates_uses () =
  let b = B.create ~n_params:0 () in
  let c1 = B.const b 1 in
  let c2 = B.const b 2 in
  let add = B.binop b Add c1 c2 in
  B.ret b add;
  let g = B.graph b in
  Alcotest.(check int) "c1 used once" 1 (List.length (G.uses g c1));
  G.set_kind g add (Binop (Add, c2, c2));
  Alcotest.(check int) "c1 unused after rewrite" 0 (List.length (G.uses g c1));
  Alcotest.(check int) "c2 used twice" 2 (List.length (G.uses g c2))

let test_redirect_edge () =
  let g, phi, _ = figure1_graph () in
  let merge = G.block_of g phi in
  (* Redirect the true-branch edge to a fresh block that jumps to merge. *)
  let entry = G.entry g in
  let bt = List.hd (G.succs g entry) in
  let fresh = G.add_block g in
  G.redirect_edge g ~from_block:entry ~old_target:bt ~new_target:fresh;
  G.set_term g fresh (Jump bt);
  check_verifies g;
  Alcotest.(check int) "merge still has 2 preds" 2
    (List.length (G.preds g merge))

let test_remove_pred_drops_phi_input () =
  let g, phi, sum = figure1_graph () in
  let merge = G.block_of g phi in
  let bf = List.nth (G.preds g merge) 1 in
  (* Make bf return instead of jumping to the merge. *)
  let c0 = G.append g bf (Const 0) in
  G.set_term g bf (Return (Some c0));
  (match G.kind g phi with
  | Phi [| v |] ->
      Alcotest.(check int) "remaining input is x" 0 (G.block_of g v)
  | _ -> Alcotest.fail "phi should have 1 input left");
  ignore sum;
  check_verifies g

let test_copy_is_deep () =
  let g, phi, _ = figure1_graph () in
  let g2 = G.copy g in
  let merge = G.block_of g phi in
  let c42 = G.prepend g merge (Const 42) in
  G.replace_uses g phi ~by:c42;
  G.remove_instr g phi;
  (* The copy still has the phi. *)
  Alcotest.(check bool) "copy keeps phi" true (G.instr_exists g2 phi);
  check_verifies g2

let test_verifier_catches_bad_phi_arity () =
  let g, phi, _ = figure1_graph () in
  (match G.kind g phi with
  | Phi inputs -> G.set_kind g phi (Phi (Array.sub inputs 0 1))
  | _ -> assert false);
  match Ir.Verifier.verify_result g with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "verifier accepted a phi with wrong arity"

let test_verifier_catches_use_before_def () =
  let b = B.create ~n_params:0 () in
  let c1 = B.const b 1 in
  let next = B.new_block b in
  B.jump b next;
  B.switch b next;
  let add = B.binop b Add c1 c1 in
  B.ret b add;
  let g = B.graph b in
  (* Move the add into the entry block, before c1's block?  Instead,
     simulate a violation: make the entry return the add defined in a
     later block. *)
  G.set_term g (G.entry g) (Return (Some add));
  match Ir.Verifier.verify_result g with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "verifier accepted a dominance violation"

let test_rpo_order () =
  let g, _, _ = figure1_graph () in
  match G.rpo g with
  | entry :: rest ->
      Alcotest.(check int) "rpo starts at entry" (G.entry g) entry;
      Alcotest.(check int) "rpo covers all blocks" 3 (List.length rest)
  | [] -> Alcotest.fail "empty rpo"

let test_detach_attach () =
  let g, phi, sum = figure1_graph () in
  let merge = G.block_of g phi in
  G.detach g sum;
  Alcotest.(check int) "detached block is -1" (-1) (G.block_of g sum);
  G.attach g sum merge;
  Alcotest.(check int) "reattached to merge" merge (G.block_of g sum);
  check_verifies g

let test_print_parse_print_fixpoint () =
  List.iter
    (fun seed ->
      let src = Workloads.Progen.generate ~seed () in
      let prog = compile src in
      Ir.Program.iter_functions prog (fun g ->
          let t1 = Ir.Printer.graph_to_string (Ir.Parse.parse_graph (Ir.Printer.graph_to_string g)) in
          let t2 = Ir.Printer.graph_to_string (Ir.Parse.parse_graph t1) in
          Alcotest.(check string)
            (Printf.sprintf "seed %d: print/parse fixed point" seed)
            t1 t2))
    [ 0; 1; 2; 3; 11; 77; 345 ]

(* jobs must never change the compiled IR: byte-identical prints across
   jobs=1 and jobs=4 over the progen corpus. *)
let test_jobs_byte_identical () =
  List.iter
    (fun seed ->
      let src = Workloads.Progen.generate ~seed () in
      let print_at jobs =
        let prog = compile src in
        ignore (Dbds.Driver.optimize_program_report ~jobs prog);
        let buf = Buffer.create 1024 in
        Ir.Program.iter_functions prog (fun g ->
            Buffer.add_string buf (Ir.Printer.graph_to_string g));
        Buffer.contents buf
      in
      Alcotest.(check string)
        (Printf.sprintf "seed %d: jobs=1 vs jobs=4" seed)
        (print_at 1) (print_at 4))
    [ 0; 5; 42; 345 ]

(* A graph logs nothing until asked (no clean stamp reads older
   entries); then each mutation logs what it touched: the rewritten
   instruction, the values it stopped reading, the blocks whose edges
   changed. *)
let test_mutation_log () =
  let g, _, _ = figure1_graph () in
  Alcotest.(check int) "nothing logged while building" 0 (G.log_length g);
  G.start_log g;
  let entries since =
    let acc = ref [] in
    G.iter_log g ~since (fun what id -> acc := (what, id) :: !acc);
    List.rev !acc
  in
  let pos = G.log_length g in
  let k = G.append g (G.entry g) (Const 3) in
  Alcotest.(check bool) "creation logged" true
    (entries pos = [ (G.Instr, k) ]);
  let pos = G.log_length g in
  let n = G.append g (G.entry g) (Neg k) in
  G.set_kind g n (Const 4);
  Alcotest.(check bool) "rewrite logs the lost use" true
    (List.mem (G.Lost_use, k) (entries pos)
    && List.mem (G.Instr, n) (entries pos));
  let pos = G.log_length g in
  let nb = G.add_block g in
  G.set_term g nb (Jump (G.entry g));
  Alcotest.(check bool) "new edge logs both blocks" true
    (List.mem (G.Cfg, nb) (entries pos)
    && List.mem (G.Cfg, G.entry g) (entries pos))

let suite =
  [
    test "build diamond" test_build_diamond;
    test "use lists" test_use_lists;
    test "replace uses" test_replace_uses;
    test "set_kind updates uses" test_set_kind_updates_uses;
    test "redirect edge" test_redirect_edge;
    test "remove pred drops phi input" test_remove_pred_drops_phi_input;
    test "copy is deep" test_copy_is_deep;
    test "verifier: bad phi arity" test_verifier_catches_bad_phi_arity;
    test "verifier: use before def" test_verifier_catches_use_before_def;
    test "rpo order" test_rpo_order;
    test "detach/attach" test_detach_attach;
    test "print/parse/print fixed point" test_print_parse_print_fixpoint;
    test "jobs byte-identical (progen)" test_jobs_byte_identical;
    test "mutation log" test_mutation_log;
  ]
