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

(* Corrupt use lists, each rejected with the verifier's message.  In
   the diamond, [zero] is read by the compare and the phi, and the phi
   by the add. *)
let check_rejects g expected =
  match Ir.Verifier.verify_result g with
  | Error m -> Alcotest.(check string) "message" expected m
  | Ok () -> Alcotest.failf "verifier accepted a corrupt use list (%s)" expected

let test_verifier_stale_use () =
  let g, phi, sum = figure1_graph () in
  (* The add reads the phi, never [zero]. *)
  let zero = match G.kind g phi with Phi [| _; z |] -> z | _ -> assert false in
  G.set_uses_unchecked g zero (G.U_instr sum :: G.uses g zero);
  check_rejects g (Printf.sprintf "use list of v%d has a stale entry" zero)

let test_verifier_missing_use () =
  let g, phi, _ = figure1_graph () in
  G.set_uses_unchecked g phi [];
  check_rejects g (Printf.sprintf "use list of v%d is missing an entry" phi)

(* The right number of entries, at the wrong users: [twice] reads [x]
   twice and [once] once, but the list holds [twice] once and [once]
   twice. *)
let test_verifier_use_multiplicity () =
  let b = B.create ~n_params:1 () in
  let x = B.param b 0 in
  let twice = B.binop b Add x x in
  let once = B.binop b Mul twice x in
  B.ret b once;
  let g = B.finish b in
  check_verifies g;
  G.set_uses_unchecked g x [ G.U_instr twice; G.U_instr once; G.U_instr once ];
  check_rejects g (Printf.sprintf "use list of v%d has a stale entry" x)

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

(* The effect chains and the allocation index against their
   definitions: each block's body filtered to the member kinds, and the
   live allocations by decreasing id. *)
let chains_consistent g =
  let chain_matches b =
    let expected =
      ref (List.filter (fun i -> G.effect_kind (G.kind g i)) (G.body g b))
    in
    (* Walked against the body, so a cyclic chain fails too. *)
    match
      G.iter_effects g b (fun i ->
          match !expected with
          | e :: rest when e = i -> expected := rest
          | _ -> raise Exit)
    with
    | () -> !expected = []
    | exception Exit -> false
  in
  G.fold_blocks g (fun ok b -> ok && chain_matches b) true
  && G.allocations g
     = G.fold_instrs g
         (fun acc i -> match G.kind g i with New _ -> i :: acc | _ -> acc)
         []

(* A block's effect chain as a list, failing instead of running on
   along a cyclic chain. *)
let effects g b =
  let acc = ref [] in
  G.iter_effects g b (fun i ->
      if List.length !acc >= G.block_size g b then
        Alcotest.failf "effect chain of b%d is longer than the block" b;
      acc := i :: !acc);
  List.rev !acc

let chain_state g =
  (G.fold_blocks g (fun acc b -> (b, effects g b) :: acc) [], G.allocations g)

let test_effect_chain () =
  let g, phi, sum = figure1_graph () in
  let merge = G.block_of g phi in
  let x = 0 in
  let check what = Alcotest.(check bool) what true (chains_consistent g) in
  let ld = G.prepend g merge (Load (x, "f")) in
  let st = G.append g merge (Store (x, "f", sum)) in
  Alcotest.(check (list int)) "built in body order" [ ld; st ] (effects g merge);
  (* [sum] sits between them: turning it into a compare links it in
     place, turning it back unlinks it. *)
  G.set_kind g sum (Cmp (Lt, phi, phi));
  Alcotest.(check (list int)) "rewrite links in place" [ ld; sum; st ]
    (effects g merge);
  G.set_kind g sum (Binop (Add, phi, phi));
  Alcotest.(check (list int)) "rewrite unlinks" [ ld; st ] (effects g merge);
  (* A phi slot is never on the chain, whatever its kind. *)
  G.set_kind g phi (Const 0);
  G.set_kind g phi (Cmp (Eq, x, x));
  Alcotest.(check (list int)) "phi slot stays off" [ ld; st ] (effects g merge);
  G.detach g ld;
  G.attach g ld merge;
  Alcotest.(check (list int)) "attach goes last" [ st; ld ] (effects g merge);
  let a = G.append g (G.entry g) (New ("C", [| x |])) in
  let b = G.append g (G.entry g) (New ("C", [| x |])) in
  Alcotest.(check (list int)) "allocations newest first" [ b; a ]
    (G.allocations g);
  G.set_kind g a (Const 1);
  G.set_kind g a (New ("C", [| x |]));
  Alcotest.(check (list int)) "a rewrite keeps id order" [ b; a ]
    (G.allocations g);
  check "consistent";
  let snap = G.snapshot g and before = chain_state g in
  G.remove_instr g b;
  G.remove_instr g st;
  check "consistent after removals";
  G.restore g snap;
  Alcotest.(check bool) "restore brings the chains back" true
    (chain_state g = before);
  let c = G.copy g in
  G.remove_instr g a;
  Alcotest.(check bool) "copy is independent" true
    (chain_state c = before && chains_consistent c && chains_consistent g)

(* Random mutation sequences keep the chains equal to their definitions
   after every step.  No step touches the diamond's own instructions,
   and generated ones read only its parameter and constant, so each is
   unused and may be removed or moved freely. *)
let prop_effect_chains seed =
  let rs = Random.State.make [| seed |] in
  let pick l = List.nth l (Random.State.int rs (List.length l)) in
  let g, _, _ = figure1_graph () in
  let x = 0 and zero = 1 in
  let anchors = G.fold_instrs g (fun acc i -> i :: acc) [] in
  let kind () =
    match Random.State.int rs 11 with
    | 0 -> Load (x, "f")
    | 1 -> Store (x, "f", zero)
    | 2 -> Load_global "g"
    | 3 -> Store_global ("g", zero)
    | 4 -> Call ("h", [| x |])
    | 5 -> New ("C", [| zero |])
    | 6 -> Cmp (Lt, x, zero)
    | 7 -> Const (Random.State.int rs 9)
    | 8 -> Binop (Add, x, zero)
    | 9 -> Neg x
    | _ -> Not zero
  in
  let movable () =
    G.fold_instrs g
      (fun acc i ->
        if List.mem i anchors || G.block_of g i < 0 then acc else i :: acc)
      []
  in
  let detached = ref [] in
  let step () =
    let blocks = G.fold_blocks g (fun acc b -> b :: acc) [] in
    (match Random.State.int rs 9 with
    | 0 -> ignore (G.append g (pick blocks) (kind ()))
    | 1 -> ignore (G.prepend g (pick blocks) (kind ()))
    | 2 | 3 -> (
        match movable () with [] -> () | l -> G.set_kind g (pick l) (kind ()))
    | 4 -> (
        match movable () with
        | [] -> ()
        | l ->
            let i = pick l in
            G.detach g i;
            detached := i :: !detached)
    | 5 -> (
        match !detached with
        | [] -> ()
        | i :: rest ->
            detached := rest;
            (if Random.State.bool rs then G.attach else G.attach_front)
              g i (pick blocks))
    | 6 -> (
        match movable () with [] -> () | l -> G.remove_instr g (pick l))
    | 7 ->
        (* A block nothing reaches, swept with its members. *)
        let b = G.add_block g in
        for _ = 0 to Random.State.int rs 4 do
          ignore (G.append g b (kind ()))
        done;
        ignore (G.remove_unreachable_blocks g)
    | _ ->
        let b = G.add_block g in
        ignore (G.append g b (kind ()));
        G.remove_block g b);
    chains_consistent g
  in
  let rec steps n = n = 0 || (step () && steps (n - 1)) in
  steps 25
  &&
  let snap = G.snapshot g and before = chain_state g in
  let detached_before = !detached in
  steps 10
  && begin
       G.restore g snap;
       detached := detached_before;
       chains_consistent g && chain_state g = before
     end
  &&
  let copy = G.copy g in
  step () && chains_consistent copy && chain_state copy = before

(* ------------------------------------------------------------------ *)
(* The reachability bit                                                *)
(* ------------------------------------------------------------------ *)

(* A graph with every block reachable and the bit clear. *)
let swept g =
  ignore (G.remove_unreachable_blocks g);
  Alcotest.(check bool) "clear after a sweep" false (G.may_have_unreachable g);
  g

(* Folding the only edge into a loop strands the loop although its
   header keeps a predecessor (the back edge): the bit must be set, and
   one sweep removes the whole loop. *)
let test_bit_stranded_loop () =
  let prog = compile stranded_loop_src in
  let g = swept (Option.get (Ir.Program.find_function prog "main")) in
  fold_constant_guard g;
  Alcotest.(check bool) "set by the fold" true (G.may_have_unreachable g);
  let reach = G.rpo g in
  let stranded =
    G.fold_blocks g (fun acc b -> if List.mem b reach then acc else b :: acc) []
  in
  Alcotest.(check bool)
    "a stranded block keeps a predecessor" true
    (List.exists (fun b -> G.pred_count g b > 0) stranded);
  Alcotest.(check bool) "the sweep removes" true (G.remove_unreachable_blocks g);
  Alcotest.(check bool) "the whole loop is gone" true
    (List.for_all (fun b -> not (G.block_exists g b)) stranded);
  Alcotest.(check int) "every block reachable" (List.length (G.rpo g))
    (G.live_block_count g);
  Alcotest.(check bool) "clear again" false (G.may_have_unreachable g);
  check_verifies g;
  Alcotest.(check int) "result" 5 (run_int prog [ 5 ])

(* Edits that keep every successor strand nothing. *)
let test_bit_kept_successors () =
  let g, _, sum = figure1_graph () in
  let g = swept g in
  let merge = G.block_of g sum in
  let c7 = G.prepend g merge (Const 7) in
  G.patch_term g merge (Return (Some c7));
  let entry = G.entry g in
  (match G.term g entry with
  | Branch br -> G.set_term g entry (Branch { br with prob = 0.25 })
  | _ -> assert false);
  Alcotest.(check bool) "still clear" false (G.may_have_unreachable g);
  check_verifies g

(* [restore] brings back the snapshot's bit, clear or set. *)
let test_bit_restore () =
  let g, _, _ = figure1_graph () in
  let g = swept g in
  let snap = G.snapshot g in
  ignore (G.add_block g);
  Alcotest.(check bool) "set by a new block" true (G.may_have_unreachable g);
  G.restore g snap;
  Alcotest.(check bool) "clear after restore" false (G.may_have_unreachable g);
  ignore (G.add_block g);
  let snap = G.snapshot g in
  ignore (G.remove_unreachable_blocks g);
  G.restore g snap;
  Alcotest.(check bool) "set after restore" true (G.may_have_unreachable g);
  Alcotest.(check bool) "the stray block is swept" true
    (G.remove_unreachable_blocks g)

(* Duplicating a merge that is no loop header strands nothing: a clear
   bit stays clear, and a set one stays set. *)
let test_bit_duplicate () =
  let dup g phi =
    let merge = G.block_of g phi in
    let pred = List.hd (G.preds g merge) in
    ignore (Dbds.Transform.duplicate g ~merge ~pred)
  in
  let g, phi, _ = figure1_graph () in
  let g = swept g in
  dup g phi;
  Alcotest.(check bool) "clear after duplication" false
    (G.may_have_unreachable g);
  check_verifies g;
  let g, phi, _ = figure1_graph () in
  let g = swept g in
  let stray = G.add_block g in
  dup g phi;
  Alcotest.(check bool) "set after duplication" true (G.may_have_unreachable g);
  Alcotest.(check bool) "the stray block is swept" true
    (G.remove_unreachable_blocks g);
  Alcotest.(check bool) "stray gone" false (G.block_exists g stray);
  check_verifies g

(* A stamp set empties by taking a new stamp, also across the clear of
   its slots every 255th time, and grows on [add]. *)
let test_stampset () =
  (* A fresh set is empty before its first emptying. *)
  let fresh = Ir.Stampset.create () in
  Ir.Stampset.add fresh 5;
  Alcotest.(check (list bool)) "fresh members" [ true; false; false ]
    (List.map (Ir.Stampset.mem fresh) [ 5; 3; 0 ]);
  let set = Ir.Stampset.create () in
  Ir.Stampset.clear set;
  Ir.Stampset.add set 3;
  Ir.Stampset.add set 100;
  Alcotest.(check (list bool)) "members" [ true; true; false; false ]
    (List.map (Ir.Stampset.mem set) [ 3; 100; 2; 1_000 ]);
  for round = 1 to 600 do
    Ir.Stampset.clear set;
    if Ir.Stampset.mem set 3 || Ir.Stampset.mem set 100 then
      Alcotest.failf "round %d: an id survived emptying" round;
    Ir.Stampset.add set (round mod 3);
    if not (Ir.Stampset.mem set (round mod 3)) then
      Alcotest.failf "round %d: an added id is missing" round
  done

let suite =
  [
    test "build diamond" test_build_diamond;
    test "stamp sets empty by stamp" test_stampset;
    test "use lists" test_use_lists;
    test "replace uses" test_replace_uses;
    test "set_kind updates uses" test_set_kind_updates_uses;
    test "redirect edge" test_redirect_edge;
    test "remove pred drops phi input" test_remove_pred_drops_phi_input;
    test "copy is deep" test_copy_is_deep;
    test "verifier: bad phi arity" test_verifier_catches_bad_phi_arity;
    test "verifier: use before def" test_verifier_catches_use_before_def;
    test "verifier: stale use entry" test_verifier_stale_use;
    test "verifier: missing use entry" test_verifier_missing_use;
    test "verifier: use multiplicity per user" test_verifier_use_multiplicity;
    test "rpo order" test_rpo_order;
    test "detach/attach" test_detach_attach;
    test "print/parse/print fixed point" test_print_parse_print_fixpoint;
    test "jobs byte-identical (progen)" test_jobs_byte_identical;
    test "mutation log" test_mutation_log;
    test "effect chain and allocation index" test_effect_chain;
    qtest ~count:300 "effect chains follow random mutations"
      QCheck2.Gen.(int_bound 1_000_000)
      prop_effect_chains;
    test "reachability bit: a folded loop entry is swept"
      test_bit_stranded_loop;
    test "reachability bit: kept successors keep it clear"
      test_bit_kept_successors;
    test "reachability bit: restore brings it back" test_bit_restore;
    test "reachability bit: duplication keeps it" test_bit_duplicate;
  ]
