(** Tests for the incremental analysis cache ({!Ir.Analyses}): physical
    reuse on an unchanged graph, generation-bump invalidation on
    mutation, loop-factor keying, interaction with snapshot/restore,
    and cache effectiveness inside the DBDS driver loop. *)

open Ir.Types
module G = Ir.Graph
module B = Ir.Builder
open Helpers

(* entry -> (bt | bf) -> merge (phi) -> ret *)
let diamond () =
  let b = B.create ~name:"diamond" ~n_params:1 () in
  let x = B.param b 0 in
  let zero = B.const b 0 in
  let c = B.cmp b Gt x zero in
  let bt = B.new_block b in
  let bf = B.new_block b in
  let merge = B.new_block b in
  B.branch b c ~if_true:bt ~if_false:bf;
  B.switch b bt;
  B.jump b merge;
  B.switch b bf;
  B.jump b merge;
  let phi = B.phi b merge [ x; zero ] in
  B.switch b merge;
  B.ret b phi;
  B.finish b

let test_physical_reuse () =
  let g = diamond () in
  let d1 = Ir.Analyses.dom g in
  let d2 = Ir.Analyses.dom g in
  Alcotest.(check bool) "same physical dom" true (d1 == d2);
  let l1 = Ir.Analyses.loops g in
  let l2 = Ir.Analyses.loops g in
  Alcotest.(check bool) "same physical loops" true (l1 == l2);
  let f1 = Ir.Analyses.frequency g in
  let f2 = Ir.Analyses.frequency g in
  Alcotest.(check bool) "same physical frequency" true (f1 == f2);
  let s = Ir.Analyses.stats g in
  Alcotest.(check bool) "hits recorded" true (s.Ir.Analyses.hits >= 3);
  Alcotest.(check int) "three real computes" 3 s.Ir.Analyses.misses

let test_mutation_invalidates () =
  let g = diamond () in
  let d1 = Ir.Analyses.dom g in
  let gen_before = G.generation g in
  (* Any mutation must bump the generation... *)
  let k = G.append g (G.entry g) (Const 42) in
  Alcotest.(check bool) "generation bumped" true (G.generation g > gen_before);
  (* ...and invalidate the cached dominator tree. *)
  let d2 = Ir.Analyses.dom g in
  Alcotest.(check bool) "recomputed after mutation" true (not (d1 == d2));
  (* Unchanged again: the new tree is now stable. *)
  Alcotest.(check bool) "stable after recompute" true (d2 == Ir.Analyses.dom g);
  ignore k

let test_frequency_cached () =
  let g = diamond () in
  let f = Ir.Analyses.frequency g in
  Alcotest.(check bool) "cached" true (f == Ir.Analyses.frequency g)

let test_rollback_revives_cache () =
  let g = diamond () in
  let d0 = Ir.Analyses.dom g in
  let gen0 = G.generation g in
  let live0 = G.live_instr_count g in
  let printed0 = Ir.Printer.graph_to_string g in
  let snap = G.snapshot g in
  (* A real structural change: new block spliced onto the merge edge. *)
  let nb = G.add_block g in
  ignore (G.append g nb (Const 7));
  G.set_term g nb (Jump (G.entry g));
  Alcotest.(check bool) "dom recomputed after the change" true
    (not (d0 == Ir.Analyses.dom g));
  G.restore g snap;
  Alcotest.(check int) "generation restored" gen0 (G.generation g);
  Alcotest.(check int) "live count restored" live0 (G.live_instr_count g);
  Alcotest.(check string) "structure restored" printed0
    (Ir.Printer.graph_to_string g);
  check_verifies g;
  Alcotest.(check bool) "snapshot-time analysis revived" true
    (d0 == Ir.Analyses.dom g);
  Alcotest.check_raises "a snapshot restores once"
    (Invalid_argument "Graph.restore: snapshot already restored") (fun () ->
      G.restore g snap)

(* Keeping an attempt is dropping its snapshot; the next snapshot starts
   from the kept state. *)
let test_commit_keeps_mutations () =
  let g = diamond () in
  let live0 = G.live_instr_count g in
  ignore (G.snapshot g);
  ignore (G.append g (G.entry g) (Const 5));
  Alcotest.(check int) "mutation kept" (live0 + 1) (G.live_instr_count g);
  let snap = G.snapshot g in
  ignore (G.append g (G.entry g) (Const 6));
  G.restore g snap;
  Alcotest.(check int) "restored to the kept state" (live0 + 1)
    (G.live_instr_count g);
  check_verifies g

(* A single hot function: repeated simulation rounds over an unchanged
   graph must reuse the analyses instead of recomputing them (the
   acceptance criterion: fewer Dom.compute executions than rounds). *)
let loop_src =
  {|
    int main(int n) {
      int s = 0;
      int i = 0;
      while (i < n) @0.9 {
        int r;
        if (i % 2 == 0) @0.5 { r = i * 2; } else { r = 3; }
        s = s + r;
        i = i + 1;
      }
      return s;
    }
  |}

let test_simulation_round_reuses () =
  let prog = compile loop_src in
  let ctx = Opt.Phase.create ~program:prog () in
  let g = Option.get (Ir.Program.find_function prog "main") in
  (* First round computes, second round (graph unchanged) reuses. *)
  ignore (Dbds.Simulation.simulate ctx Dbds.Config.default g);
  let s1 = Ir.Analyses.stats g in
  ignore (Dbds.Simulation.simulate ctx Dbds.Config.default g);
  let s2 = Ir.Analyses.stats g in
  Alcotest.(check int) "no new computes on unchanged graph"
    s1.Ir.Analyses.misses s2.Ir.Analyses.misses;
  Alcotest.(check bool) "dom+loops+freq reused" true
    (s2.Ir.Analyses.hits >= s1.Ir.Analyses.hits + 3)

let test_driver_analysis_hits () =
  let prog = compile loop_src in
  let config =
    {
      Dbds.Config.dbds with
      Dbds.Config.passes =
        Dbds.Config.pipeline ~opts:[ ("iters", "4") ] (Some "dbds");
    }
  in
  let r = Dbds.Driver.optimize_program_report ~config ~jobs:1 prog in
  let ctx = r.Dbds.Driver.rep_ctx and stats = r.Dbds.Driver.rep_stats in
  let rounds =
    (Dbds.Driver.total_stats stats).Dbds.Driver.iterations_run
  in
  Alcotest.(check bool) "ran at least one round" true (rounds >= 1);
  Alcotest.(check bool) "cache hits observed" true (ctx.Opt.Phase.analysis_hits > 0)

(* ------------------------------------------------------------------ *)
(* The pass manager's region memo                                      *)
(* ------------------------------------------------------------------ *)

let classic name = Opt.Pipeline.resolve_classic name []

(* The classic group run to its fixpoint: every pass ends stamped clean
   at the final log position. *)
let settled () =
  let prog = compile loop_src in
  let ctx = Opt.Phase.create ~program:prog () in
  let g = Option.get (Ir.Program.find_function prog "main") in
  ignore (Opt.Pipeline.optimize ctx g);
  (ctx, g)

let stamp_at g name =
  Option.map (fun c -> c.Ir.Analyses.at) (Ir.Analyses.clean_stamp g name)

let test_empty_region () =
  let ctx, g = settled () in
  List.iter
    (fun name ->
      let p = classic name in
      let gen0 = G.generation g and work0 = ctx.Opt.Phase.work in
      Alcotest.(check (option int))
        (name ^ " stamped at the current position")
        (Some (G.log_length g)) (stamp_at g p.Opt.Phase.pass_name);
      Alcotest.(check bool) (name ^ " does not fire") false
        (Opt.Phase.run_pass ctx p g);
      Alcotest.(check int) (name ^ " charges nothing") work0 ctx.Opt.Phase.work;
      Alcotest.(check int) (name ^ " leaves the generation") gen0
        (G.generation g))
    Opt.Pipeline.classic_names

(* A rejected attempt: its mutations are logged, then undone.  The
   restore puts the log back where the clean stamps point, so no pass
   sees a region from the attempt. *)
let test_restore_rewinds_log () =
  let ctx, g = settled () in
  let pos = G.log_length g in
  let snap = G.snapshot g in
  let dead = G.append g (G.entry g) (Const 99) in
  ignore (G.append g (G.entry g) (Binop (Add, dead, dead)));
  Alcotest.(check bool) "the attempt was logged" true (G.log_length g > pos);
  G.restore g snap;
  Alcotest.(check int) "log rewound" pos (G.log_length g);
  Alcotest.(check (option int)) "stamps still at the rewound position"
    (Some pos) (stamp_at g "dce");
  let work0 = ctx.Opt.Phase.work in
  Alcotest.(check bool) "no phantom region for dce" false
    (Opt.Phase.run_pass ctx (classic "dce") g);
  Alcotest.(check int) "nothing charged" work0 ctx.Opt.Phase.work

let test_copy_starts_fresh () =
  let _, g = settled () in
  Alcotest.(check bool) "the original has a log" true (G.log_length g > 0);
  let c = G.copy g in
  Alcotest.(check int) "empty log" 0 (G.log_length c);
  List.iter
    (fun name ->
      Alcotest.(check (option int)) (name ^ " has no stamp") None
        (stamp_at c (classic name).Opt.Phase.pass_name))
    Opt.Pipeline.classic_names

(* Without a stamp every instruction-level pass runs on the whole graph
   and charges one unit per live instruction, as before regions. *)
let test_whole_run_charge () =
  List.iter
    (fun name ->
      let prog = compile loop_src in
      let ctx = Opt.Phase.create ~program:prog () in
      let g = Option.get (Ir.Program.find_function prog "main") in
      let live = G.live_instr_count g in
      ignore (Opt.Phase.run_pass ctx (classic name) g);
      Alcotest.(check int) (name ^ " charges the live count") live
        ctx.Opt.Phase.work)
    [ "canon"; "sccp"; "gvn"; "dce" ]

(* Read elimination and conditional elimination walk the effect chains
   of the blocks their dominator walk reaches: 1 per block plus 1 per
   member.  PEA sweeps the unreachable blocks (1 per live block) and
   then the allocation index (1 per allocation, per sweep: the sweep
   that replaces the one allocation here, then an empty one). *)
let test_effect_chain_charge () =
  let src =
    {|
      class A { int x; }
      int main(int n) {
        A a = new A(n);
        int s = 0;
        int i = 0;
        while (i < n) @0.9 {
          if (a.x > i) @0.5 { a.x = a.x - 1; } else { s = s + a.x; }
          i = i + 1;
        }
        if (a == null) { return 0; }
        return s + a.x;
      }
    |}
  in
  let fresh () =
    let prog = compile src in
    ( Opt.Phase.create ~program:prog (),
      Option.get (Ir.Program.find_function prog "main") )
  in
  let chain_walk g =
    let n = ref 0 in
    List.iter
      (fun b ->
        incr n;
        G.iter_effects g b (fun _ -> incr n))
      (G.rpo g);
    !n
  in
  List.iter
    (fun name ->
      let ctx, g = fresh () in
      let expected = chain_walk g in
      Alcotest.(check bool) "a chain is shorter than its block" true
        (expected < G.live_instr_count g + G.live_block_count g);
      ignore (Opt.Phase.run_pass ctx (classic name) g);
      Alcotest.(check int) (name ^ " charges its chain walk") expected
        ctx.Opt.Phase.work)
    [ "condelim"; "readelim" ];
  let ctx, g = fresh () in
  let expected = G.live_block_count g + List.length (G.allocations g) in
  Alcotest.(check int) "one allocation" 1 (List.length (G.allocations g));
  Alcotest.(check bool) "pea replaces it" true
    (Opt.Phase.run_pass ctx (classic "pea") g);
  Alcotest.(check int) "pea charges blocks and allocations" expected
    ctx.Opt.Phase.work

(* ------------------------------------------------------------------ *)
(* Reading the log: each live id once, in first-logged order          *)
(* ------------------------------------------------------------------ *)

let logged iter g ~since =
  let acc = ref [] in
  iter g ~since (fun id -> acc := id :: !acc);
  List.rev !acc

(* Instructions [a < b] and blocks [p < q], each logged twice after
   [since] in the order b, a and q, p, beside a logged instruction and
   a logged block that are deleted by the end. *)
let logged_twice () =
  let g = diamond () in
  let e = G.entry g in
  let a = G.append g e (Const 7) in
  let b = G.append g e (Const 8) in
  let dead = G.append g e (Const 9) in
  let p = G.add_block g and q = G.add_block g and gone = G.add_block g in
  G.start_log g;
  let since = G.log_length g in
  G.set_kind g b (Const 10);
  G.set_term g q (Return (Some b));
  G.set_kind g dead (Const 11);
  G.set_term g gone (Return (Some a));
  G.set_kind g a (Const 12);
  G.set_term g p (Return (Some a));
  G.set_kind g b (Const 13);
  G.set_term g q (Return None);
  G.remove_instr g dead;
  G.remove_block g gone;
  (g, since, [ b; a ], [ q; p ])

let test_region_log_once () =
  let g, since, instrs, blocks = logged_twice () in
  Alcotest.(check (list int)) "instructions" instrs
    (logged Opt.Region.iter_instrs g ~since);
  Alcotest.(check (list int)) "blocks" blocks
    (logged Opt.Region.iter_cfg_blocks g ~since);
  Alcotest.(check (list int)) "nothing after the end" []
    (logged Opt.Region.iter_instrs g ~since:(G.log_length g))

(* A call from inside another's callback sees the whole log, and the
   outer call still yields each id once, also when a call raised. *)
let test_region_log_nested () =
  let g, since, instrs, blocks = logged_twice () in
  let nested () =
    let inner_instrs = ref [] and inner_blocks = ref [] in
    let outer =
      logged
        (fun g ~since f ->
          Opt.Region.iter_instrs g ~since (fun id ->
              if !inner_instrs = [] then begin
                inner_instrs := logged Opt.Region.iter_instrs g ~since;
                inner_blocks := logged Opt.Region.iter_cfg_blocks g ~since;
                (* A nested call that raises leaves the outer one whole. *)
                match Opt.Region.iter_instrs g ~since (fun _ -> raise Exit) with
                | () -> Alcotest.fail "the callback did not raise"
                | exception Exit -> ()
              end;
              f id))
        g ~since
    in
    Alcotest.(check (list int)) "outer" instrs outer;
    Alcotest.(check (list int)) "inner instructions" instrs !inner_instrs;
    Alcotest.(check (list int)) "inner blocks" blocks !inner_blocks
  in
  nested ();
  (match Opt.Region.iter_cfg_blocks g ~since (fun _ -> raise Exit) with
  | () -> Alcotest.fail "the callback did not raise"
  | exception Exit -> ());
  nested ()

(* Reading a few entries of a 10,000-instruction graph's log allocates
   a few words, not a seen set the size of the arena. *)
let test_region_log_allocation () =
  let g = G.create ~n_params:0 () in
  let e = G.add_block g in
  G.set_entry g e;
  let last = ref 0 in
  for i = 1 to 10_000 do
    last := G.append g e (Const i)
  done;
  G.set_term g e (Return (Some !last));
  G.start_log g;
  let since = G.log_length g in
  for id = !last - 4 to !last do
    G.set_kind g id (Const (-id))
  done;
  let seen = ref 0 in
  let count _ = incr seen in
  Opt.Region.iter_instrs g ~since count;
  let w0 = Gc.minor_words () in
  Opt.Region.iter_instrs g ~since count;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "each logged id once per call" 10 !seen;
  if words > 64.0 then
    Alcotest.failf "iter_instrs allocated %.0f minor words (bound 64)" words

(* ------------------------------------------------------------------ *)
(* The log loops against a reference built on [iter_log]              *)
(* ------------------------------------------------------------------ *)

let tags = [ G.Instr; G.Lost_use; G.Cfg; G.Effect_removed ]

let live_for g what id =
  match what with
  | G.Instr | G.Lost_use -> G.instr_exists g id
  | G.Cfg | G.Effect_removed -> G.block_exists g id

(* [G.iter_log_ids] as a filter over [G.iter_log], with a table for the
   seen set. *)
let ref_iter_ids g what ~since f =
  let seen = Hashtbl.create 16 in
  G.iter_log g ~since (fun w id ->
      if w = what && live_for g what id && not (Hashtbl.mem seen id) then begin
        Hashtbl.replace seen id ();
        f id
      end)

let ref_exists g ~since p =
  let found = ref false in
  G.iter_log g ~since (fun w id -> if p w id then found := true);
  !found

let ref_beyond_deletions g ~effects ~since =
  ref_exists g ~since (fun w id ->
      match w with
      | G.Instr -> G.instr_exists g id
      | G.Cfg -> true
      | G.Effect_removed -> effects
      | G.Lost_use -> false)

let ref_sole_pred g b = match G.preds g b with [ p ] -> p | _ -> -1

(* Random mutations of a compiled function: instructions created,
   rewritten, moved and deleted, uses redirected, blocks created,
   wired and deleted.  Phis are left alone. *)
let mutate rs g =
  let pick l = List.nth l (Random.State.int rs (List.length l)) in
  let instrs () =
    G.fold_instrs g
      (fun acc i ->
        match G.kind g i with
        | Phi _ -> acc
        | _ -> if G.block_of g i >= 0 then i :: acc else acc)
      []
  in
  let blocks () = G.fold_blocks g (fun acc b -> b :: acc) [] in
  let kind operands =
    let x = pick operands and y = pick operands in
    match Random.State.int rs 7 with
    | 0 -> Const (Random.State.int rs 5)
    | 1 -> Binop (Add, x, y)
    | 2 -> Cmp (Lt, x, y)
    | 3 -> Load_global "g"
    | 4 -> Store_global ("g", x)
    | 5 -> Neg x
    | _ -> Call ("h", [| x |])
  in
  match instrs () with
  | [] -> ()
  | live -> (
      match Random.State.int rs 8 with
      | 0 -> ignore (G.append g (pick (blocks ())) (kind live))
      | 1 | 2 ->
          let i = pick live in
          let operands = List.filter (fun v -> v <> i) live in
          if operands <> [] then G.set_kind g i (kind operands)
      | 3 -> (
          match List.filter (fun i -> not (G.has_uses g i)) live with
          | [] -> ()
          | unused -> G.remove_instr g (pick unused))
      | 4 ->
          let i = pick live in
          G.detach g i;
          G.attach g i (pick (blocks ()))
      | 5 ->
          let v = pick live and by = pick live in
          if v <> by then G.replace_uses g v ~by
      | 6 ->
          (* A block nothing reaches, wired into the graph and swept. *)
          let b = G.add_block g in
          ignore (G.append g b (kind live));
          G.set_term g b (Jump (pick (blocks ())));
          ignore (G.remove_unreachable_blocks g)
      | _ ->
          let b = G.add_block g in
          G.remove_block g b)

(* One scan of [iter] from [since] whose callback may mutate the graph
   (entries it appends are not scanned), snapshot and restore it, or
   read the log again from inside: the trace of what it saw. *)
let active_scan iter g ~since ~seed =
  let rs = Random.State.make [| seed |] in
  let trace = Buffer.create 256 in
  let add fmt = Printf.bprintf trace fmt in
  iter g ~since (fun id ->
      add "%d;" id;
      match Random.State.int rs 6 with
      | 0 -> mutate rs g
      | 1 ->
          let s = G.snapshot g in
          mutate rs g;
          G.restore g s
      | 2 ->
          add "[";
          iter g ~since (fun id -> add "%d," id);
          add "]"
      | _ -> ());
  add " len=%d %s" (G.log_length g) (Ir.Printer.graph_to_string g);
  Buffer.contents trace

let prop_log_loops seed =
  let rs = Random.State.make [| seed |] in
  let prog =
    Lang.Frontend.compile
      (Workloads.Progen.generate ~n_helpers:1 ~depth:2 ~seed ())
  in
  let g = Option.get (Ir.Program.find_function prog "main") in
  G.start_log g;
  for _ = 1 to Random.State.int rs 30 do
    mutate rs g
  done;
  (* Undone mutations: the log rewinds to the snapshot's length. *)
  let s = G.snapshot g in
  for _ = 1 to Random.State.int rs 10 do
    mutate rs g
  done;
  if Random.State.bool rs then G.restore g s;
  if Random.State.int rs 4 = 0 then G.reset_log g;
  for _ = 1 to Random.State.int rs 30 do
    mutate rs g
  done;
  let fail fmt = QCheck2.Test.fail_reportf ("seed %d: " ^^ fmt) seed in
  let ids iter what ~since =
    let acc = ref [] in
    iter what ~since (fun id -> acc := id :: !acc);
    List.rev !acc
  in
  let len = G.log_length g in
  for since = 0 to len do
    List.iter
      (fun what ->
        (* A fresh set: never emptied before. *)
        let fresh what ~since = G.iter_log_ids g what ~since (Ir.Stampset.create ()) in
        if ids fresh what ~since <> ids (ref_iter_ids g) what ~since then
          fail "iter_log_ids from %d differs" since;
        if
          G.logged_since g what ~since
          <> ref_exists g ~since (fun w _ -> w = what)
        then fail "logged_since from %d differs" since)
      tags;
    List.iter
      (fun effects ->
        if
          G.changed_beyond_deletions g ~effects ~since
          <> ref_beyond_deletions g ~effects ~since
        then fail "changed_beyond_deletions from %d differs" since)
      [ false; true ]
  done;
  G.iter_blocks g (fun b ->
      if G.sole_pred g b <> ref_sole_pred g b then
        fail "sole_pred of b%d differs" b);
  let since = Random.State.int rs (len + 1) in
  let region = function
    | G.Instr -> Opt.Region.iter_instrs
    | _ -> Opt.Region.iter_cfg_blocks
  in
  List.iter
    (fun what ->
      (* Each scan from the same state: a snapshot restores once. *)
      let from_here scan =
        let s = G.snapshot g in
        let trace = active_scan scan g ~since ~seed in
        G.restore g s;
        trace
      in
      let expected =
        from_here (fun g ~since f -> ref_iter_ids g what ~since f)
      in
      let got = from_here (region what) in
      if got <> expected then
        fail "active %s scan from %d: %s@.expected %s"
          (if what = G.Instr then "instruction" else "block")
          since got expected)
    [ G.Instr; G.Cfg ];
  true

let suite =
  [
    test "physical reuse on unchanged graph" test_physical_reuse;
    test "mutation bumps generation and invalidates" test_mutation_invalidates;
    test "frequency cached" test_frequency_cached;
    test "rollback revives checkpoint-time cache" test_rollback_revives_cache;
    test "commit keeps mutations" test_commit_keeps_mutations;
    test "simulation rounds reuse analyses" test_simulation_round_reuses;
    test "driver records cache hits" test_driver_analysis_hits;
    test "empty region: no fire, no work, same generation" test_empty_region;
    test "restore rewinds the log with the stamps" test_restore_rewinds_log;
    test "copy starts with an empty log" test_copy_starts_fresh;
    test "whole-graph run charges the live count" test_whole_run_charge;
    test "whole-graph run charges effect chains" test_effect_chain_charge;
    test "region: each logged id once, first-logged order" test_region_log_once;
    test "region: nested and raising log reads" test_region_log_nested;
    test "region: a log read allocates no seen set" test_region_log_allocation;
    qtest ~count:100 "region: log loops match iter_log over random mutations"
      QCheck2.Gen.(int_bound 1_000_000)
      prop_log_loops;
  ]
