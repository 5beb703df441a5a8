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
  ]
