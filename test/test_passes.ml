(** Pass-manager tests: spec grammar round-trips, driver pipeline
    validation, preservation contracts (every declared-preserved analysis
    equals a fresh recompute after the pass, on random programs), and
    per-pass instrumentation determinism across [jobs]. *)

open Helpers

(* ------------------------------------------------------------------ *)
(* Spec grammar                                                        *)
(* ------------------------------------------------------------------ *)

let roundtrip s =
  match Opt.Spec.of_string s with
  | Error msg -> Alcotest.failf "%S did not parse: %s" s msg
  | Ok spec -> (
      let printed = Opt.Spec.to_string spec in
      match Opt.Spec.of_string printed with
      | Error msg -> Alcotest.failf "%S reprinted as unparseable %S: %s" s printed msg
      | Ok spec' ->
          Alcotest.(check string)
            (Printf.sprintf "%S round-trips via %S" s printed)
            printed (Opt.Spec.to_string spec');
          printed)

let test_spec_roundtrip () =
  let canonical =
    [
      "canon";
      "inline,fix{rounds=8}(canon,simplify,sccp,gvn,condelim,readelim,pea,dce),dbds{iters=3,paths=1,threshold=20}";
      "fix{rounds=2}(canon,dce)";
      "dbds{iters=5,paths=1,threshold=0.5}";
      "fix{rounds=8}(canon,fix{rounds=8}(gvn,dce))";
      "condelim_dup{iters=3}";
      "fix{rounds=8}(canon,gvn,dce),condelim_dup{iters=2}";
    ]
  in
  List.iter
    (fun s ->
      Alcotest.(check string) "canonical form is a fixed point" s (roundtrip s))
    canonical;
  (* Whitespace, long-form names, option order and spellings of one
     value are accepted but not canonical; defaults are written out. *)
  List.iter
    (fun (s, canonical) -> Alcotest.(check string) s canonical (roundtrip s))
    [
      ( " fix ( canon , dce ) , dbds { } ",
        "fix{rounds=8}(canon,dce),dbds{iters=3,paths=1,threshold=20}" );
      ("canonicalize,simplify-cfg", "canon,simplify");
      ( "dupalot{threshold=2e1,paths=02,iters=0x3}",
        "dupalot{iters=3,paths=2,threshold=20}" );
      ("dbds{threshold=-0}", "dbds{iters=3,paths=1,threshold=0}");
      ("dbds{threshold=0.1}", "dbds{iters=3,paths=1,threshold=0.1}");
    ]

let test_spec_errors () =
  let rejects s =
    match Opt.Spec.of_string s with
    | Error _ -> ()
    | Ok spec ->
        Alcotest.failf "%S parsed as %S" s (Opt.Spec.to_string spec)
  in
  List.iter rejects
    [ ""; "fix(canon"; "canon)"; "canon,,dce"; "fix()"; "a{x}"; "a{x=}"; "a b" ]

(* ------------------------------------------------------------------ *)
(* The spec check                                                      *)
(* ------------------------------------------------------------------ *)

let spec_of s =
  match Opt.Spec.of_string s with
  | Ok spec -> spec
  | Error msg -> Alcotest.failf "%S: %s" s msg

let test_default_specs () =
  let printed config = Opt.Spec.to_string config.Dbds.Config.passes in
  let fix = "fix{rounds=8}(fix{rounds=8}(canon,simplify,gvn,condelim,readelim,pea,dce),sccp)" in
  Alcotest.(check string)
    "dbds"
    ("inline," ^ fix ^ ",dbds{iters=3,paths=1,threshold=20}")
    (printed Dbds.Config.dbds);
  Alcotest.(check string) "baseline" ("inline," ^ fix) (printed Dbds.Config.off);
  Alcotest.(check string)
    "backtracking runs the classic group again after the tier"
    ("inline," ^ fix ^ ",backtracking{iters=3}," ^ fix)
    (printed Dbds.Config.backtracking);
  Alcotest.(check string)
    "a custom fixpoint group keeps its members in their order"
    "inline,fix{rounds=8}(fix{rounds=8}(dce,gvn,canon),sccp)"
    (printed
       {
         Dbds.Config.off with
         Dbds.Config.passes = spec_of "inline,fix(fix(dce,gvn,canon),sccp)";
       });
  Alcotest.(check string)
    "the path extension is a tier option"
    ("inline," ^ fix ^ ",dbds{iters=3,paths=3,threshold=20}")
    (printed Dbds.Config.dbds_paths);
  Alcotest.(check string)
    "condelim_dup reruns the classic group after the tier"
    ("inline," ^ fix ^ ",condelim_dup{iters=3}," ^ fix)
    (printed Dbds.Config.condelim_dup)

let test_validate_spec () =
  let ok s =
    match Opt.Spec.of_string s with
    | Ok _ -> ()
    | Error msg -> Alcotest.failf "%S rejected: %s" s msg
  in
  let rejected ?(names = []) s =
    match Opt.Spec.of_string s with
    | Error msg ->
        List.iter
          (fun name ->
            if not (contains ~sub:name msg) then
              Alcotest.failf "%S: the refusal %S does not name %s" s msg name)
          names
    | Ok spec -> Alcotest.failf "%S accepted as %S" s (Opt.Spec.to_string spec)
  in
  ok "fix(dce,gvn,canon,simplify),dbds{iters=1}";
  ok "inline,canonicalize,simplify-cfg";
  ok "dupalot{iters=2,threshold=0.1},backtracking{iters=1}";
  ok "condelim_dup{iters=2}";
  ok "dupalot{paths=3}";
  ok "dbds{threshold=0}";
  rejected "bogus";
  rejected ~names:[ "licm" ] "inline,licm";
  rejected "canon{x=1}";
  rejected "dbds{iters=nope}";
  rejected "dbds{depth=3}";
  rejected "pea{rounds=2}";
  rejected "pea{max_rounds=2}";
  rejected "gvn{iters=2}";
  rejected "condelim_dup{threshold=0.5}";
  rejected "dbds{paths=0}";
  rejected "backtracking{paths=3}";
  rejected "fix(inline,canon)";
  (* Each option refusal names the pass, the key and the range. *)
  List.iter
    (fun (s, names) -> rejected ~names s)
    [
      ("inline,dbds{iters=-2}", [ "dbds"; "iters"; "an integer >= 1" ]);
      ("dbds{threshold=-5}", [ "dbds"; "threshold"; "a finite number >= 0" ]);
      ("dbds{threshold=nan}", [ "dbds"; "threshold"; "a finite number >= 0" ]);
      ("fix{rounds=-1}(canon)", [ "fix"; "rounds"; "an integer >= 1" ]);
      ("backtracking{iters=0}", [ "backtracking"; "iters"; "an integer >= 1" ]);
      ("condelim_dup{iters=-1}", [ "condelim_dup"; "iters"; "an integer >= 1" ]);
      ("dbds{iters=3,iters=4}", [ "dbds"; "iters"; "an integer >= 1" ]);
      ("dbds{iters=0}", [ "dbds"; "iters"; "an integer >= 1" ]);
      ("dbds{threshold=inf}", [ "dbds"; "threshold"; "a finite number >= 0" ]);
    ]

(* [describe_spec] backs `dbdsc --print-passes`: every per-function
   pass of the spec appears once, in order, with its declared
   contracts. *)
let test_describe_spec () =
  let config = Dbds.Config.default in
  let described s =
    Dbds.Driver.describe_spec config (spec_of s)
  in
  let names rows = List.map fst rows in
  Alcotest.(check (list string))
    "pipeline order, inline skipped, fix flattened, repeats collapsed"
    [ "canonicalize"; "dce"; "dbds" ]
    (names (described "inline,fix(canon,dce),dbds,canon"));
  let rows = described "fix(canon,gvn,dce),condelim_dup" in
  Alcotest.(check (list string))
    "classic passes and the tier are described"
    [ "canonicalize"; "gvn"; "dce"; "condelim_dup" ]
    (names rows);
  List.iter
    (fun name ->
      let preserves = List.assoc name rows in
      Alcotest.(check bool)
        (name ^ " declares all analyses preserved")
        true
        (List.length preserves = List.length Ir.Analyses.all_kinds))
    [ "dce" ]

(* The iterative tiers run the round's action-step group after each
   round: the classic group without SCCP, which the simulation never
   prices.  Other passes embed no group. *)
let test_round_action_steps () =
  let steps = Dbds.Driver.round_action_steps in
  let without_sccp =
    List.filter (fun n -> n <> "sccp") Opt.Pipeline.classic_names
  in
  Alcotest.(check (list string)) "dbds" without_sccp (steps "dbds");
  Alcotest.(check (list string)) "dupalot" without_sccp (steps "dupalot");
  List.iter
    (fun name ->
      Alcotest.(check (list string)) (name ^ " embeds none") [] (steps name))
    [ "backtracking"; "condelim_dup"; "gvn" ]

(* ------------------------------------------------------------------ *)
(* Preservation contracts (property, jobs 1 and 4 driver runs)         *)
(* ------------------------------------------------------------------ *)

let compile_seed seed =
  let src = Workloads.Progen.generate ~seed () in
  match Lang.Frontend.compile src with
  | prog -> (src, prog)
  | exception Lang.Frontend.Error msg ->
      QCheck2.Test.fail_reportf "seed %d: frontend failed: %s\n%s" seed msg src

let classic_passes =
  List.map
    (fun name -> Opt.Pipeline.resolve_classic name [])
    Opt.Pipeline.classic_names

(* After each classic pass, every analysis it declares preserved must
   equal a fresh recompute — on every function of a random program, with
   all three analyses primed so the claim is actually exercised. *)
let prop_preservation seed =
  let _src, prog = compile_seed seed in
  let ctx = Opt.Phase.create ~program:prog () in
  ctx.Opt.Phase.paranoid <- true;
  List.iter
    (fun name ->
      match Ir.Program.find_function prog name with
      | None -> ()
      | Some g ->
          List.iter
            (fun (pass : Opt.Phase.t) ->
              ignore (Ir.Analyses.dom g);
              ignore (Ir.Analyses.loops g);
              ignore (Ir.Analyses.frequency g);
              (try ignore (Opt.Phase.run_pass ctx pass g)
               with Opt.Phase.Contract_violated { pass; analysis; reason } ->
                 QCheck2.Test.fail_reportf
                   "seed %d: %s broke its %s preservation contract on %s: %s"
                   seed pass analysis name reason);
              List.iter
                (fun kind ->
                  match Ir.Analyses.check g kind with
                  | Ok () -> ()
                  | Error reason ->
                      QCheck2.Test.fail_reportf
                        "seed %d: after %s, preserved %s is stale on %s: %s"
                        seed pass.Opt.Phase.pass_name
                        (Ir.Analyses.kind_to_string kind)
                        name reason)
                pass.Opt.Phase.preserves)
            classic_passes)
    (Ir.Program.function_names prog);
  true

(* The full paranoid driver (verifier + contract audits after every
   pass) must contain nothing on clean programs — under jobs 1 and 4. *)
let prop_paranoid_driver seed =
  let _src, prog = compile_seed seed in
  List.iter
    (fun jobs ->
      let prog' = Ir.Program.copy prog in
      let report =
        Dbds.Driver.optimize_program_report ~config:Dbds.Config.paranoid ~jobs
          prog'
      in
      match report.Dbds.Driver.rep_failures with
      | [] -> ()
      | f :: _ ->
          QCheck2.Test.fail_reportf "seed %d: jobs=%d contained %s at %s" seed
            jobs f.Dbds.Driver.fail_fn f.Dbds.Driver.fail_site)
    [ 1; 4 ];
  true

(* Paranoid mode is one check in the pass manager: run a planted pass
   through [Opt.Manager.run] on a paranoid context, after [dce], and
   return what escapes.  [break-uses] empties a used value's use list,
   leaving a graph the verifier refuses; [lie-dom] claims to preserve
   the dominator tree while it folds a branch to a jump. *)
let run_planted name =
  let prog = compile stranded_loop_src in
  let g = Option.get (Ir.Program.find_function prog "main") in
  let resolve pass opts =
    match pass with
    | "break-uses" ->
        Opt.Phase.make pass (fun _ g ->
            let v =
              Ir.Graph.fold_instrs g
                (fun acc i ->
                  if acc = None && Ir.Graph.has_uses g i then Some i else acc)
                None
            in
            Ir.Graph.set_uses_unchecked g (Option.get v) [];
            true)
    | "lie-dom" ->
        Opt.Phase.make ~preserves:[ Ir.Analyses.Dom ] pass (fun _ g ->
            ignore (Ir.Analyses.dom g);
            fold_constant_guard g;
            true)
    | _ -> Opt.Pipeline.resolve_classic pass opts
  in
  let ctx = Opt.Phase.create ~program:prog () in
  ctx.Opt.Phase.paranoid <- true;
  match
    Opt.Manager.run resolve
      [
        Opt.Spec.Pass { name = "dce"; opts = [] };
        Opt.Spec.Pass { name; opts = [] };
      ]
      ctx g
  with
  | _ -> Alcotest.failf "%s: nothing escaped the paranoid check" name
  | exception e -> e

let test_paranoid_check_names_the_pass () =
  (match run_planted "break-uses" with
  | Opt.Phase.Phase_invalid { phase; _ } ->
      Alcotest.(check string) "the verify exception names the pass"
        "break-uses" phase
  | e -> Alcotest.failf "break-uses raised %s" (Printexc.to_string e));
  match run_planted "lie-dom" with
  | Opt.Phase.Contract_violated { pass; analysis; _ } ->
      Alcotest.(check (pair string string)) "the audit names pass and analysis"
        ("lie-dom", "dom") (pass, analysis)
  | e -> Alcotest.failf "lie-dom raised %s" (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Per-pass instrumentation                                            *)
(* ------------------------------------------------------------------ *)

(* The deterministic columns: everything except wall time and minor
   words, which per-domain scratch makes depend on [jobs]. *)
let table_key ctx =
  List.map
    (fun (name, (st : Opt.Phase.pass_stat)) ->
      (name, st.Opt.Phase.runs, st.Opt.Phase.fired, st.Opt.Phase.pwork,
       st.Opt.Phase.size_delta))
    (Opt.Phase.pass_table ctx)

let test_pass_table_determinism () =
  let _src, prog = compile_seed 42 in
  let run jobs =
    let prog' = Ir.Program.copy prog in
    let report = Dbds.Driver.optimize_program_report ~jobs prog' in
    let ctx = report.Dbds.Driver.rep_ctx in
    ( table_key ctx,
      ctx.Opt.Phase.work,
      ctx.Opt.Phase.analysis_hits,
      ctx.Opt.Phase.analysis_misses )
  in
  let t1, w1, h1, m1 = run 1 in
  let t4, w4, h4, m4 = run 4 in
  Alcotest.(check bool) "pass table has rows" true (t1 <> []);
  Alcotest.(check bool) "pass tables agree" true (t1 = t4);
  Alcotest.(check int) "work agrees" w1 w4;
  Alcotest.(check int) "analysis hits agree" h1 h4;
  Alcotest.(check int) "analysis misses agree" m1 m4

let test_pass_table_contents () =
  let _src, prog = compile_seed 7 in
  let report = Dbds.Driver.optimize_program_report ~jobs:1 prog in
  let table = Opt.Phase.pass_table report.Dbds.Driver.rep_ctx in
  List.iter
    (fun name ->
      match List.assoc_opt name table with
      | None -> Alcotest.failf "pass %s missing from the table" name
      | Some (st : Opt.Phase.pass_stat) ->
          Alcotest.(check bool)
            (name ^ " ran") true
            (st.Opt.Phase.runs > 0);
          Alcotest.(check bool)
            (name ^ " fired <= runs") true
            (st.Opt.Phase.fired <= st.Opt.Phase.runs))
    [ "canonicalize"; "dce"; "gvn"; "dbds" ]

(* Nothing charges outside a row: under [off] no pass runs inside
   another, so the rows, the program-level [inline] included, sum to
   the context's work. *)
let test_pass_table_accounts_for_work () =
  let _src, prog = compile_seed 7 in
  let ctx =
    (Dbds.Driver.optimize_program_report ~config:Dbds.Config.off ~jobs:1 prog)
      .Dbds.Driver.rep_ctx
  in
  let table = Opt.Phase.pass_table ctx in
  (match List.assoc_opt "inline" table with
  | Some (st : Opt.Phase.pass_stat) ->
      Alcotest.(check int) "inline runs once" 1 st.Opt.Phase.runs;
      Alcotest.(check bool) "inline charged" true (st.Opt.Phase.pwork > 0)
  | None -> Alcotest.fail "inline missing from the table");
  Alcotest.(check int) "rows sum to the work" ctx.Opt.Phase.work
    (List.fold_left
       (fun n (_, (st : Opt.Phase.pass_stat)) -> n + st.Opt.Phase.pwork)
       0 table)

(* Every paper program compiled under [config], with its report. *)
let paper_reports config =
  List.concat_map
    (fun (s : Workloads.Suite.t) ->
      List.map
        (fun (b : Workloads.Suite.benchmark) ->
          ( b.Workloads.Suite.name,
            Dbds.Driver.optimize_program_report ~config ~jobs:1
              (Workloads.Suite.compile b) ))
        s.Workloads.Suite.benchmarks)
    Workloads.Registry.all

let row table name =
  match List.assoc_opt name table with
  | Some (st : Opt.Phase.pass_stat) -> st
  | None -> Alcotest.failf "%s missing from the table" name

(* The DBDS round's tier rows nest inside the tier's own row and hold
   everything it charges outside the action steps' classic rows: every
   row but the tier's sums to the context's work. *)
let test_tier_rows_account_for_work () =
  List.iter
    (fun (label, config, tier) ->
      List.iter
        (fun (name, r) ->
          let ctx = r.Dbds.Driver.rep_ctx in
          let table = Opt.Phase.pass_table ctx in
          ignore (row table (tier ^ ".simulate"));
          Alcotest.(check int)
            (Printf.sprintf "%s under %s: leaf rows sum to the work" name label)
            ctx.Opt.Phase.work
            (List.fold_left
               (fun n (pass, (st : Opt.Phase.pass_stat)) ->
                 if pass = tier then n else n + st.Opt.Phase.pwork)
               0 table))
        (paper_reports config))
    [
      ("dbds", Dbds.Config.dbds, "dbds");
      ("dupalot", Dbds.Config.dupalot, "dupalot");
      ("dbds_paths", Dbds.Config.dbds_paths, "dbds");
    ]

(* One [dbds.simulate] run per round, and one fired [dbds.duplicate] run
   per duplication (dbds runs no §8 path steps). *)
let test_tier_rows_count_rounds () =
  let rounds = ref 0 and dups = ref 0 and sim_runs = ref 0 in
  let fired = ref 0 and tradeoff_runs = ref 0 in
  List.iter
    (fun (_, r) ->
      List.iter
        (fun (_, (s : Dbds.Driver.stats)) ->
          rounds := !rounds + s.Dbds.Driver.iterations_run;
          dups := !dups + s.Dbds.Driver.duplications_performed)
        r.Dbds.Driver.rep_stats;
      let table = Opt.Phase.pass_table r.Dbds.Driver.rep_ctx in
      let st name = row table name in
      sim_runs := !sim_runs + (st "dbds.simulate").Opt.Phase.runs;
      tradeoff_runs := !tradeoff_runs + (st "dbds.tradeoff").Opt.Phase.runs;
      match List.assoc_opt "dbds.duplicate" table with
      | Some d -> fired := !fired + d.Opt.Phase.fired
      | None -> ())
    (paper_reports Dbds.Config.dbds);
  Alcotest.(check bool) "duplications happened" true (!dups > 0);
  Alcotest.(check int) "simulate runs = rounds" !rounds !sim_runs;
  Alcotest.(check int) "tradeoff runs = rounds" !rounds !tradeoff_runs;
  Alcotest.(check int) "duplicate fired = duplications" !dups !fired

(* The baseline configuration rides the same parallel + containment
   path: deterministic merged context for any [jobs]. *)
let test_baseline_optimize_program_jobs () =
  let _src, prog = compile_seed 11 in
  let run jobs =
    let prog' = Ir.Program.copy prog in
    let ctx =
      (Dbds.Driver.optimize_program_report ~config:Dbds.Config.off
         ~inline:false ~jobs prog')
        .Dbds.Driver.rep_ctx
    in
    (table_key ctx, ctx.Opt.Phase.work, prog')
  in
  let t1, w1, p1 = run 1 in
  let t4, w4, p4 = run 4 in
  Alcotest.(check bool) "pass tables agree" true (t1 = t4);
  Alcotest.(check int) "work agrees" w1 w4;
  List.iter
    (fun name ->
      let ir p =
        Ir.Printer.graph_to_string (Option.get (Ir.Program.find_function p name))
      in
      Alcotest.(check string) (name ^ " IR identical") (ir p1) (ir p4))
    (Ir.Program.function_names p1)

(* A custom --passes reordering produces runnable, verifying IR with the
   same observable behavior. *)
let test_custom_pipeline_behavior () =
  let src, prog = compile_seed 23 in
  let config =
    {
      Dbds.Config.default with
      Dbds.Config.passes = spec_of "fix(dce,gvn,canon,simplify),dbds{iters=1}";
    }
  in
  let prog' = Ir.Program.copy prog in
  ignore (Dbds.Driver.optimize_program_report ~config prog');
  check_program_verifies prog';
  List.iter
    (fun args ->
      let a = run_int ~fuel:2_000_000 prog args
      and b = run_int ~fuel:2_000_000 prog' args in
      if a <> b then
        Alcotest.failf "custom pipeline diverged on seed 23: %d vs %d\n%s" a b
          src)
    [ [ 0; 0 ]; [ 1; 7 ]; [ -9; 3 ] ]

(* Regression: folding a branch in condelim can cut a whole region off
   the CFG; its blocks still hold edges into reachable merges.  The
   verifier must not demand dominance for phi inputs on those
   never-taken edges (seeds found by the paranoid fuzz property). *)
let test_paranoid_unreachable_pred () =
  List.iter
    (fun seed -> ignore (prop_paranoid_driver seed))
    [ 716681; 716889; 717255; 717439; 717648 ]

(* The classic group nests its region passes and runs SCCP once they
   settle: on the paper programs the region passes leave SCCP nothing,
   so the outer group stops after one SCCP run per function. *)
let test_sccp_runs_once_settled () =
  let runs = ref 0 and fired = ref 0 in
  List.iter
    (fun (s : Workloads.Suite.t) ->
      List.iter
        (fun b ->
          let r =
            Dbds.Driver.optimize_program_report ~config:Dbds.Config.dbds
              ~jobs:1 (Workloads.Suite.compile b)
          in
          let table = Opt.Phase.pass_table r.Dbds.Driver.rep_ctx in
          match List.assoc_opt "sccp" table with
          | Some st ->
              runs := !runs + st.Opt.Phase.runs;
              fired := !fired + st.Opt.Phase.fired
          | None -> ())
        s.Workloads.Suite.benchmarks)
    Workloads.Registry.all;
  Alcotest.(check int) "one sccp run per function" 58 !runs;
  Alcotest.(check int) "sccp never fires" 0 !fired

(* The one fold only SCCP makes: a loop-carried value that is constant
   only optimistically ([x = x * x] from [x = 1]); no region pass's copy
   or constant rule sees through the cycle. *)
let test_sccp_folds_optimistic_cycle () =
  let prog =
    compile
      {|
      int main(int n) {
        int x = 1;
        int i = 0;
        while (i < n) {
          x = x * x;
          i = i + 1;
        }
        return x;
      }
      |}
  in
  ignore
    (Dbds.Driver.optimize_program_report ~config:Dbds.Config.off ~jobs:1 prog);
  let g = Option.get (Ir.Program.find_function prog "main") in
  let returns =
    Ir.Graph.fold_blocks g
      (fun acc b ->
        match Ir.Graph.term g b with
        | Ir.Types.Return (Some v) -> Ir.Graph.kind g v :: acc
        | _ -> acc)
      []
  in
  Alcotest.(check bool) "main returns const 1" true
    (returns <> [] && List.for_all (( = ) (Ir.Types.Const 1)) returns);
  Alcotest.(check int) "no mul survives" 0
    (Ir.Graph.fold_instrs g
       (fun n id ->
         match Ir.Graph.kind g id with
         | Ir.Types.Binop (Ir.Types.Mul, _, _) -> n + 1
         | _ -> n)
       0);
  Alcotest.(check int) "result" 1 (run_int prog [ 5 ])

let seed_gen = QCheck2.Gen.int_bound 1_000_000

let suite =
  [
    test "spec round-trip" test_spec_roundtrip;
    test "spec errors" test_spec_errors;
    test "default specs" test_default_specs;
    test "validate spec" test_validate_spec;
    test "describe spec" test_describe_spec;
    test "pass table contents" test_pass_table_contents;
    test "pass table determinism (jobs 1 vs 4)" test_pass_table_determinism;
    test "pass table accounts for all work" test_pass_table_accounts_for_work;
    test "tier rows account for the work" test_tier_rows_account_for_work;
    test "tier rows count rounds and duplications" test_tier_rows_count_rounds;
    test "baseline optimize_program jobs" test_baseline_optimize_program_jobs;
    test "custom pipeline behavior" test_custom_pipeline_behavior;
    qtest ~count:60 "preservation contracts hold (progen)" seed_gen
      prop_preservation;
    qtest ~count:25 "paranoid driver contains nothing (jobs 1 and 4)" seed_gen
      prop_paranoid_driver;
    test "paranoid: unreachable phi predecessors (regression)"
      test_paranoid_unreachable_pred;
    test "paranoid: the check names the pass"
      test_paranoid_check_names_the_pass;
    test "round action steps omit sccp" test_round_action_steps;
    test "sccp runs once the region group settles" test_sccp_runs_once_settled;
    test "sccp still folds an optimistic cycle"
      test_sccp_folds_optimistic_cycle;
  ]
