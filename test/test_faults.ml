(** Fault injection and crash containment: plan syntax, every named
    site fires, rollback byte-identity, jobs determinism under faults,
    crash-bundle round-trips and replay, paranoid mode, and the
    {!Ir.Parallel.map} join-all guarantee under repeated failures. *)

open Helpers
module F = Dbds.Faults
module D = Dbds.Driver

let figure1 =
  {|
  int main(int x) {
    int phi;
    if (x > 0) { phi = x; } else { phi = 0; }
    return 2 + phi;
  }
|}

(* Three functions, each with a merge, so multi-function containment
   and the jobs matrix have something to chew on (optimized with
   [~inline:false] to keep them separate compilation units). *)
let trio =
  {|
  int f(int x) { int a; if (x > 0) { a = x; } else { a = 1; } return a * 2; }
  int g(int x) { int b; if (x > 3) { b = x + 1; } else { b = 2; } return b + b; }
  int main(int x) { return f(x) + g(x); }
|}

let plan ?fn site hit = { F.seed = 0; site; hit; fn }

(* [name] is a [dbdsc -m] spelling ({!Dbds.Config.named}). *)
let report ?(name = "dbds") ?fault_plan ?(containment = true)
    ?(paranoid = false) ?bundle_dir ?(inline = true) ?(jobs = 1) src =
  let prog = compile src in
  let config =
    {
      (List.assoc name Dbds.Config.named) with
      Dbds.Config.fault_plan;
      containment;
      verify_between_phases = paranoid;
      bundle_dir;
    }
  in
  (prog, D.optimize_program_report ~config ~inline ~jobs prog)

let print_program prog =
  let buf = Buffer.create 1024 in
  Ir.Program.iter_functions prog (fun g ->
      Buffer.add_string buf (Ir.Printer.graph_to_string g);
      Buffer.add_char buf '\n');
  Buffer.contents buf

(* Fingerprint of a finished run: printed graphs, failures, stats and
   the contained counters — byte-equal fingerprints = identical runs. *)
let fingerprint prog (r : D.report) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (print_program prog);
  List.iter
    (fun (name, s) ->
      Buffer.add_string buf (Format.asprintf "%s: %a@." name D.pp_stats s))
    r.D.rep_stats;
  List.iter
    (fun f ->
      Buffer.add_string buf
        (Printf.sprintf "failure %s at %s: %s\n" f.D.fail_fn f.D.fail_site
           f.D.fail_exn))
    r.D.rep_failures;
  let ctx = r.D.rep_ctx in
  List.iter
    (fun (site, n) ->
      Buffer.add_string buf (Printf.sprintf "contained %s x%d\n" site n))
    ctx.Opt.Phase.contained;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Plan syntax                                                         *)
(* ------------------------------------------------------------------ *)

let test_plan_syntax () =
  List.iter
    (fun s ->
      match F.of_string s with
      | Ok p -> Alcotest.(check string) s s (F.to_string p)
      | Error msg -> Alcotest.failf "%s: %s" s msg)
    [
      "sim.opportunity:1";
      "transform.apply:3";
      "ssa.repair:2:main";
      "parallel.worker:1";
      "analyses.cache:7:hot_loop";
    ];
  (match F.of_string "seed:42" with
  | Ok p ->
      Alcotest.(check string)
        "seed:42 = of_seed 42"
        (F.to_string (F.of_seed 42))
        (F.to_string p)
  | Error msg -> Alcotest.failf "seed:42: %s" msg);
  List.iter
    (fun s ->
      match F.of_string s with
      | Ok p -> Alcotest.failf "%S parsed as %s" s (F.to_string p)
      | Error _ -> ())
    [ ""; "bogus:1"; "transform.apply"; "transform.apply:0"; "ssa.repair:x" ]

let test_of_seed_deterministic () =
  for seed = 0 to 50 do
    let a = F.of_seed seed and b = F.of_seed seed in
    Alcotest.(check string)
      (Printf.sprintf "seed %d stable" seed)
      (F.to_string a) (F.to_string b);
    Alcotest.(check bool) "hit positive" true (a.F.hit >= 1)
  done;
  (* Not all seeds map to one plan. *)
  let distinct =
    List.init 30 F.of_seed |> List.map F.to_string |> List.sort_uniq compare
  in
  Alcotest.(check bool) "seeds spread over plans" true (List.length distinct > 3)

(* ------------------------------------------------------------------ *)
(* Containment                                                         *)
(* ------------------------------------------------------------------ *)

(* Store sites are contained inside the artifact store as degraded
   operations (never driver failures) — their firing is asserted in the
   service suite. *)
let test_every_site_fires () =
  List.iter
    (fun site ->
      let name = F.site_to_string site in
      let _, r = report figure1 ~fault_plan:(plan site 1) in
      match r.D.rep_failures with
      | [ f ] ->
          Alcotest.(check string) (name ^ " site recorded") name f.D.fail_site;
          Alcotest.(check string) (name ^ " function") "main" f.D.fail_fn
      | l ->
          Alcotest.failf "%s: expected exactly one failure, got %d" name
            (List.length l))
    F.pipeline_sites

let test_rollback_byte_identity () =
  List.iter
    (fun (tag, site) ->
      let prog, r = report figure1 ~name:tag ~fault_plan:(plan site 1) in
      match r.D.rep_failures with
      | [ f ] ->
          let g = Option.get (Ir.Program.find_function prog "main") in
          Alcotest.(check string)
            (tag ^ ": graph = pre-attempt IR")
            f.D.fail_pre_ir
            (Ir.Printer.graph_to_string g);
          check_verifies g;
          (* Zeroed stats for the contained function. *)
          let s = List.assoc "main" r.D.rep_stats in
          Alcotest.(check int) (tag ^ ": no dup recorded") 0
            s.D.duplications_performed
      | l -> Alcotest.failf "%s: expected one failure, got %d" tag (List.length l))
    [
      ("dbds", F.Transform_apply);
      ("dupalot", F.Ssa_repair);
      ("backtracking", F.Transform_apply);
    ]

(* The undo is exact beyond the printed IR: a contained function is back
   at its pre-attempt generation, so the analyses cached before the
   attempt are still valid — physically the same dominator tree.  The
   second branch re-tests the first one's condition, so condelim-dup
   duplicates too; the baseline mode never reaches these sites. *)
let test_containment_restores_cache () =
  let src =
    {|
    int main(int x) {
      int a;
      if (x > 0) { a = 1; } else { a = 2; }
      if (x > 0) { a = a + 3; }
      return a;
    }
  |}
  in
  List.iter
    (fun (tag, site) ->
      let prog = compile src in
      let g = Option.get (Ir.Program.find_function prog "main") in
      let dom0 = Ir.Analyses.dom g in
      let gen0 = Ir.Graph.generation g in
      let config =
        {
          (List.assoc tag Dbds.Config.named) with
          Dbds.Config.fault_plan = Some (plan site 1);
        }
      in
      let r = D.optimize_program_report ~config ~inline:false ~jobs:1 prog in
      Alcotest.(check int) (tag ^ ": one contained failure") 1
        (List.length r.D.rep_failures);
      Alcotest.(check int) (tag ^ ": pre-attempt generation") gen0
        (Ir.Graph.generation g);
      Alcotest.(check bool) (tag ^ ": pre-attempt dom revived") true
        (Ir.Analyses.dom g == dom0))
    [
      ("dbds", F.Transform_apply);
      ("dupalot", F.Transform_apply);
      ("backtracking", F.Transform_apply);
      ("condelim-dup", F.Ssa_repair);
    ]

let test_contained_program_still_runs () =
  let prog, r = report figure1 ~fault_plan:(plan F.Transform_apply 1) in
  Alcotest.(check int) "one contained failure" 1 (List.length r.D.rep_failures);
  Alcotest.(check int) "main still computes" 7 (run_int prog [ 5 ])

let test_containment_off_escapes () =
  let prog = compile figure1 in
  let config =
    {
      Dbds.Config.default with
      Dbds.Config.fault_plan = Some (plan F.Transform_apply 1);
      containment = false;
    }
  in
  match D.optimize_program_report ~config ~jobs:1 prog with
  | _ -> Alcotest.fail "expected the injected fault to escape"
  | exception F.Injected { site = F.Transform_apply; hit = 1 } -> ()

let test_never_firing_plan_noop () =
  let _, quiet = report figure1 ~fault_plan:(plan F.Transform_apply 1000) in
  Alcotest.(check int) "no failures" 0 (List.length quiet.D.rep_failures);
  let prog_a, _ = report figure1 ~fault_plan:(plan F.Transform_apply 1000) in
  let prog_b, _ = report figure1 in
  Alcotest.(check string) "same optimized program" (print_program prog_b)
    (print_program prog_a)

let test_fn_scoped_plan () =
  let prog, r =
    report trio ~inline:false
      ~fault_plan:(plan ~fn:"g" F.Parallel_worker 1)
  in
  (match r.D.rep_failures with
  | [ f ] -> Alcotest.(check string) "only g fails" "g" f.D.fail_fn
  | l -> Alcotest.failf "expected one failure, got %d" (List.length l));
  (* f and main still optimized and the program still runs. *)
  Alcotest.(check bool) "other functions optimized" true
    ((D.total_stats r.D.rep_stats).D.duplications_performed > 0);
  Alcotest.(check int) "program runs" ((5 * 2) + (6 + 6)) (run_int prog [ 5 ])

let test_jobs_determinism_under_faults () =
  List.iter
    (fun site ->
      let fp jobs =
        let prog, r =
          report trio ~inline:false ~jobs ~fault_plan:(plan site 1)
        in
        fingerprint prog r
      in
      Alcotest.(check string)
        (F.site_to_string site ^ ": jobs:1 = jobs:4")
        (fp 1) (fp 4))
    [ F.Sim_opportunity; F.Transform_apply; F.Parallel_worker ]

let test_contained_counters () =
  let _, r = report trio ~inline:false ~fault_plan:(plan F.Parallel_worker 1) in
  let ctx = r.D.rep_ctx in
  Alcotest.(check int) "three contained" 3 (Opt.Phase.contained_total ctx);
  Alcotest.(check (list (pair string int)))
    "per-site breakdown"
    [ ("parallel.worker", 3) ]
    ctx.Opt.Phase.contained

(* ------------------------------------------------------------------ *)
(* Crash bundles                                                       *)
(* ------------------------------------------------------------------ *)

let test_bundle_render_parse () =
  let g = Option.get (Ir.Program.find_function (compile figure1) "main") in
  let b =
    {
      Dbds.Bundle.b_fn = "main";
      b_site = "transform.apply";
      b_exn = "Faults.Injected(transform.apply, hit 1)";
      b_plan = Some (plan F.Transform_apply 1);
      b_config = Dbds.Config.dupalot;
      b_ir = Ir.Printer.graph_to_string g;
    }
  in
  let b' = Dbds.Bundle.parse (Dbds.Bundle.render b) in
  Alcotest.(check string) "fn" b.Dbds.Bundle.b_fn b'.Dbds.Bundle.b_fn;
  Alcotest.(check string) "site" b.Dbds.Bundle.b_site b'.Dbds.Bundle.b_site;
  Alcotest.(check string) "exn" b.Dbds.Bundle.b_exn b'.Dbds.Bundle.b_exn;
  Alcotest.(check string) "ir" b.Dbds.Bundle.b_ir b'.Dbds.Bundle.b_ir;
  Alcotest.(check bool) "plan" true (b.Dbds.Bundle.b_plan = b'.Dbds.Bundle.b_plan);
  Alcotest.(check bool) "config" true
    (b.Dbds.Bundle.b_config = b'.Dbds.Bundle.b_config);
  Alcotest.check_raises "malformed"
    (Dbds.Bundle.Malformed "not a dbds-bundle v1 file") (fun () ->
      ignore (Dbds.Bundle.parse "junk"))

(* The retired tiered VM wrote the profile its compile ran under into a
   [--- profile ---] section.  Replaying such a bundle under the IR's
   static probabilities would not be the compile that crashed, so the
   reader refuses it. *)
let test_bundle_profile_section_refused () =
  let ir =
    Ir.Printer.graph_to_string
      (Option.get (Ir.Program.find_function (compile figure1) "main"))
  in
  let text =
    Dbds.Bundle.render
      {
        Dbds.Bundle.b_fn = "main";
        b_site = "transform.apply";
        b_exn = "test";
        b_plan = None;
        b_config = Dbds.Config.dbds;
        b_ir = ir;
      }
  in
  (* [render] ends with the IR marker line and the IR itself. *)
  let ir_section = "--- ir ---\n" ^ ir in
  let header =
    String.sub text 0 (String.length text - String.length ir_section)
  in
  let with_profile =
    header ^ "--- profile ---\nmain 2 12 13\n" ^ ir_section
  in
  (match Dbds.Bundle.parse with_profile with
  | _ -> Alcotest.fail "a bundle with a profile section parsed"
  | exception Dbds.Bundle.Malformed _ -> ());
  Alcotest.(check string) "the same bundle without it parses" "main"
    (Dbds.Bundle.parse text).Dbds.Bundle.b_fn

let test_bundle_write_and_replay () =
  let dir = Filename.temp_dir "dbds-bundles" "" in
  let _, r =
    report figure1 ~fault_plan:(plan F.Transform_apply 1) ~bundle_dir:dir
  in
  match r.D.rep_failures with
  | [ f ] -> (
      let path = Option.get f.D.fail_bundle in
      let b = Dbds.Bundle.read path in
      Alcotest.(check string) "bundle fn" "main" b.Dbds.Bundle.b_fn;
      Alcotest.(check string) "bundle ir = pre-attempt ir" f.D.fail_pre_ir
        b.Dbds.Bundle.b_ir;
      match D.replay_bundle b with
      | `Reproduced f' ->
          Alcotest.(check string) "same site on replay" f.D.fail_site
            f'.D.fail_site
      | `Clean -> Alcotest.fail "replay did not reproduce the crash")
  | l -> Alcotest.failf "expected one failure, got %d" (List.length l)

let test_bundle_replay_clean_without_plan () =
  (* Strip the fault plan: the same IR must now optimize cleanly. *)
  let dir = Filename.temp_dir "dbds-bundles" "" in
  let _, r =
    report figure1 ~fault_plan:(plan F.Sim_opportunity 1) ~bundle_dir:dir
  in
  let f = List.hd r.D.rep_failures in
  let b = Dbds.Bundle.read (Option.get f.D.fail_bundle) in
  match D.replay_bundle { b with Dbds.Bundle.b_plan = None } with
  | `Clean -> ()
  | `Reproduced f' ->
      Alcotest.failf "unexpected failure without the plan: %s" f'.D.fail_exn

(* ------------------------------------------------------------------ *)
(* Paranoid mode                                                       *)
(* ------------------------------------------------------------------ *)

let test_paranoid_clean_run () =
  let prog_p, r = report trio ~inline:false ~paranoid:true in
  Alcotest.(check int) "no failures" 0 (List.length r.D.rep_failures);
  let prog, _ = report trio ~inline:false in
  Alcotest.(check string) "same result as non-paranoid" (print_program prog)
    (print_program prog_p)

let test_paranoid_over_workloads () =
  (* Paranoid verification must stay silent over the whole registry —
     every phase leaves valid SSA behind on every benchmark. *)
  let b = List.hd Workloads.Micro.suite.Workloads.Suite.benchmarks in
  let prog = Harness.Runner.compile_benchmark b in
  let config = Dbds.Config.paranoid in
  let r = D.optimize_program_report ~config ~jobs:2 prog in
  Alcotest.(check int) "no paranoid failures" 0 (List.length r.D.rep_failures)

(* ------------------------------------------------------------------ *)
(* Parallel.map under failure                                          *)
(* ------------------------------------------------------------------ *)

exception Boom of int

let test_parallel_map_survives_repeated_failure () =
  (* A hundred raising maps in a row must neither wedge (leaked
     domains) nor corrupt later maps. *)
  for i = 0 to 99 do
    match
      Ir.Parallel.map ~jobs:4
        (fun x -> if x = i mod 20 then raise (Boom x) else x)
        (List.init 20 Fun.id)
    with
    | _ -> Alcotest.fail "expected Boom"
    | exception Boom x -> Alcotest.(check int) "failing index" (i mod 20) x
  done;
  Alcotest.(check (list int)) "pool still healthy" [ 1; 2; 3 ]
    (Ir.Parallel.map ~jobs:4 succ [ 0; 1; 2 ])

(* Arming belongs to one system thread: threads armed for a site and
   parked mid-run (dispatchers in the middle of a store lookup, say)
   must not make the site fire in another thread of their domain, nor
   lose their own count to each other. *)
let test_arming_is_thread_local () =
  let plan = { F.seed = 0; site = F.Store_read; hit = 1; fn = None } in
  let fires () =
    match F.hit F.Store_read with () -> false | exception F.Injected _ -> true
  in
  let m = Mutex.create () and c = Condition.create () in
  let armed = ref 0 and released = ref false in
  let armed_thread fired =
    Thread.create
      (fun () ->
        F.armed (Some plan) ~fn:"main" (fun () ->
            Mutex.protect m (fun () ->
                incr armed;
                Condition.broadcast c;
                while not !released do
                  Condition.wait c m
                done);
            fired := fires ()))
      ()
  in
  let fired1 = ref false and fired2 = ref false in
  let t1 = armed_thread fired1 and t2 = armed_thread fired2 in
  Mutex.protect m (fun () ->
      while !armed < 2 do
        Condition.wait c m
      done);
  Alcotest.(check bool) "an unarmed thread beside them never fires" false
    (fires ());
  Mutex.protect m (fun () ->
      released := true;
      Condition.broadcast c);
  Thread.join t1;
  Thread.join t2;
  Alcotest.(check (pair bool bool))
    "each armed thread fires on its own first hit" (true, true)
    (!fired1, !fired2)

let suite =
  [
    test "plan syntax round-trips" test_plan_syntax;
    test "of_seed is deterministic" test_of_seed_deterministic;
    test "every site fires" test_every_site_fires;
    test "rollback is byte-identical" test_rollback_byte_identity;
    test "containment restores generation and analysis cache"
      test_containment_restores_cache;
    test "contained program still runs" test_contained_program_still_runs;
    test "containment off lets faults escape" test_containment_off_escapes;
    test "never-firing plan is a no-op" test_never_firing_plan_noop;
    test "fn-scoped plan hits one function" test_fn_scoped_plan;
    test "jobs:1 = jobs:4 under faults" test_jobs_determinism_under_faults;
    test "contained counters aggregate" test_contained_counters;
    test "bundle render/parse round-trip" test_bundle_render_parse;
    test "bundle with a profile section is refused"
      test_bundle_profile_section_refused;
    test "bundle write + replay reproduces" test_bundle_write_and_replay;
    test "bundle replays clean without plan" test_bundle_replay_clean_without_plan;
    test "paranoid clean run is silent" test_paranoid_clean_run;
    test "paranoid over a workload" test_paranoid_over_workloads;
    test "Parallel.map survives repeated failure"
      test_parallel_map_survives_repeated_failure;
    test "arming is thread-local" test_arming_is_thread_local;
  ]
