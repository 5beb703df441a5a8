(** Tests for the multicore fan-out: {!Ir.Parallel.map} semantics
    (order preservation, exception propagation) and the headline
    guarantee that [optimize_program_report ~jobs:k] is deterministic —
    printed graphs, per-function statistics and phase-context counters
    are byte-identical for any [k]. *)

open Helpers

exception Boom of int

let test_map_order () =
  let items = List.init 100 Fun.id in
  List.iter
    (fun jobs ->
      let got = Ir.Parallel.map ~jobs (fun x -> (x * x) + 1) items in
      let want = List.map (fun x -> (x * x) + 1) items in
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d preserves order" jobs)
        want got)
    [ 1; 2; 4; 7 ]

let test_map_empty_and_small () =
  Alcotest.(check (list int)) "empty" [] (Ir.Parallel.map ~jobs:4 succ []);
  Alcotest.(check (list int)) "singleton" [ 2 ] (Ir.Parallel.map ~jobs:4 succ [ 1 ]);
  (* More workers than items must not deadlock or duplicate work. *)
  Alcotest.(check (list int)) "jobs > n" [ 2; 3 ] (Ir.Parallel.map ~jobs:16 succ [ 1; 2 ])

let test_map_exception () =
  List.iter
    (fun jobs ->
      match
        Ir.Parallel.map ~jobs
          (fun x -> if x mod 3 = 2 then raise (Boom x) else x)
          (List.init 20 Fun.id)
      with
      | _ -> Alcotest.failf "jobs=%d: expected Boom" jobs
      | exception Boom x ->
          (* Earliest-indexed failure wins, deterministically. *)
          Alcotest.(check int)
            (Printf.sprintf "jobs=%d earliest failure" jobs)
            2 x)
    [ 1; 4 ]

(* Fingerprint an optimized program: every printed graph plus the
   aggregate statistics and phase-context counters.  Two runs are
   considered identical iff their fingerprints are byte-identical. *)
let optimize_fingerprint ~jobs prog =
  let config = Dbds.Config.dbds in
  let r = Dbds.Driver.optimize_program_report ~config ~jobs prog in
  let ctx = r.Dbds.Driver.rep_ctx and per_fn = r.Dbds.Driver.rep_stats in
  let buf = Buffer.create 4096 in
  Ir.Program.iter_functions prog (fun g ->
      Buffer.add_string buf (Ir.Printer.graph_to_string g);
      Buffer.add_char buf '\n');
  let t = Dbds.Driver.total_stats per_fn in
  Buffer.add_string buf
    (Format.asprintf "totals: %a@." Dbds.Driver.pp_stats t);
  Buffer.add_string buf
    (Printf.sprintf "work=%d hits=%d misses=%d\n" ctx.Opt.Phase.work
       ctx.Opt.Phase.analysis_hits ctx.Opt.Phase.analysis_misses);
  List.iter
    (fun (name, s) ->
      Buffer.add_string buf
        (Format.asprintf "%s: %a@." name Dbds.Driver.pp_stats s))
    per_fn;
  Buffer.contents buf

(* Satellite (c): across the whole workload registry, a sequential run
   and a 4-way parallel run of the optimizer must agree byte-for-byte. *)
let test_registry_determinism () =
  List.iter
    (fun suite ->
      List.iter
        (fun (b : Workloads.Suite.benchmark) ->
          let seq = optimize_fingerprint ~jobs:1 (Harness.Runner.compile_benchmark b) in
          let par = optimize_fingerprint ~jobs:4 (Harness.Runner.compile_benchmark b) in
          Alcotest.(check string)
            (Printf.sprintf "%s/%s jobs:1 = jobs:4" suite.Workloads.Suite.suite_name
               b.Workloads.Suite.name)
            seq par)
        suite.Workloads.Suite.benchmarks)
    Workloads.Registry.all

(* Same property over random programs, with a backtracking config so the
   per-attempt snapshot/restore is exercised under the domain fan-out. *)
let test_progen_determinism =
  qtest ~count:25 "progen: jobs:1 = jobs:3 (backtracking)"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let fingerprint jobs =
        let prog = compile (Workloads.Progen.generate ~seed ()) in
        let config = Dbds.Config.backtracking in
        let per_fn =
          (Dbds.Driver.optimize_program_report ~config ~jobs prog)
            .Dbds.Driver.rep_stats
        in
        let buf = Buffer.create 1024 in
        Ir.Program.iter_functions prog (fun g ->
            Buffer.add_string buf (Ir.Printer.graph_to_string g));
        Buffer.add_string buf
          (Format.asprintf "%a" Dbds.Driver.pp_stats
             (Dbds.Driver.total_stats per_fn));
        Buffer.contents buf
      in
      String.equal (fingerprint 1) (fingerprint 3))

let suite =
  [
    test "map preserves input order" test_map_order;
    test "map edge cases" test_map_empty_and_small;
    test "map re-raises earliest exception" test_map_exception;
    test "registry: jobs:1 = jobs:4" test_registry_determinism;
    test_progen_determinism;
  ]
