(** The deterministic whole-system simulator: same-seed replay, chaos
    sweeps over the full service stack, the end-to-end invariant
    (byte-identical IR or a clean contained failure), the shrinker on a
    deliberately injected corruption, seeded client backoff, monotonic
    deadlines under wall-clock jumps, and the stale-socket probe. *)

open Helpers
module F = Dbds.Faults
module H = Simtest.Harness
module Sim = Simtest.Sched
module Simio = Simtest.Simio

let fault ?fn site hit = { F.seed = 0; site; hit; fn }

(* The whole point: a seed names a schedule.  Two runs of the same
   seed execute the same events at the same virtual times and answer
   every request identically; a different seed takes a different
   schedule. *)
let test_same_seed_same_trace () =
  let spec = H.builder ~seed:42 () in
  let a = H.run spec in
  let b = H.run spec in
  Alcotest.(check string) "same trace hash" a.H.r_trace_hash b.H.r_trace_hash;
  Alcotest.(check int) "same event count" a.H.r_events b.H.r_events;
  Alcotest.(check bool) "same outcomes" true (a.H.r_outcomes = b.H.r_outcomes);
  Alcotest.(check (list (pair string int)))
    "same outcome histogram" a.H.r_counts b.H.r_counts;
  let c = H.run (H.with_seed 43 spec) in
  Alcotest.(check bool) "different seed takes a different schedule" true
    (c.H.r_trace_hash <> a.H.r_trace_hash)

(* Seeded chaos — drops, latency spikes, partitions, slow disks, clock
   jumps — must never produce a violation: every request ends in the
   oracle's bytes or a clean, visible failure. *)
let test_chaos_sweep_holds_invariant () =
  let results = H.run_seeds ~seeds:3 (H.builder ~seed:100 ()) in
  List.iter
    (fun (r : H.result) ->
      Alcotest.(check (list string))
        (Printf.sprintf "seed %d clean" r.H.r_spec.H.seed)
        []
        (List.map (fun v -> v.H.vio_kind ^ ": " ^ v.H.vio_detail) r.H.r_violations);
      Alcotest.(check bool) "every request accounted for" true
        (List.fold_left (fun acc (_, n) -> acc + n) 0 r.H.r_counts
        = r.H.r_spec.H.clients * r.H.r_spec.H.requests_per_client))
    results

(* The deliberate bug the checker exists for: [store.corrupt] mutates
   a published artifact under a valid checksum.  The invariant checker
   must flag it, the shrinker must reduce the schedule, and the bundle
   must replay to the identical trace. *)
let test_corrupt_shrinks_and_replays () =
  let spec =
    H.builder ~seed:7 ()
    |> H.with_fault (fault ~fn:"main" F.Store_corrupt 1)
  in
  let r = H.run spec in
  Alcotest.(check bool) "corruption violates" true (H.violating r);
  Alcotest.(check bool) "flagged as wrong-artifact" true
    (List.exists (fun v -> v.H.vio_kind = "wrong-artifact") r.H.r_violations);
  match H.shrink spec with
  | None -> Alcotest.fail "shrinker lost the violation"
  | Some (min_spec, kind) ->
      Alcotest.(check string) "shrunk to the same kind" "wrong-artifact" kind;
      Alcotest.(check bool) "topology minimized" true
        (min_spec.H.clients = 1 && min_spec.H.workers = 1
        && min_spec.H.chaos = 0
        && List.length min_spec.H.faults = 1);
      let min_r = H.run min_spec in
      Alcotest.(check bool) "minimal spec still violates" true
        (H.violating min_r);
      let dir = Filename.temp_dir "dbds-test-sim" ".bundles" in
      let path = H.write_bundle ~dir min_r in
      Fun.protect
        ~finally:(fun () ->
          (try Sys.remove path with Sys_error _ -> ());
          try Unix.rmdir dir with Unix.Unix_error _ -> ())
        (fun () ->
          let again = H.replay path in
          Alcotest.(check string) "bundle replays the exact schedule"
            min_r.H.r_trace_hash again.H.r_trace_hash;
          Alcotest.(check bool) "replay still violates" true
            (H.violating again))

(* Client backoff is drawn from the simulator's seeded generator: the
   retry cadence against a dead socket is a pure function of the seed,
   and the total deadline bounds it. *)
let test_client_backoff_deterministic () =
  let attempt seed =
    let sched = Sim.create ~seed () in
    let io = Simio.create sched in
    let env = Simio.env io in
    let got = ref None in
    let out =
      Sim.run sched (fun () ->
          match
            Service.Client.connect ~env ~deadline_s:1.0 ~sock:"/nope" ()
          with
          | _ -> Alcotest.fail "connect to nowhere succeeded"
          | exception Service.Client.Connect_failed { attempts; elapsed_s; last; _ }
            ->
              got := Some (attempts, elapsed_s, last))
    in
    Alcotest.(check bool) "clean schedule" true out.Sim.ok;
    match !got with
    | Some r -> r
    | None -> Alcotest.fail "no Connect_failed"
  in
  let a1, e1, last = attempt 3 in
  let a2, e2, _ = attempt 3 in
  Alcotest.(check int) "attempt count deterministic" a1 a2;
  Alcotest.(check (float 0.)) "elapsed deterministic" e1 e2;
  Alcotest.(check bool) "actually retried" true (a1 > 1);
  Alcotest.(check bool) "gave up within the deadline (+1 backoff)" true
    (e1 <= 2.0);
  Alcotest.(check bool) "structured error names the cause" true
    (last = Service.Env.Not_found)

(* Satellite check for the broker's monotonic deadlines: a wall-clock
   jump of an hour mid-run must not expire anything — every request
   still completes. *)
let test_deadlines_survive_clock_jump () =
  let spec =
    H.builder ~seed:11 ()
    |> H.with_chaos 0
    |> H.with_fault (fault F.Clock_jump 1)
    |> H.with_deadline_ms (Some 5000)
  in
  let r = H.run spec in
  Alcotest.(check (list string))
    "no violations" []
    (List.map (fun v -> v.H.vio_kind) r.H.r_violations);
  Alcotest.(check bool) "every request compiled (none timed out)" true
    (List.for_all (fun (k, _) -> k = "done" || k = "done-cache") r.H.r_counts)

(* The front door's stale-socket probe: a leftover socket file with no
   listener behind it is reclaimed; a *live* listener's socket is not. *)
let test_socket_probe () =
  let serve env sock () =
    let broker = Service.Broker.create ~env ~workers:1 ~store:None () in
    try Service.Frontdoor.serve ~env ~sock ~broker ()
    with Invalid_argument _ as e ->
      Service.Broker.shutdown broker;
      raise e
  in
  let sched = Sim.create ~seed:0 () in
  let io = Simio.create sched in
  let env = Simio.env io in
  let sock = "/run/x.sock" in
  let out =
    Sim.run sched (fun () ->
        (* Debris from a dead server: the file exists, nobody listens. *)
        env.Service.Env.write_file sock "";
        let server = env.Service.Env.spawn "frontdoor" (serve env sock) in
        let c =
          Service.Client.connect ~env ~deadline_s:5. ~io_deadline_s:10. ~sock ()
        in
        Alcotest.(check bool)
          "ping through the reclaimed socket" true (Service.Client.ping c);
        (* A second listener must refuse to steal the now-live socket. *)
        (match serve env sock () with
        | () -> Alcotest.fail "second listener stole a live socket"
        | exception Invalid_argument _ -> ());
        (match Service.Client.shutdown_server c with
        | Ok () -> ()
        | Error e -> Alcotest.failf "shutdown: %s" e);
        Service.Client.close c;
        server.Service.Env.join ())
  in
  Alcotest.(check (list (pair string string)))
    "no fiber crashed" [] out.Sim.crashed;
  Alcotest.(check (list string)) "no fiber hung" [] out.Sim.hung

(* A bundle that ran the retired tiered-VM warm-start step cannot
   replay without it, so the reader refuses it and names the field;
   [vm-warm: false], which every single-server bundle used to carry,
   still parses to the same spec. *)
(* A seed-77 single-server bundle with one extra field line. *)
let bundle_with extra =
  String.concat "\n"
    [
      "dbds-sim-bundle: v1";
      "seed: 77";
      "clients: 3";
      "requests-per-client: 4";
      "workers: 2";
      "queue-limit: 16";
      "chaos: 3";
      extra;
      "compile-delay-ms: 20";
      "deadline-ms: none";
      "faults: none";
      "trace-hash: d8a38c96eb11a695";
      "";
    ]

let test_vm_warm_bundle_refused () =
  (match H.parse_bundle (bundle_with "vm-warm: true") with
  | _ -> Alcotest.fail "a vm-warm: true bundle parsed"
  | exception H.Malformed_bundle msg ->
      Alcotest.(check bool)
        (Printf.sprintf "the error names the field (%s)" msg)
        true
        (String.length msg >= 8 && String.sub msg 0 8 = "vm-warm:"));
  Alcotest.(check bool) "vm-warm: false parses to the same spec" true
    (H.parse_bundle (bundle_with "vm-warm: false") = H.builder ~seed:77 ())

(* A bundle written by a simulated fleet run would replay silently as a
   single server, with a different trace: the reader refuses it. *)
let test_fleet_bundle_refused () =
  (match H.parse_bundle (bundle_with "nodes: 3") with
  | _ -> Alcotest.fail "a nodes: 3 bundle parsed"
  | exception H.Malformed_bundle msg ->
      Alcotest.(check string) "the error names the field"
        "nodes: 3: the multi-node fleet is retired" msg);
  Alcotest.(check bool) "nodes: 0 parses to the same spec" true
    (H.parse_bundle (bundle_with "nodes: 0") = H.builder ~seed:77 ())

let suite =
  [
    test "sim: same seed, same schedule" test_same_seed_same_trace;
    test "sim: chaos sweep holds the invariant" test_chaos_sweep_holds_invariant;
    test "sim: corruption is caught, shrunk and replayable"
      test_corrupt_shrinks_and_replays;
    test "sim: client backoff is seeded and bounded"
      test_client_backoff_deterministic;
    test "sim: deadlines are monotonic under clock jumps"
      test_deadlines_survive_clock_jump;
    test "sim: stale socket reclaimed, live socket refused"
      test_socket_probe;
    test "sim: a vm-warm bundle is refused" test_vm_warm_bundle_refused;
    test "sim: a fleet bundle is refused" test_fleet_bundle_refused;
  ]
