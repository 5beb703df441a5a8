(** Whole-system simulation harness.

    Composes a complete compile-service topology — one front door
    ({!Service.Frontdoor}), a broker with W worker fibers and N client
    fibers — on top of the deterministic scheduler
    and the simulated environment, runs a seeded schedule with chaos
    faults (message drops, reorders, duplicates, partitions, slow
    disks, torn writes, clock jumps), and checks the end-to-end
    invariant:

    {e every request either receives the byte-identical optimized IR
    the offline oracle computes, or a clean, contained, client-visible
    failure (shed / timeout / transport error / corrupt-evict-miss) —
    never a hang, never a wrong artifact.}

    A violating seed can be {!shrink}-reduced to a minimal topology and
    fault plan, and any result can be written as a replayable
    {!write_bundle} (same grammar family as crash bundles).

    The builder is TestBuilder-shaped: start from {!builder}, chain
    [with_*] functions, finish with {!run} / {!run_seeds}. *)

module F = Dbds.Faults
module Env = Service.Env

(* ---- specs (the builder) -------------------------------------------- *)

type spec = {
  seed : int;
  clients : int;
  requests_per_client : int;
  workers : int;
  queue_limit : int;
  chaos : int;  (** number of fault plans derived from the seed *)
  faults : F.plan list;  (** explicit plans, on top of the derived ones *)
  compile_delay_s : float;  (** broker's artificial compile stretch *)
  deadline_ms : int option;  (** per-request deadline *)
  store_capacity : int;
}

let builder ?(seed = 0) () =
  {
    seed;
    clients = 3;
    requests_per_client = 4;
    workers = 2;
    queue_limit = 16;
    chaos = 3;
    faults = [];
    compile_delay_s = 0.02;
    deadline_ms = None;
    store_capacity = 256 * 1024;
  }

let with_seed seed b = { b with seed }
let with_clients clients b = { b with clients = max 1 clients }

let with_requests requests_per_client b =
  { b with requests_per_client = max 1 requests_per_client }

let with_workers workers b = { b with workers = max 1 workers }
let with_queue_limit queue_limit b = { b with queue_limit = max 1 queue_limit }
let with_chaos chaos b = { b with chaos = max 0 chaos }
let with_fault plan b = { b with faults = b.faults @ [ plan ] }
let with_faults faults b = { b with faults = b.faults @ faults }
let with_compile_delay compile_delay_s b = { b with compile_delay_s }
let with_deadline_ms deadline_ms b = { b with deadline_ms }

(** A no-op: the simulator runs one server.  Kept only because the
    frozen benchmark's [exercise_unmeasured] ([perfbench/pb.ml]) still
    calls [with_nodes 2]. *)
let with_nodes _ b = b

(* Chaos plans are a pure function of the seed: [chaos] draws over the
   environment sites, each with a small hit index.  Derivation is
   independent of the schedule, so the same seed always arms the same
   faults. *)
let chaos_plans ~seed n =
  let rng = Random.State.make [| 0xc4a05; seed |] in
  List.init n (fun _ ->
      let site =
        List.nth F.sim_sites (Random.State.int rng (List.length F.sim_sites))
      in
      let hit = 1 + Random.State.int rng 4 in
      { F.seed; site; hit; fn = None })

(* Explicit faults split by layer: environment sites arm the simulated
   network/disk/clock; everything else (store and pipeline sites,
   including the deliberate [store.corrupt] bug) travels in the
   request configuration's fault plan, exactly as a real client would
   arm it.  [Config.fault_plan] holds one plan — the first wins. *)
let split_faults plans =
  let is_sim p = List.mem p.F.site F.sim_sites in
  let sim, rest = List.partition is_sim plans in
  (sim, match rest with [] -> None | p :: _ -> Some p)

(* ---- results -------------------------------------------------------- *)

type request_outcome = {
  ro_client : int;
  ro_fn : string;
  ro_label : string;  (** outcome label, or "transport"/"unreached" *)
  ro_detail : string;
}

type violation = { vio_kind : string; vio_detail : string }

type result = {
  r_spec : spec;
  r_outcomes : request_outcome list;
  r_violations : violation list;
  r_trace_hash : string;  (** 16 hex digits; equal traces = equal runs *)
  r_events : int;
  r_vtime : float;
  r_counts : (string * int) list;  (** outcome label histogram *)
}

let violating r = r.r_violations <> []

(* The one-line rendering CLI sweeps and the pinned experiments output
   share: trace hash, event count, virtual time, outcome histogram. *)
let summary r =
  Printf.sprintf "trace %s, %d events, %.3fs virtual [%s]" r.r_trace_hash
    r.r_events r.r_vtime
    (String.concat " "
       (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) r.r_counts))

(* ---- the request pool and its oracle -------------------------------- *)

type request = { pr_fn : string; pr_ir : string; pr_digest : string }

(* The pool uses fixed generator seeds (not the run seed), so the
   offline oracle below is computed once per process and shared across
   a whole seed sweep. *)
let pool_config = { Dbds.Config.dbds with containment = true; bundle_dir = None }

let pool =
  lazy
    (let sources =
       List.init 2 (fun p ->
           Workloads.Progen.generate ~n_helpers:2 ~seed:(1000 + p) ())
     in
     (* Adversarial clients: the first benchmark of each workload-lab
        suite joins the pool, so the service is exercised with
        irreducible rings, giant switches, nested diamonds and
        cold-exit-heavy CFGs — not just progen's reducible shapes. *)
     let adversarial =
       List.concat_map
         (fun (s : Workloads.Suite.t) ->
           match s.Workloads.Suite.benchmarks with
           | b :: _ ->
               let prog = Workloads.Suite.compile b in
               List.filter_map
                 (Ir.Program.find_function prog)
                 (Ir.Program.function_names prog)
           | [] -> [])
         Workloads.Registry.adversarial
     in
     let fns =
       List.concat_map
         (fun src ->
           let prog = Lang.Frontend.compile src in
           List.filter_map
             (Ir.Program.find_function prog)
             (Ir.Program.function_names prog))
         sources
       @ adversarial
     in
     List.map
       (fun g ->
         let fn = Ir.Graph.name g in
         let ir = Ir.Printer.graph_to_string g in
         let digest =
           Service.Digest.of_request
             (Service.Digest.request_of_text ~config:pool_config ~fn ir)
         in
         { pr_fn = fn; pr_ir = ir; pr_digest = digest })
       fns
     |> Array.of_list)

(* What the broker must answer: the same lone-graph pipeline it runs,
   executed offline against the pristine request.  Keyed by content
   digest, so a sweep pays each compile once. *)
let oracle_cache : (string, string) Hashtbl.t = Hashtbl.create 64

let oracle (rq : request) =
  match Hashtbl.find_opt oracle_cache rq.pr_digest with
  | Some expected -> expected
  | None ->
      let g = Ir.Parse.parse_graph rq.pr_ir in
      let program = Ir.Program.of_graph g in
      ignore
        (Dbds.Driver.optimize_program_report ~config:pool_config ~inline:false
           ~jobs:1 program);
      let body =
        Option.value (Ir.Program.find_function program rq.pr_fn) ~default:g
      in
      let expected = Service.Digest.canonical_of_graph body in
      Hashtbl.replace oracle_cache rq.pr_digest expected;
      expected

(* ---- one simulated run ---------------------------------------------- *)

let sock = "/run/dbds.sock"
let store_dir = "/store"

let run spec =
  let env_faults, config_plan =
    split_faults (chaos_plans ~seed:spec.seed spec.chaos @ spec.faults)
  in
  let config = { pool_config with Dbds.Config.fault_plan = config_plan } in
  (* A config-armed fault makes contained [Failed] outcomes legitimate;
     without one they indicate a real pipeline bug. *)
  let failures_expected = config_plan <> None in
  let sched = Sched.create ~seed:spec.seed () in
  let io = Simio.create ~faults:env_faults sched in
  let env = Simio.env io in
  let pool = Lazy.force pool in
  let npool = Array.length pool in
  let outcomes = ref [] in
  let violations = ref [] in
  let violate kind detail =
    violations := { vio_kind = kind; vio_detail = detail } :: !violations
  in
  let record ro = outcomes := ro :: !outcomes in
  let request_of i j = pool.((i + j) mod npool) in

  let check_done ~client (rq : request) ir =
    if ir <> oracle rq then
      violate "wrong-artifact"
        (Printf.sprintf "client-%d %s: served IR differs from oracle (%d vs %d bytes)"
           client rq.pr_fn (String.length ir) (String.length (oracle rq)))
  in

  let client_fiber i () =
    let requests =
      List.init spec.requests_per_client (fun j -> (j, request_of i j))
    in
    let record_label (_, (rq : request)) label detail =
      record { ro_client = i; ro_fn = rq.pr_fn; ro_label = label; ro_detail = detail }
    in
    let rec serve_requests conn = function
      | [] -> Service.Client.close conn
      | ((_, rq) as item) :: rest -> (
          match
            Service.Client.compile_ex ?deadline_ms:spec.deadline_ms ~config
              ~fn:rq.pr_fn ~ir:rq.pr_ir conn
          with
          | Ok (Service.Broker.Done { ir; from_cache; _ }, _) ->
              check_done ~client:i rq ir;
              record_label item (if from_cache then "done-cache" else "done") "";
              serve_requests conn rest
          | Ok (Service.Broker.Failed msg, _) ->
              if not failures_expected then
                violate "unexpected-failure"
                  (Printf.sprintf "client-%d %s: %s" i rq.pr_fn msg);
              record_label item "failed" msg;
              serve_requests conn rest
          | Ok (Service.Broker.Shed, retry_after) ->
              (* The front door's admission contract: every shed names
                 its backoff. *)
              if retry_after = None then
                violate "shed-without-retry-after"
                  (Printf.sprintf "client-%d %s: shed with no backoff hint" i
                     rq.pr_fn);
              record_label item "shed" "";
              serve_requests conn rest
          | Ok (o, _) ->
              record_label item (Service.Broker.outcome_label o) "";
              serve_requests conn rest
          | Error msg ->
              (* Transport failure: clean and client-visible.  Drop the
                 connection and retry the rest on a fresh one. *)
              record_label item "transport" msg;
              Service.Client.close conn;
              reconnect rest)
    and reconnect = function
      | [] -> ()
      | remaining -> (
          match
            Service.Client.connect ~env ~deadline_s:10. ~io_deadline_s:120.
              ~sock ()
          with
          | conn -> serve_requests conn remaining
          | exception Service.Client.Connect_failed _ ->
              List.iter
                (fun item -> record_label item "unreached" "connect exhausted")
                remaining)
    in
    reconnect requests
  in

  (* Ask the server to shut down.  Chaos may eat a shutdown exchange;
     armed faults are one-shot, so retries get through. *)
  let shutdown () =
    let rec attempt k =
      if k >= 20 then
        violate "shutdown-unreachable" (sock ^ ": 20 attempts failed")
      else
        match
          Service.Client.connect ~env ~deadline_s:5. ~io_deadline_s:30. ~sock ()
        with
        | exception Service.Client.Connect_failed _ ->
            violate "shutdown-unreachable" (sock ^ ": connect exhausted")
        | conn -> (
            let r = Service.Client.shutdown_server conn in
            Service.Client.close conn;
            match r with
            | Ok () -> ()
            | Error _ ->
                Sched.sleep sched 0.1;
                attempt (k + 1))
    in
    attempt 0
  in

  let frontdoor_config =
    { Service.Frontdoor.default_config with fd_queue_limit = spec.queue_limit }
  in

  let main () =
    let store =
      Service.Store.create ~env ~capacity:spec.store_capacity ~dir:store_dir ()
    in
    let broker =
      Service.Broker.create ~env ~workers:spec.workers
        ~queue_limit:spec.queue_limit ~delay_s:spec.compile_delay_s
        ~store:(Some store) ()
    in
    let server =
      env.Env.spawn "server" (fun () ->
          Service.Frontdoor.serve ~env ~config:frontdoor_config ~sock ~broker
            ())
    in
    Sched.sleep sched 0.01;
    (* Protocol-chaos fibers against the front door: a garbage client
       (junk bytes must earn a structured rejection, never an escaping
       exception or a wedged loop) and a slow-loris half-open client
       (one byte of a message at a time, then gone — the loop must
       cull it).  Both are best-effort under net chaos. *)
    let protocol_chaos =
      [
        env.Env.spawn "garbage-client" (fun () ->
            match env.Env.connect sock with
            | exception Env.Net _ -> ()
            | conn ->
                (try
                   conn.Env.send "garbage, not a dbds/1 header\n";
                   match
                     Service.Protocol.receive
                       ~deadline:(env.Env.mono () +. 60.)
                       (Service.Protocol.reader ()) conn
                   with
                   | Ok r
                     when Service.Protocol.field r "status" = Some "rejected"
                     ->
                       ()
                   | Ok r ->
                       violate "garbage-accepted"
                         (Printf.sprintf
                            "garbage bytes got a %s reply instead of a \
                             rejection"
                            (Service.Protocol.field_or r "status" r.verb))
                   | Error _ -> ()
                 with Env.Net _ -> ());
                (try conn.Env.close_conn () with Env.Net _ -> ()));
        env.Env.spawn "slow-loris" (fun () ->
            match env.Env.connect sock with
            | exception Env.Net _ -> ()
            | conn ->
                (try
                   String.iter
                     (fun c ->
                       conn.Env.send (String.make 1 c);
                       env.Env.sleep 0.004)
                     "dbds/1 compile 3\nfn 4\nmai"
                 with Env.Net _ -> ());
                (try conn.Env.close_conn () with Env.Net _ -> ()));
      ]
    in
    let clients =
      List.init spec.clients (fun i ->
          env.Env.spawn (Printf.sprintf "client-%d" i) (client_fiber i))
    in
    List.iter (fun (c : Env.thread) -> c.Env.join ()) clients;
    List.iter (fun (c : Env.thread) -> c.Env.join ()) protocol_chaos;
    shutdown ();
    server.Env.join ();
    (* Model a process restart: a fresh store over the surviving disk
       must only ever serve artifacts the oracle agrees with — torn or
       partial publications must already be invisible or checksum-evicted. *)
    let fresh =
      Service.Store.create ~env ~capacity:spec.store_capacity ~dir:store_dir ()
    in
    Array.iter
      (fun rq ->
        match Service.Store.get fresh ~digest:rq.pr_digest with
        | None -> ()
        | Some e ->
            if e.Service.Store.ar_ir <> oracle rq then
              violate "wrong-artifact"
                (Printf.sprintf "restart scan %s: persisted artifact differs from oracle"
                   rq.pr_fn))
      pool
  in

  let out = Sched.run sched main in
  if out.Sched.hung <> [] then
    violate "hang"
      (Printf.sprintf "heap drained with suspended fibers: %s"
         (String.concat ", " out.Sched.hung));
  List.iter
    (fun (fname, exn) ->
      violate "fiber-crash" (Printf.sprintf "%s: %s" fname exn))
    out.Sched.crashed;
  (match out.Sched.limit_hit with
  | Some guard -> violate "livelock" ("scheduler guard tripped: " ^ guard)
  | None -> ());
  let counts =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun ro ->
        Hashtbl.replace tbl ro.ro_label
          (1 + Option.value (Hashtbl.find_opt tbl ro.ro_label) ~default:0))
      !outcomes;
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort compare
  in
  {
    r_spec = spec;
    r_outcomes = List.rev !outcomes;
    r_violations = List.rev !violations;
    r_trace_hash = Printf.sprintf "%016Lx" out.Sched.trace_hash;
    r_events = out.Sched.events;
    r_vtime = out.Sched.vtime;
    r_counts = counts;
  }

(* Sweep [n] seeds starting at [spec.seed]; returns every result in
   seed order. *)
let run_seeds ?(progress = fun _ _ -> ()) ~seeds spec =
  List.init seeds (fun k ->
      let r = run { spec with seed = spec.seed + k } in
      progress (spec.seed + k) r;
      r)

(* ---- shrinking ------------------------------------------------------ *)

(* Greedy minimization: materialize the derived chaos into the explicit
   fault list, then repeatedly try removing one fault or shrinking one
   topology dimension, keeping any candidate that still violates with
   the same kind.  Each accepted step restarts the scan; the loop is a
   fixpoint bounded by the spec's finite size. *)
let shrink ?(max_runs = 200) spec =
  let target =
    let r = run spec in
    match r.r_violations with
    | [] -> None
    | v :: _ -> Some v.vio_kind
  in
  match target with
  | None -> None
  | Some kind ->
      let runs = ref 0 in
      let still_violates candidate =
        incr runs;
        !runs <= max_runs
        && List.exists
             (fun v -> v.vio_kind = kind)
             (run candidate).r_violations
      in
      let materialized =
        {
          spec with
          chaos = 0;
          faults = chaos_plans ~seed:spec.seed spec.chaos @ spec.faults;
        }
      in
      let drop_nth n l = List.filteri (fun i _ -> i <> n) l in
      let candidates s =
        List.init (List.length s.faults) (fun n ->
            { s with faults = drop_nth n s.faults })
        @ (if s.clients > 1 then [ { s with clients = s.clients - 1 } ] else [])
        @ (if s.requests_per_client > 1 then
             [ { s with requests_per_client = s.requests_per_client - 1 } ]
           else [])
        @ (if s.workers > 1 then [ { s with workers = s.workers - 1 } ] else [])
        @
        if s.compile_delay_s > 0. then [ { s with compile_delay_s = 0. } ]
        else []
      in
      let rec fix s =
        match List.find_opt still_violates (candidates s) with
        | Some smaller when !runs <= max_runs -> fix smaller
        | _ -> s
      in
      Some (fix materialized, kind)

(* ---- replayable bundles --------------------------------------------- *)

let bundle_magic = "dbds-sim-bundle: v1"

let render_bundle (r : result) =
  let s = r.r_spec in
  let buf = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string buf (l ^ "\n")) fmt in
  line "%s" bundle_magic;
  line "seed: %d" s.seed;
  line "clients: %d" s.clients;
  line "requests-per-client: %d" s.requests_per_client;
  line "workers: %d" s.workers;
  line "queue-limit: %d" s.queue_limit;
  line "chaos: %d" s.chaos;
  line "compile-delay-ms: %d" (int_of_float (s.compile_delay_s *. 1000.));
  line "deadline-ms: %s"
    (match s.deadline_ms with None -> "none" | Some ms -> string_of_int ms);
  line "faults: %s"
    (match s.faults with
    | [] -> "none"
    | fs -> String.concat "," (List.map F.to_string fs));
  line "trace-hash: %s" r.r_trace_hash;
  List.iter
    (fun v ->
      line "violation: %s %s" v.vio_kind
        (String.map (function '\n' -> ' ' | c -> c) v.vio_detail))
    r.r_violations;
  Buffer.contents buf

exception Malformed_bundle of string

let parse_bundle text =
  let lines = String.split_on_char '\n' text in
  (match lines with
  | magic :: _ when magic = bundle_magic -> ()
  | _ -> raise (Malformed_bundle "not a dbds-sim-bundle v1 file"));
  let field key =
    let prefix = key ^ ": " in
    List.find_map
      (fun l ->
        if
          String.length l > String.length prefix
          && String.sub l 0 (String.length prefix) = prefix
        then Some (String.sub l (String.length prefix)
                     (String.length l - String.length prefix))
        else None)
      lines
  in
  let int_field key =
    match Option.bind (field key) int_of_string_opt with
    | Some n -> n
    | None -> raise (Malformed_bundle ("missing or bad field: " ^ key))
  in
  (* Unknown fields are ignored — older bundles carry a
     [frontdoor: true|false] line from when the single server had two
     serving modes; every run now serves through the front door.
     [vm-warm: false] is what every single-server bundle said while the
     tiered VM could warm-start against the simulated store; a bundle
     that ran that step cannot replay without it.  Nor can one that
     carries [nodes: N]: it ran a simulated fleet, and replaying it on
     one server would give a different trace. *)
  (match field "vm-warm" with
  | None | Some "false" -> ()
  | Some v ->
      raise
        (Malformed_bundle
           ("vm-warm: " ^ v ^ ": the tiered-VM warm-start step is retired")));
  (match field "nodes" with
  | None | Some "0" -> ()
  | Some n ->
      raise
        (Malformed_bundle
           ("nodes: " ^ n ^ ": the multi-node fleet is retired")));
  let faults =
    match field "faults" with
    | None | Some "none" -> []
    | Some s ->
        List.map
          (fun part ->
            match F.of_string part with
            | Ok p -> p
            | Error e -> raise (Malformed_bundle e))
          (String.split_on_char ',' s)
  in
  {
    seed = int_field "seed";
    clients = int_field "clients";
    requests_per_client = int_field "requests-per-client";
    workers = int_field "workers";
    queue_limit = int_field "queue-limit";
    chaos = int_field "chaos";
    faults;
    compile_delay_s = float_of_int (int_field "compile-delay-ms") /. 1000.;
    deadline_ms =
      (match field "deadline-ms" with
      | None | Some "none" -> None
      | Some s -> int_of_string_opt s);
    store_capacity = (builder ()).store_capacity;
  }

(** Write [r] as a replayable bundle under [dir]; returns the path.
    Atomic, via the crash-bundle discipline. *)
let write_bundle ~dir r =
  let name = Printf.sprintf "dbds-sim-%d.bundle" r.r_spec.seed in
  Dbds.Bundle.write_text ~dir ~name (render_bundle r)

(** Parse a bundle file back into its spec and re-run it. *)
let replay path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  run (parse_bundle text)
