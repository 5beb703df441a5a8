(** Resilience fuzzing: drive random {!Workloads.Progen} programs
    through random fault plans and check the containment contract.

    For every (graph seed × fault plan) pair the optimizer runs under
    injection, and three invariants are asserted:

    + {e no escape}: no exception leaves
      {!Dbds.Driver.optimize_program_report};
    + {e rollback fidelity}: every contained function's IR is
      byte-identical to its pre-attempt IR (the graph the pipeline
      started from);
    + {e jobs determinism}: the printed program, the failure list, the
      per-function statistics and the phase-context counters are
      identical under every [jobs] value tried.

    Any breach is reported as a human-readable violation string; an
    empty [violations] list is the pass criterion.  Everything is
    seeded, so a reported violation reproduces by rerunning the same
    pair. *)

type result = {
  pairs_run : int;  (** (graph seed × fault plan) pairs executed *)
  contained : int;  (** contained failures observed (at [List.hd jobs]) *)
  by_site : (string * int) list;  (** ... broken down per crash site *)
  violations : string list;  (** invariant breaches; [[]] = pass *)
}

(* One deterministic fingerprint of a finished run: printed graphs,
   failures, stats, counters.  Byte-equal fingerprints = identical runs. *)
let fingerprint prog (r : Dbds.Driver.report) =
  let buf = Buffer.create 4096 in
  Ir.Program.iter_functions prog (fun g ->
      Buffer.add_string buf (Ir.Printer.graph_to_string g);
      Buffer.add_char buf '\n');
  List.iter
    (fun (name, s) ->
      Buffer.add_string buf
        (Format.asprintf "%s: %a@." name Dbds.Driver.pp_stats s))
    r.Dbds.Driver.rep_stats;
  List.iter
    (fun f ->
      Buffer.add_string buf
        (Printf.sprintf "failure %s at %s: %s\n" f.Dbds.Driver.fail_fn
           f.Dbds.Driver.fail_site f.Dbds.Driver.fail_exn))
    r.Dbds.Driver.rep_failures;
  let ctx = r.Dbds.Driver.rep_ctx in
  Buffer.add_string buf
    (Printf.sprintf "work=%d contained=%d\n" ctx.Opt.Phase.work
       (Opt.Phase.contained_total ctx));
  Buffer.contents buf

let config_for plan k =
  {
    Dbds.Config.default with
    Dbds.Config.mode =
      (* Every fourth plan runs the backtracking comparator, so faults
         that fire mid-attempt — with the attempt's own snapshot still
         pending — must be undone by containment's snapshot too. *)
      (if k mod 4 = 3 then Dbds.Config.Backtracking else Dbds.Config.Dbds);
    fault_plan = Some plan;
    verify_between_phases = k mod 5 = 0;
    containment = true;
  }

(* Run one (source, plan) pair at one jobs value; returns the
   fingerprint and the report, or a violation string if an exception
   escaped. *)
let run_one ~src ~config ~jobs =
  let prog = Lang.Frontend.compile src in
  match Dbds.Driver.optimize_program_report ~config ~jobs prog with
  | r -> Ok (fingerprint prog r, prog, r)
  | exception e ->
      Error
        (Printf.sprintf "escaped exception (jobs=%d): %s" jobs
           (Printexc.to_string e))

(** Fuzz the containment contract over [graph_seeds] × [plans_per_graph]
    pairs, each at every jobs value in [jobs_matrix].  Defaults: 25
    seeds × 4 plans = 100 pairs, at [jobs:1] and [jobs:4]. *)
let run ?(graph_seeds = List.init 25 Fun.id) ?(plans_per_graph = 4)
    ?(jobs_matrix = [ 1; 4 ]) () =
  let violations = ref [] in
  let violate fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let pairs = ref 0 in
  let contained = ref 0 in
  let by_site = ref [] in
  let jobs_matrix = match jobs_matrix with [] -> [ 1 ] | l -> l in
  List.iter
    (fun seed ->
      let src = Workloads.Progen.generate ~seed () in
      for k = 0 to plans_per_graph - 1 do
        let plan = Dbds.Faults.of_seed ((seed * 8191) + k) in
        let config = config_for plan k in
        let tag =
          Printf.sprintf "seed=%d plan=%s mode=%s" seed
            (Dbds.Faults.to_string plan)
            (Dbds.Config.mode_to_string config.Dbds.Config.mode)
        in
        incr pairs;
        let results =
          List.map (fun jobs -> (jobs, run_one ~src ~config ~jobs)) jobs_matrix
        in
        (match results with
        | (_, Ok (fp0, _, _)) :: rest ->
            List.iter
              (fun (jobs, res) ->
                match res with
                | Ok (fp, _, _) ->
                    if fp <> fp0 then
                      violate "%s: jobs=%d diverges from jobs=%d" tag jobs
                        (List.hd jobs_matrix)
                | Error msg -> violate "%s: %s" tag msg)
              rest
        | (_, Error msg) :: _ -> violate "%s: %s" tag msg
        | [] -> ());
        (* Invariants 1 and 2 on the first jobs value's run. *)
        match results with
        | (_, Ok (_, prog, r)) :: _ ->
            List.iter
              (fun f ->
                contained := !contained + 1;
                by_site :=
                  (let site = f.Dbds.Driver.fail_site in
                   let n =
                     match List.assoc_opt site !by_site with
                     | Some n -> n
                     | None -> 0
                   in
                   (site, n + 1) :: List.remove_assoc site !by_site);
                match Ir.Program.find_function prog f.Dbds.Driver.fail_fn with
                | None ->
                    violate "%s: contained function %s vanished" tag
                      f.Dbds.Driver.fail_fn
                | Some g ->
                    if Ir.Printer.graph_to_string g <> f.Dbds.Driver.fail_pre_ir
                    then
                      violate
                        "%s: %s not rolled back to its pre-attempt IR" tag
                        f.Dbds.Driver.fail_fn)
              r.Dbds.Driver.rep_failures
        | _ -> ()
      done)
    graph_seeds;
  {
    pairs_run = !pairs;
    contained = !contained;
    by_site = List.sort compare !by_site;
    violations = List.rev !violations;
  }

(* ------------------------------------------------------------------ *)
(* Artifact-store property                                             *)
(* ------------------------------------------------------------------ *)

type service_result = {
  s_pairs_run : int;  (** (graph seed × store fault plan) pairs executed *)
  s_store_hits : int;  (** store hits observed across warm passes *)
  s_recovered : int;
      (** contained store degradations: torn writes, read faults and
          corrupt entries that were evicted and recompiled *)
  s_violations : string list;  (** property breaches; [[]] = pass *)
}

let scratch_store_dir () = Filename.temp_dir "dbds-fuzz" ".store"

let remove_store_dir dir =
  if Sys.file_exists dir then (
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Sys.rmdir dir with Sys_error _ -> ())

(* Canonical post-optimization IR of the whole program — the store may
   legally renumber ids (a hit replays a parsed canonical artifact), so
   equality is asserted on the canonicalization fixpoint, not raw
   prints. *)
let canonical_fingerprint prog =
  let buf = Buffer.create 4096 in
  Ir.Program.iter_functions prog (fun g ->
      Buffer.add_string buf (Service.Digest.canonical_of_graph g);
      Buffer.add_char buf '\n');
  Buffer.contents buf

(* Store-counter fingerprint for the jobs-determinism check.  Evictions
   are excluded: LRU victim order depends on publication order, which
   is schedule-dependent under [jobs>1] (nothing evicts at the default
   capacity, but the exclusion keeps the property honest). *)
let store_counters (st : Service.Store.stats) =
  Printf.sprintf "h=%d m=%d w=%d wf=%d rf=%d c=%d" st.Service.Store.hits
    st.Service.Store.misses st.Service.Store.writes
    st.Service.Store.write_failures st.Service.Store.read_failures
    st.Service.Store.corrupt

(** The artifact-store property, fuzzed over random programs × random
    {!Dbds.Faults.store_sites} plans (torn temp writes, torn
    publications, read faults), each at every [jobs] value:

    + {e no escape}: injected store faults never leak an exception out
      of the driver — the store degrades to misses and recompiles;
    + {e answer fidelity}: both the cold pass (empty store) and the
      warm pass (recompiling against whatever the faulty cold pass
      managed to publish — including torn files) produce canonical IR
      byte-identical to an uncached reference compile.  A torn
      publication must be detected by checksum, evicted and recompiled;
    + {e jobs determinism}: outputs and store counters agree across the
      [jobs_matrix]. *)
let run_service ?(graph_seeds = List.init 10 Fun.id) ?(plans_per_graph = 3)
    ?(jobs_matrix = [ 1; 4 ]) () =
  let violations = ref [] in
  let violate fmt =
    Printf.ksprintf (fun s -> violations := s :: !violations) fmt
  in
  let pairs = ref 0 in
  let store_hits = ref 0 in
  let recovered = ref 0 in
  let jobs_matrix = match jobs_matrix with [] -> [ 1 ] | l -> l in
  List.iter
    (fun seed ->
      let src = Workloads.Progen.generate ~seed () in
      (* The uncached reference: same configuration, no store, no
         faults (store sites never execute without a store). *)
      let reference =
        let config = { Dbds.Config.dbds with Dbds.Config.containment = true } in
        let prog = Lang.Frontend.compile src in
        match Dbds.Driver.optimize_program_report ~config ~jobs:1 prog with
        | _ -> Some (canonical_fingerprint prog)
        | exception e ->
            violate "service seed=%d: reference compile escaped: %s" seed
              (Printexc.to_string e);
            None
      in
      match reference with
      | None -> ()
      | Some ref_fp ->
          for k = 0 to plans_per_graph - 1 do
            incr pairs;
            let plan = Dbds.Faults.of_seed_store ((seed * 8191) + k) in
            let config =
              {
                Dbds.Config.dbds with
                Dbds.Config.fault_plan = Some plan;
                containment = true;
              }
            in
            let tag =
              Printf.sprintf "service seed=%d plan=%s" seed
                (Dbds.Faults.to_string plan)
            in
            (* One leg = a fresh store, a cold pass and a warm pass at
               one jobs value. *)
            let run_leg jobs =
              let dir = scratch_store_dir () in
              Fun.protect ~finally:(fun () -> remove_store_dir dir)
              @@ fun () ->
              let store = Service.Store.create ~dir () in
              let pass () =
                let prog = Lang.Frontend.compile src in
                let cache =
                  Service.Store.driver_cache
                    ~context:(Service.Digest.context_of_program prog)
                    store
                in
                ignore
                  (Dbds.Driver.optimize_program_report ~config ~jobs ~cache
                     prog);
                canonical_fingerprint prog
              in
              let cold = pass () in
              let warm = pass () in
              let st = Service.Store.stats store in
              (cold, warm, store_counters st, st)
            in
            match run_leg (List.hd jobs_matrix) with
            | exception e ->
                violate "%s: escaped exception (jobs=%d): %s" tag
                  (List.hd jobs_matrix) (Printexc.to_string e)
            | cold0, warm0, counters0, st0 ->
                if cold0 <> ref_fp then
                  violate "%s: cold pass diverges from uncached reference" tag;
                if warm0 <> ref_fp then
                  violate "%s: warm pass diverges from uncached reference" tag;
                store_hits := !store_hits + st0.Service.Store.hits;
                recovered :=
                  !recovered + st0.Service.Store.write_failures
                  + st0.Service.Store.read_failures + st0.Service.Store.corrupt;
                List.iter
                  (fun jobs ->
                    match run_leg jobs with
                    | exception e ->
                        violate "%s: escaped exception (jobs=%d): %s" tag jobs
                          (Printexc.to_string e)
                    | cold, warm, counters, _ ->
                        if cold <> cold0 || warm <> warm0 then
                          violate "%s: jobs=%d outputs diverge from jobs=%d"
                            tag jobs (List.hd jobs_matrix);
                        if counters <> counters0 then
                          violate
                            "%s: jobs=%d store counters [%s] diverge from \
                             jobs=%d [%s]"
                            tag jobs counters (List.hd jobs_matrix) counters0)
                  (List.tl jobs_matrix)
          done)
    graph_seeds;
  {
    s_pairs_run = !pairs;
    s_store_hits = !store_hits;
    s_recovered = !recovered;
    s_violations = List.rev !violations;
  }

(* ---- frontdoor wire-decoder hardening -------------------------------- *)

type frontdoor_result = {
  f_decoder_cases : int;  (** byte strings fed to the pure decoder *)
  f_stream_cases : int;  (** chunked streams read by the blocking reader *)
  f_server_runs : int;  (** simulated garbage-client server runs *)
  f_rejected : int;  (** structured rejections observed end-to-end *)
  f_violations : string list;  (** hardening breaches; [[]] = pass *)
}

let run_frontdoor ?(decoder_cases = 400) ?(server_seeds = 8) () =
  let violations = ref [] in
  let violate fmt =
    Printf.ksprintf (fun s -> violations := s :: !violations) fmt
  in
  let rng = Random.State.make [| 0xf4d0; decoder_cases; server_seeds |] in
  (* 1. The pure decoder on adversarial bytes: random garbage, garbage
     behind the header prefix, valid messages with one byte flipped,
     and every truncation of a valid message.  Any outcome is fine —
     raising is the bug — except two: bytes that cannot begin
     ["dbds/1 "] must be an [Err] at once, and newline-free bytes behind
     the prefix must be an [Err] past [max_line_bytes]. *)
  let module P = Service.Protocol in
  let random_message ?(rng = rng) () =
    let rand_string n =
      String.init (Random.State.int rng (n + 1)) (fun _ ->
          Char.chr (Random.State.int rng 256))
    in
    let verbs = [| "compile"; "reply"; "ping"; "stats"; "lookup"; "a-verb" |] in
    {
      P.verb = verbs.(Random.State.int rng (Array.length verbs));
      fields =
        List.init (Random.State.int rng 4) (fun i ->
            (Printf.sprintf "f%d" i, rand_string 64));
    }
  in
  let header_prefix = "dbds/1 " in
  let fits_prefix bytes =
    let n = min (String.length bytes) (String.length header_prefix) in
    String.sub bytes 0 n = String.sub header_prefix 0 n
  in
  let cases = ref 0 in
  let feed bytes =
    incr cases;
    match P.decode bytes with
    | P.Err _ -> ()
    | (P.Msg _ | P.More) when not (fits_prefix bytes) ->
        violate "decoder accepted %d bytes that cannot begin %S"
          (String.length bytes) header_prefix
    | P.Msg _ | P.More -> ()
    | exception e ->
        violate "decoder raised %s on %d bytes" (Printexc.to_string e)
          (String.length bytes)
  in
  let noise n =
    String.init (Random.State.int rng n) (fun _ ->
        Char.chr (Random.State.int rng 256))
  in
  for _ = 1 to decoder_cases / 4 do
    feed (noise 200);
    feed (header_prefix ^ noise 64);
    let m = random_message () in
    let wire = P.render m in
    let mutated =
      String.mapi
        (fun i c ->
          if i = Random.State.int rng (String.length wire) then
            Char.chr (Random.State.int rng 256)
          else c)
        wire
    in
    feed mutated;
    feed (String.sub wire 0 (Random.State.int rng (String.length wire + 1)))
  done;
  (* Newline-free bytes that do match the prefix stay bounded. *)
  let long =
    header_prefix
    ^ String.init P.max_line_bytes (fun _ ->
          Char.chr (32 + Random.State.int rng 95))
  in
  incr cases;
  (match P.decode long with
  | P.Err _ -> ()
  | _ -> violate "%d newline-free bytes were not refused" (String.length long)
  | exception e -> violate "decoder raised %s on a long line" (Printexc.to_string e));
  (* The blocking reader over a chunked stream: 1-3 messages cut at
     random points into chunks that each travel as one [send] over a
     simulated connection.  The reader must return exactly the
     messages rendered; a truncated tail followed by a close must fail
     as something other than a clean "eof". *)
  let srng = Random.State.make [| 0x57e4; decoder_cases |] in
  let stream_cases = decoder_cases / 4 in
  for k = 1 to stream_cases do
    let n = 1 + Random.State.int srng 3 in
    let msgs = List.init n (fun _ -> random_message ~rng:srng ()) in
    let wire = Buffer.create 256 in
    List.iter (fun m -> Buffer.add_string wire (P.render m)) msgs;
    let truncated = Random.State.bool srng in
    if truncated then begin
      let w = P.render (random_message ~rng:srng ()) in
      Buffer.add_string wire
        (String.sub w 0 (1 + Random.State.int srng (String.length w - 1)))
    end;
    let rec chunks s =
      let len = String.length s in
      if len < 2 || Random.State.bool srng then [ s ]
      else
        let cut = 1 + Random.State.int srng (len - 1) in
        String.sub s 0 cut :: chunks (String.sub s cut (len - cut))
    in
    let chunks = chunks (Buffer.contents wire) in
    let sched = Simtest.Sched.create ~seed:(88000 + k) () in
    let io = Simtest.Simio.create sched in
    let env = Simtest.Simio.env io in
    let out =
      Simtest.Sched.run sched (fun () ->
          let l = env.Service.Env.listen "/s" in
          let client = env.Service.Env.connect "/s" in
          let server = l.Service.Env.accept () in
          let sender =
            env.Service.Env.spawn "sender" (fun () ->
                List.iter client.Service.Env.send chunks;
                client.Service.Env.close_conn ())
          in
          let rd = P.reader () in
          List.iter
            (fun m ->
              match P.receive rd server with
              | Ok got ->
                  if got <> m then
                    violate "stream %d: read %s, rendered %s" k got.P.verb
                      m.P.verb
              | Error e -> violate "stream %d: %s before the end" k e)
            msgs;
          (match (P.receive rd server, truncated) with
          | Ok m, _ -> violate "stream %d: read a %s past the end" k m.P.verb
          | Error "eof", true -> violate "stream %d: truncated tail read as eof" k
          | Error e, false when e <> "eof" ->
              violate "stream %d: clean end read as %s" k e
          | Error _, _ -> ());
          sender.Service.Env.join ())
    in
    if not out.Simtest.Sched.ok then
      violate "stream %d: unclean schedule (%d hung, %d crashed)" k
        (List.length out.Simtest.Sched.hung)
        (List.length out.Simtest.Sched.crashed)
  done;
  (* 2. End-to-end: a garbage client against a simulated frontdoor must
     get a structured rejection (or a clean close — never a crash or a
     wedged loop), and a fresh well-formed connection must still be
     served afterwards. *)
  let rejected = ref 0 in
  for k = 1 to server_seeds do
    (* Half the junk is line-terminated so the text decoder actually
       sees a complete (garbage) header; the rest stays newline-free —
       the server must cull the silent half-open connection instead. *)
    let junk =
      String.init
        (1 + Random.State.int rng 80)
        (fun _ -> Char.chr (Random.State.int rng 256))
      ^ if k mod 2 = 0 then "\n" else ""
    in
    let sched = Simtest.Sched.create ~seed:(77000 + k) () in
    let io = Simtest.Simio.create sched in
    let env = Simtest.Simio.env io in
    let out =
      Simtest.Sched.run sched (fun () ->
          let broker =
            Service.Broker.create ~env ~workers:1 ~store:None ()
          in
          let srv =
            env.Service.Env.spawn "frontdoor" (fun () ->
                Service.Frontdoor.serve ~env ~sock:"/fd" ~broker ())
          in
          env.Service.Env.sleep 0.01;
          (match env.Service.Env.connect "/fd" with
          | exception Service.Env.Net _ -> ()
          | conn ->
              (try
                 conn.Service.Env.send junk;
                 match
                   Service.Protocol.receive
                     ~deadline:(env.Service.Env.mono () +. 30.)
                     (Service.Protocol.reader ()) conn
                 with
                 | Ok r
                   when Service.Protocol.field r "status" = Some "rejected"
                   ->
                     incr rejected
                 | Ok r ->
                     (* Random bytes can parse as a harmless verb —
                        only a served artifact would be alarming. *)
                     if Service.Protocol.field r "ir" <> None then
                       violate "seed %d: garbage earned an artifact" k
                 | Error _ -> ()
               with Service.Env.Net _ -> ());
              (try conn.Service.Env.close_conn () with Service.Env.Net _ -> ()));
          (match
             Service.Client.connect ~env ~deadline_s:5.0 ~io_deadline_s:30.
               ~sock:"/fd" ()
           with
          | exception _ -> violate "seed %d: server unreachable after garbage" k
          | c ->
              if not (Service.Client.ping c) then
                violate "seed %d: ping failed after garbage" k;
              ignore (Service.Client.shutdown_server c);
              Service.Client.close c);
          srv.Service.Env.join ())
    in
    if not out.Simtest.Sched.ok then
      violate "seed %d: garbage run left an unclean schedule (%d hung, %d crashed)"
        k
        (List.length out.Simtest.Sched.hung)
        (List.length out.Simtest.Sched.crashed)
  done;
  {
    f_decoder_cases = !cases;
    f_stream_cases = stream_cases;
    f_server_runs = server_seeds;
    f_rejected = !rejected;
    f_violations = List.rev !violations;
  }

(* ------------------------------------------------------------------ *)
(* Workload-lab property                                               *)
(* ------------------------------------------------------------------ *)

type lab_result = {
  l_pairs_run : int;
  l_paranoid_runs : int;
  l_regions_checked : int;
  l_violations : string list;
}

let progen_program ~irreducible seed =
  ( Printf.sprintf (if irreducible then "progen-irr/%d" else "progen/%d") seed,
    fun () -> Workloads.Progen.generate_program ~irreducible ~seed () )

(* Plain and irreducible progen programs, by seed. *)
let progen_corpus ~progen_seeds =
  List.concat_map
    (fun seed ->
      [
        progen_program ~irreducible:false seed;
        progen_program ~irreducible:true seed;
      ])
    progen_seeds

(* The lab corpus: every adversarial benchmark plus a few progen
   programs with the irreducible-region flag on.  Builders return a
   fresh program per call — optimization mutates graphs in place. *)
let lab_corpus ~progen_seeds =
  List.concat_map
    (fun (s : Workloads.Suite.t) ->
      List.map
        (fun (b : Workloads.Suite.benchmark) ->
          ( s.Workloads.Suite.suite_name ^ "/" ^ b.Workloads.Suite.name,
            fun () -> Workloads.Suite.compile b ))
        s.Workloads.Suite.benchmarks)
    Workloads.Registry.adversarial
  @ List.map (progen_program ~irreducible:true) progen_seeds

(* The tiers under fuzz: the greedy duplication tier, plus dbds as the
   control.  The legacy tiers ride through [run] above. *)
let lab_tiers () =
  List.filter
    (fun (name, _) -> List.mem name [ "condelim_dup"; "dbds" ])
    Tiercompare.tiers

let run_lab ?(progen_seeds = [ 0; 1; 2; 3 ]) ?(plans_per_pair = 2) () =
  let violations = ref [] in
  let violate fmt =
    Printf.ksprintf (fun s -> violations := s :: !violations) fmt
  in
  let pairs = ref 0 and paranoid = ref 0 and regions_checked = ref 0 in
  let corpus = lab_corpus ~progen_seeds in
  let tiers = lab_tiers () in
  (* (1) jobs 1-vs-4 byte identity of the whole run — printed IR,
     stats, failures, counters — with and without fault plans. *)
  List.iter
    (fun (name, fresh) ->
      List.iter
        (fun (tier, tconfig) ->
          for k = 0 to plans_per_pair - 1 do
            let plan =
              if k = 0 then None
              else Some (Dbds.Faults.of_seed ((Hashtbl.hash name * 31) + k))
            in
            let config =
              {
                tconfig with
                Dbds.Config.fault_plan = plan;
                containment = true;
                bundle_dir = None;
              }
            in
            incr pairs;
            let one jobs =
              let prog = fresh () in
              match Dbds.Driver.optimize_program_report ~config ~jobs prog with
              | r -> Ok (fingerprint prog r)
              | exception e -> Error (Printexc.to_string e)
            in
            match (one 1, one 4) with
            | Ok f1, Ok f4 ->
                if f1 <> f4 then
                  violate "%s tier=%s plan=%d: jobs=4 diverges from jobs=1"
                    name tier k
            | Error msg, _ | _, Error msg ->
                violate "%s tier=%s plan=%d: escaped exception: %s" name tier
                  k msg
          done)
        tiers)
    corpus;
  (* (2) preserves contracts: the paranoid driver (IR verifier plus
     recompute-and-compare audit of every declared-preserved analysis
     after each fired pass) must contain nothing on the clean corpus. *)
  List.iter
    (fun (name, fresh) ->
      List.iter
        (fun (tier, tconfig) ->
          let config =
            { tconfig with Dbds.Config.verify_between_phases = true }
          in
          incr paranoid;
          let prog = fresh () in
          match Dbds.Driver.optimize_program_report ~config ~jobs:1 prog with
          | r -> (
              match r.Dbds.Driver.rep_failures with
              | [] -> ()
              | f :: _ ->
                  violate "%s tier=%s: paranoid run contained %s at %s: %s"
                    name tier f.Dbds.Driver.fail_fn f.Dbds.Driver.fail_site
                    f.Dbds.Driver.fail_exn)
          | exception e ->
              violate "%s tier=%s: paranoid run raised %s" name tier
                (Printexc.to_string e))
        tiers)
    corpus;
  (* (3) region completeness: optimize every function under each lab
     tier with the memo on.  Whenever a pass P is stamped clean after a
     region run or after a run that changed the graph, run P on a copy
     of the graph over the whole graph: it must fire nothing.  A region
     (or a settling claim) that misses an opportunity the whole-graph
     run would take is one that changes the compiled IR. *)
  List.iter
    (fun (name, fresh) ->
      List.iter
        (fun (tier, config) ->
          let prog = fresh () in
          let ctx = Opt.Phase.create ~program:prog () in
          let audit pass run g =
            incr regions_checked;
            let copy = Ir.Graph.copy g in
            if run (Opt.Phase.create ~program:prog ()) copy then
              violate "%s tier=%s %s: %s stamped clean, but its \
                       whole-graph run still fires"
                name tier (Ir.Graph.name g) pass
          in
          ctx.Opt.Phase.region_audit <- Some audit;
          try
            if Dbds.Driver.wants_inline (Dbds.Driver.default_spec config) then
              ignore (Opt.Inline.inline_program ctx prog);
            List.iter
              (fun fn ->
                match Ir.Program.find_function prog fn with
                | Some g -> ignore (Dbds.Driver.optimize_graph ~config ctx g)
                | None -> ())
              (Ir.Program.function_names prog)
          with e ->
            violate "%s tier=%s: region check raised %s" name tier
              (Printexc.to_string e))
        tiers)
    corpus;
  {
    l_pairs_run = !pairs;
    l_paranoid_runs = !paranoid;
    l_regions_checked = !regions_checked;
    l_violations = List.rev !violations;
  }

(* ------------------------------------------------------------------ *)
(* Region-run oracle                                                   *)
(* ------------------------------------------------------------------ *)

type region_result = {
  r_programs : int;
  r_functions : int;
  r_violations : string list;
}

(* A program's compiled functions, printed with raw ids and followed by
   their duplication stats, and the report's contained failures. *)
let compiled_text config fresh =
  let prog = fresh () in
  let r = Dbds.Driver.optimize_program_report ~config ~jobs:1 prog in
  let fns =
    List.map
      (fun fn ->
        let ir =
          Ir.Printer.graph_to_string
            (Option.get (Ir.Program.find_function prog fn))
        in
        let stats =
          match List.assoc_opt fn r.Dbds.Driver.rep_stats with
          | Some s -> Format.asprintf "%a" Dbds.Driver.pp_stats s
          | None -> "-"
        in
        (fn, ir ^ stats))
      (Ir.Program.function_names prog)
  in
  (fns, r.Dbds.Driver.rep_failures)

let paper_corpus () =
  List.concat_map
    (fun (s : Workloads.Suite.t) ->
      List.map
        (fun (b : Workloads.Suite.benchmark) ->
          ( s.Workloads.Suite.suite_name ^ "/" ^ b.Workloads.Suite.name,
            fun () -> Workloads.Suite.compile b ))
        s.Workloads.Suite.benchmarks)
    Workloads.Registry.all

let run_regions ?(progen_seeds = List.init 200 Fun.id) () =
  let violations = ref [] in
  let violate fmt =
    Printf.ksprintf (fun s -> violations := s :: !violations) fmt
  in
  let corpus = paper_corpus () @ lab_corpus ~progen_seeds in
  let functions = ref 0 in
  (* Paranoid mode turns the memo off, so every pass runs on the whole
     graph. *)
  let whole =
    { Dbds.Config.dbds with Dbds.Config.verify_between_phases = true }
  in
  List.iter
    (fun (name, fresh) ->
      match
        (compiled_text Dbds.Config.dbds fresh, compiled_text whole fresh)
      with
      | (fns, []), (fns', []) ->
          functions := !functions + List.length fns;
          List.iter2
            (fun (fn, a) (_, b) ->
              if a <> b then
                violate "%s/%s: region runs compile differently from \
                         whole-graph runs" name fn)
            fns fns'
      | (_, f :: _), _ | _, (_, f :: _) ->
          violate "%s: contained %s at %s" name f.Dbds.Driver.fail_fn
            f.Dbds.Driver.fail_site
      | exception e -> violate "%s: raised %s" name (Printexc.to_string e))
    corpus;
  {
    r_programs = List.length corpus;
    r_functions = !functions;
    r_violations = List.rev !violations;
  }

type paranoid_result = {
  pa_compiles : int;
  pa_violations : string list;
}

(* The irreducible programs under dbds are left out: [run_regions]'
   whole-graph compile is that same paranoid compile. *)
let run_paranoid () =
  let violations = ref [] in
  let violate fmt =
    Printf.ksprintf (fun s -> violations := s :: !violations) fmt
  in
  let seeds = List.init 200 Fun.id in
  let configs =
    [
      ( "dbds",
        Dbds.Config.dbds,
        List.map (progen_program ~irreducible:false) seeds );
      ( "backtracking",
        Dbds.Config.backtracking,
        progen_corpus ~progen_seeds:(List.init 20 Fun.id) );
      ( "condelim_dup",
        Dbds.Config.condelim_dup,
        progen_corpus ~progen_seeds:seeds );
    ]
  in
  let compiles = ref 0 in
  List.iter
    (fun (cname, config, corpus) ->
      List.iter
        (fun (name, fresh) ->
          incr compiles;
          let config =
            { config with Dbds.Config.verify_between_phases = true }
          in
          match
            Dbds.Driver.optimize_program_report ~config ~jobs:1 (fresh ())
          with
          | { Dbds.Driver.rep_failures = []; _ } -> ()
          | { Dbds.Driver.rep_failures = f :: _; _ } ->
              violate "%s@%s: contained %s at %s: %s" name cname
                f.Dbds.Driver.fail_fn f.Dbds.Driver.fail_site
                f.Dbds.Driver.fail_exn
          | exception e ->
              violate "%s@%s: raised %s" name cname (Printexc.to_string e))
        corpus)
    configs;
  { pa_compiles = !compiles; pa_violations = List.rev !violations }

type sccp_result = {
  sc_programs : int;
  sc_functions : int;
  sc_violations : string list;
}

(* The generated shapes of perfbench's [aot-generated] suite: progen
   programs by (helpers, depth) and dispatch loops by handler count. *)
let generated_shapes =
  [ `Progen (1, 2); `Progen (2, 3); `Progen (3, 3); `Progen (4, 4);
    `Progen (2, 4); `Progen (3, 2); `Dispatch 4; `Dispatch 8 ]

let generated_corpus ~shape_seeds =
  List.concat_map
    (fun shape ->
      List.map
        (fun seed ->
          match shape with
          | `Progen (n_helpers, depth) ->
              ( Printf.sprintf "progen-%d-%d/%d" n_helpers depth seed,
                fun () ->
                  Lang.Frontend.compile
                    (Workloads.Progen.generate ~n_helpers ~depth ~seed ()) )
          | `Dispatch handlers ->
              ( Printf.sprintf "dispatch-%d/%d" handlers seed,
                fun () ->
                  Lang.Frontend.compile
                    (Workloads.Advgen.dispatch_src ~handlers ~seed) ))
        shape_seeds)
    generated_shapes

(* Progen programs are left to [run_quiescent], which compiles them
   under the same config and checks SCCP with every other pass. *)
let run_sccp_after_dbds ?(shape_seeds = List.init 60 Fun.id) () =
  let violations = ref [] in
  let violate fmt =
    Printf.ksprintf (fun s -> violations := s :: !violations) fmt
  in
  let corpus =
    paper_corpus () @ lab_corpus ~progen_seeds:[]
    @ generated_corpus ~shape_seeds
  in
  let functions = ref 0 in
  List.iter
    (fun (name, fresh) ->
      match fresh () with
      | exception e -> violate "%s: raised %s" name (Printexc.to_string e)
      | prog -> (
          match
            Dbds.Driver.optimize_program_report ~config:Dbds.Config.dbds
              ~jobs:1 prog
          with
          | exception e -> violate "%s: raised %s" name (Printexc.to_string e)
          | { Dbds.Driver.rep_failures = f :: _; _ } ->
              violate "%s: contained %s at %s" name f.Dbds.Driver.fail_fn
                f.Dbds.Driver.fail_site
          | _ ->
              Ir.Program.iter_functions prog (fun g ->
                  incr functions;
                  let ctx = Opt.Phase.create ~program:prog () in
                  if Opt.Sccp.phase.Opt.Phase.run ctx (Ir.Graph.copy g) then
                    violate "%s/%s: sccp fires after the dbds tier" name
                      (Ir.Graph.name g))))
    corpus;
  {
    sc_programs = List.length corpus;
    sc_functions = !functions;
    sc_violations = List.rev !violations;
  }

type quiescent_result = {
  qu_programs : int;  (** program × config compiles *)
  qu_functions : int;
  qu_capped : int;
      (** fix groups that stopped at their [rounds] cap, summed over
          every compile *)
  qu_violations : string list;  (** [[]] = pass *)
}

let run_quiescent ?(progen_seeds = List.init 200 Fun.id) () =
  let violations = ref [] in
  let violate fmt =
    Printf.ksprintf (fun s -> violations := s :: !violations) fmt
  in
  let phases =
    List.map
      (fun name -> Result.get_ok (Opt.Pipeline.resolve_classic name []))
      Opt.Pipeline.classic_names
  in
  let corpus = progen_corpus ~progen_seeds in
  let configs = [ ("off", Dbds.Config.off); ("dbds", Dbds.Config.dbds) ] in
  let programs = ref 0 and functions = ref 0 and capped = ref 0 in
  List.iter
    (fun (name, fresh) ->
      List.iter
        (fun (cname, config) ->
          incr programs;
          let name = name ^ "@" ^ cname in
          match fresh () with
          | exception e -> violate "%s: raised %s" name (Printexc.to_string e)
          | prog -> (
              match
                Dbds.Driver.optimize_program_report ~config ~jobs:1 prog
              with
              | exception e ->
                  violate "%s: raised %s" name (Printexc.to_string e)
              | { Dbds.Driver.rep_failures = f :: _; _ } ->
                  violate "%s: contained %s at %s" name f.Dbds.Driver.fail_fn
                    f.Dbds.Driver.fail_site
              | r ->
                  let ctx = r.Dbds.Driver.rep_ctx in
                  capped := !capped + ctx.Opt.Phase.fix_capped;
                  Ir.Program.iter_functions prog (fun g ->
                      incr functions;
                      List.iter
                        (fun (p : Opt.Phase.t) ->
                          let ctx = Opt.Phase.create ~program:prog () in
                          if p.Opt.Phase.run ctx (Ir.Graph.copy g) then
                            violate "%s/%s: %s fires on the compiled graph"
                              name (Ir.Graph.name g) p.Opt.Phase.pass_name)
                        phases)))
        configs)
    corpus;
  {
    qu_programs = !programs;
    qu_functions = !functions;
    qu_capped = !capped;
    qu_violations = List.rev !violations;
  }
