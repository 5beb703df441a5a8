(** Fuzzing.  Three fuzzers drive their own inputs — the containment
    contract under fault plans, the artifact store under store faults,
    the frontdoor's wire decoder under garbage — and one compile matrix
    compiles a fixed corpus once per (program, config, memo-on or
    paranoid) row and runs a list of oracles over those compiles.
    Everything is seeded, so a reported violation reproduces by
    rerunning the same input. *)

type result = {
  name : string;
  counts : (string * int) list;
  violations : string list;
  seconds : float;
}

let now = Unix.gettimeofday
let violate vs fmt = Printf.ksprintf (fun s -> vs := s :: !vs) fmt

(* Sum [more] into [counts] by label, keeping first-seen order. *)
let add_counts counts more =
  List.fold_left
    (fun acc (k, n) ->
      if List.mem_assoc k acc then
        List.map (fun (k', m) -> (k', if k' = k then m + n else m)) acc
      else acc @ [ (k, n) ])
    counts more

let finish name t0 counts vs =
  { name; counts; violations = List.rev !vs; seconds = now () -. t0 }

let functions prog =
  List.filter_map
    (Ir.Program.find_function prog)
    (Ir.Program.function_names prog)

let stats_text s = Format.asprintf "%a" Dbds.Driver.pp_stats s

(* One deterministic fingerprint of a finished run: printed graphs,
   stats, failures, counters.  Byte-equal fingerprints = identical runs. *)
let fingerprint ~graphs ~stats ~failures ~work ~contained =
  String.concat ""
    (List.map (fun g -> Ir.Printer.graph_to_string g ^ "\n") graphs
    @ List.map (fun (name, s) -> name ^ ": " ^ s ^ "\n") stats
    @ failures
    @ [ Printf.sprintf "work=%d contained=%d\n" work contained ])

let report_fingerprint prog (r : Dbds.Driver.report) =
  fingerprint ~graphs:(functions prog)
    ~stats:
      (List.map (fun (fn, s) -> (fn, stats_text s)) r.Dbds.Driver.rep_stats)
    ~failures:
      (List.map
         (fun f ->
           Printf.sprintf "failure %s at %s: %s\n" f.Dbds.Driver.fail_fn
             f.Dbds.Driver.fail_site f.Dbds.Driver.fail_exn)
         r.Dbds.Driver.rep_failures)
    ~work:r.Dbds.Driver.rep_ctx.Opt.Phase.work
    ~contained:(Opt.Phase.contained_total r.Dbds.Driver.rep_ctx)

(* ------------------------------------------------------------------ *)
(* Containment contract                                                *)
(* ------------------------------------------------------------------ *)

(* Every fourth plan runs the backtracking comparator, so faults that
   fire mid-attempt — with the attempt's own snapshot still pending —
   must be undone by containment's snapshot too.  Returns the
   configuration with its {!Dbds.Config.named} name, for the tag. *)
let config_for plan k =
  let name = if k mod 4 = 3 then "backtracking" else "dbds" in
  ( name,
    {
      (List.assoc name Dbds.Config.named) with
      Dbds.Config.fault_plan = Some plan;
      verify_between_phases = k mod 5 = 0;
    } )

(* Run one (source, plan) pair at one jobs value; returns the
   fingerprint and the report, or a violation string if an exception
   escaped. *)
let run_one ~src ~config ~jobs =
  let prog = Lang.Frontend.compile src in
  match Dbds.Driver.optimize_program_report ~config ~jobs prog with
  | r -> Ok (report_fingerprint prog r, prog, r)
  | exception e ->
      Error
        (Printf.sprintf "escaped exception (jobs=%d): %s" jobs
           (Printexc.to_string e))

(** The containment contract, over 25 graph seeds × 4 fault plans, each
    pair at [jobs:1] and [jobs:4]:

    + {e no escape}: no exception leaves
      {!Dbds.Driver.optimize_program_report};
    + {e rollback fidelity}: every contained function's IR is
      byte-identical to its pre-attempt IR (the graph the pipeline
      started from);
    + {e jobs determinism}: the printed program, the failure list, the
      per-function statistics and the phase-context counters are
      identical under every [jobs] value tried. *)
let run_containment () =
  let t0 = now () in
  let violations = ref [] in
  let pairs = ref 0 in
  let contained = ref 0 in
  let by_site = ref [] in
  let jobs_matrix = [ 1; 4 ] in
  List.iter
    (fun seed ->
      let src = Workloads.Progen.generate ~seed () in
      for k = 0 to 3 do
        let plan = Dbds.Faults.of_seed ((seed * 8191) + k) in
        let name, config = config_for plan k in
        let tag =
          Printf.sprintf "seed=%d plan=%s config=%s" seed
            (Dbds.Faults.to_string plan) name
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
                      violate violations "%s: jobs=%d diverges from jobs=%d"
                        tag jobs (List.hd jobs_matrix)
                | Error msg -> violate violations "%s: %s" tag msg)
              rest
        | (_, Error msg) :: _ -> violate violations "%s: %s" tag msg
        | [] -> ());
        (* Invariants 1 and 2 on the first jobs value's run. *)
        match results with
        | (_, Ok (_, prog, r)) :: _ ->
            List.iter
              (fun f ->
                incr contained;
                by_site :=
                  add_counts !by_site [ ("at " ^ f.Dbds.Driver.fail_site, 1) ];
                match Ir.Program.find_function prog f.Dbds.Driver.fail_fn with
                | None ->
                    violate violations "%s: contained function %s vanished" tag
                      f.Dbds.Driver.fail_fn
                | Some g ->
                    if Ir.Printer.graph_to_string g <> f.Dbds.Driver.fail_pre_ir
                    then
                      violate violations
                        "%s: %s not rolled back to its pre-attempt IR" tag
                        f.Dbds.Driver.fail_fn)
              r.Dbds.Driver.rep_failures
        | _ -> ()
      done)
    (List.init 25 Fun.id);
  finish "containment" t0
    ([ ("pairs", !pairs); ("contained failures", !contained) ]
    @ List.sort compare !by_site)
    violations

(* ------------------------------------------------------------------ *)
(* Artifact-store property                                             *)
(* ------------------------------------------------------------------ *)

let with_scratch_dir prefix f =
  let dir = Filename.temp_dir prefix "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun name ->
          try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> f dir)

type cold_warm = {
  cold : Service.Broker.outcome list;
  warm : Service.Broker.outcome list;
  store : Service.Store.stats;
}

let cold_warm ~config ~workers requests =
  if requests = [] then invalid_arg "Fuzz.cold_warm: no request";
  with_scratch_dir "dbds-cold-warm" @@ fun dir ->
  let store = Service.Store.create ~dir () in
  let broker = Service.Broker.create ~workers ~store:(Some store) () in
  Fun.protect ~finally:(fun () -> Service.Broker.shutdown broker) @@ fun () ->
  let pass () =
    Ir.Parallel.map ~jobs:workers
      (fun (fn, ir, context) ->
        Service.Broker.submit ~context ~config ~fn ~ir broker)
      requests
  in
  let cold = pass () in
  let warm = pass () in
  { cold; warm; store = Service.Store.stats store }

(* One line per reply: its IR, or its outcome's label. *)
let replies outcomes =
  String.concat ""
    (List.map
       (function
         | Service.Broker.Done { ir; _ } -> ir ^ "\n"
         | o -> Service.Broker.outcome_label o ^ "\n")
       outcomes)

(* Canonical optimized IR of every function, in name order. *)
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

(** The artifact-store property, fuzzed over 6 random programs × 3
    random {!Dbds.Faults.store_sites} plans (torn temp writes, torn
    publications, read faults).  Every post-inline function goes to an
    in-process {!Service.Broker} with its program's context, submitted
    from as many domains as the broker has workers (1 and 4):

    + {e no escape}: injected store faults never leak an exception out
      of the broker — the store degrades to misses and recompiles;
    + {e answer fidelity}: both the cold pass (empty store) and the
      warm pass (recompiling against whatever the faulty cold pass
      managed to publish — including torn files) reply with canonical
      IR byte-identical to a direct, storeless, class-aware compile of
      the same units.  A torn publication must be detected by
      checksum, evicted and recompiled;
    + {e workers determinism}: replies and store counters agree across
      worker counts. *)
let run_service () =
  let t0 = now () in
  let violations = ref [] in
  let pairs = ref 0 in
  let store_hits = ref 0 in
  let recovered = ref 0 in
  List.iter
    (fun seed ->
      (* The requests: each post-inline function as printed IR, all
         with the program's context. *)
      let prog = Lang.Frontend.compile (Workloads.Progen.generate ~seed ()) in
      let context, units = Service.Client.units prog in
      let requests = List.map (fun (fn, ir) -> (fn, ir, context)) units in
      (* The reference: the same units parsed as a worker parses them,
         compiled in their own program with no store and no faults. *)
      let reference =
        List.iter
          (fun (_, ir) -> Ir.Program.add_function prog (Ir.Parse.parse_graph ir))
          units;
        match
          Dbds.Driver.optimize_program_report ~config:Dbds.Config.dbds
            ~inline:false ~jobs:1 prog
        with
        | _ -> Some (canonical_fingerprint prog)
        | exception e ->
            violate violations "service seed=%d: reference compile escaped: %s"
              seed (Printexc.to_string e);
            None
      in
      match reference with
      | None -> ()
      | Some ref_fp ->
          for k = 0 to 2 do
            incr pairs;
            let plan = Dbds.Faults.of_seed_store ((seed * 8191) + k) in
            let config =
              { Dbds.Config.dbds with Dbds.Config.fault_plan = Some plan }
            in
            let tag =
              Printf.sprintf "service seed=%d plan=%s" seed
                (Dbds.Faults.to_string plan)
            in
            let leg workers = cold_warm ~config ~workers requests in
            match (leg 1, leg 4) with
            | exception e ->
                violate violations "%s: escaped exception: %s" tag
                  (Printexc.to_string e)
            | leg1, leg4 ->
                let cold = replies leg1.cold and warm = replies leg1.warm in
                if cold <> ref_fp then
                  violate violations
                    "%s: cold pass diverges from the direct reference" tag;
                if warm <> ref_fp then
                  violate violations
                    "%s: warm pass diverges from the direct reference" tag;
                if replies leg4.cold <> cold || replies leg4.warm <> warm then
                  violate violations
                    "%s: workers=4 replies diverge from workers=1" tag;
                let counters = store_counters leg1.store
                and counters4 = store_counters leg4.store in
                if counters4 <> counters then
                  violate violations
                    "%s: workers=4 store counters [%s] diverge from \
                     workers=1 [%s]"
                    tag counters4 counters;
                let st = leg1.store in
                store_hits := !store_hits + st.Service.Store.hits;
                recovered :=
                  !recovered + st.Service.Store.write_failures
                  + st.Service.Store.read_failures + st.Service.Store.corrupt
          done)
    (List.init 6 Fun.id);
  finish "service" t0
    [
      ("pairs", !pairs);
      ("store hits", !store_hits);
      ("degraded-and-recovered", !recovered);
    ]
    violations

(* ---- frontdoor wire-decoder hardening -------------------------------- *)

(** Two layers.  The pure incremental decoder
    ({!Service.Protocol.decode}) on 400 byte strings — random garbage,
    garbage behind the ["dbds/1 "] header prefix, well-formed messages
    with one byte flipped, truncations of well-formed messages — where
    any structured outcome is acceptable and raising is the bug, except
    that bytes which cannot begin ["dbds/1 "] must be an [Err] at once
    and a newline-free line behind the prefix must be an [Err] past
    [max_line_bytes]; and the blocking {!Service.Protocol.receive} on
    100 streams of 1–3 rendered messages cut into random chunks over a
    simulated connection — it must return exactly those messages, and a
    truncated tail before the close must not read as a clean ["eof"].
    Then 8 simulated garbage-client runs against a live
    {!Service.Frontdoor}: junk must earn a structured rejection or a
    clean close (never an escaping exception or a wedged event loop),
    and a fresh well-formed connection must still be served
    afterwards. *)
let run_frontdoor () =
  let t0 = now () in
  let decoder_cases = 400 and server_seeds = 8 in
  let violations = ref [] in
  let rng = Random.State.make [| 0xf4d0; decoder_cases; server_seeds |] in
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
        violate violations "decoder accepted %d bytes that cannot begin %S"
          (String.length bytes) header_prefix
    | P.Msg _ | P.More -> ()
    | exception e ->
        violate violations "decoder raised %s on %d bytes"
          (Printexc.to_string e) (String.length bytes)
  in
  let noise n =
    String.init (Random.State.int rng n) (fun _ ->
        Char.chr (Random.State.int rng 256))
  in
  for _ = 1 to decoder_cases / 4 do
    feed (noise 200);
    feed (header_prefix ^ noise 64);
    let wire = P.render (random_message ()) in
    (* Exactly one byte changes: one index, and a value other than the
       byte it replaces. *)
    let mutated = Bytes.of_string wire in
    let i = Random.State.int rng (String.length wire) in
    Bytes.set mutated i
      (Char.chr ((Char.code wire.[i] + 1 + Random.State.int rng 255) land 255));
    feed (Bytes.to_string mutated);
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
  | _ ->
      violate violations "%d newline-free bytes were not refused"
        (String.length long)
  | exception e ->
      violate violations "decoder raised %s on a long line"
        (Printexc.to_string e));
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
          (* [connect] has queued the connection already. *)
          let server = Option.get (l.Service.Env.try_accept ()) in
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
                    violate violations "stream %d: read %s, rendered %s" k
                      got.P.verb m.P.verb
              | Error e ->
                  violate violations "stream %d: %s before the end" k e)
            msgs;
          (match (P.receive rd server, truncated) with
          | Ok m, _ ->
              violate violations "stream %d: read a %s past the end" k m.P.verb
          | Error "eof", true ->
              violate violations "stream %d: truncated tail read as eof" k
          | Error e, false when e <> "eof" ->
              violate violations "stream %d: clean end read as %s" k e
          | Error _, _ -> ());
          sender.Service.Env.join ())
    in
    if not out.Simtest.Sched.ok then
      violate violations "stream %d: unclean schedule (%d hung, %d crashed)" k
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
    let out =
      Simtest.Harness.serve_frontdoor ~workers:1 ~seed:(77000 + k) (fun env ->
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
                       violate violations
                         "seed %d: garbage earned an artifact" k
                 | Error _ -> ()
               with Service.Env.Net _ -> ());
              (try conn.Service.Env.close_conn ()
               with Service.Env.Net _ -> ()));
          (match
             Service.Client.connect ~env ~deadline_s:5.0 ~io_deadline_s:30.
               ~sock:"/fd" ()
           with
          | exception _ ->
              violate violations "seed %d: server unreachable after garbage" k
          | c ->
              if not (Service.Client.ping c) then
                violate violations "seed %d: ping failed after garbage" k;
              ignore (Service.Client.shutdown_server c);
              Service.Client.close c))
    in
    if not out.Simtest.Sched.ok then
      violate violations
        "seed %d: garbage run left an unclean schedule (%d hung, %d crashed)" k
        (List.length out.Simtest.Sched.hung)
        (List.length out.Simtest.Sched.crashed)
  done;
  finish "frontdoor" t0
    [
      ("decoder cases", !cases);
      ("stream cases", stream_cases);
      ("server runs", server_seeds);
      ("structured rejections", !rejected);
    ]
    violations

(* ------------------------------------------------------------------ *)
(* The compile matrix                                                  *)
(* ------------------------------------------------------------------ *)

type part = Paper | Lab | Progen | Progen_irr | Generated

type program = {
  name : string;
  part : part;
  seed : int;
  fresh : unit -> Ir.Program.t;
}

(* Builders return a fresh program per call — optimization mutates
   graphs in place. *)
let corpus =
  let suites part =
    List.concat_map (fun (s : Workloads.Suite.t) ->
        List.map
          (fun (b : Workloads.Suite.benchmark) ->
            {
              name =
                s.Workloads.Suite.suite_name ^ "/" ^ b.Workloads.Suite.name;
              part;
              seed = 0;
              fresh = (fun () -> Workloads.Suite.compile b);
            })
          s.Workloads.Suite.benchmarks)
  in
  let progen part ~irreducible =
    List.init 200 (fun seed ->
        {
          name =
            Printf.sprintf
              (if irreducible then "progen-irr/%d" else "progen/%d")
              seed;
          part;
          seed;
          fresh =
            (fun () -> Workloads.Progen.generate_program ~irreducible ~seed ());
        })
  in
  let generated shape =
    List.init 60 (fun seed ->
        {
          name = Printf.sprintf "%s/%d" (Workloads.Generated.name shape) seed;
          part = Generated;
          seed;
          fresh =
            (fun () ->
              Lang.Frontend.compile (Workloads.Generated.source shape ~seed));
        })
  in
  suites Paper Workloads.Registry.all
  @ suites Lab Workloads.Registry.adversarial
  @ progen Progen ~irreducible:false
  @ progen Progen_irr ~irreducible:true
  @ List.concat_map generated Workloads.Generated.shapes

type row = {
  config_name : string;
  config : Dbds.Config.t;
  paranoid : bool;
  covers : program -> bool;
}

let is_progen p = p.part = Progen || p.part = Progen_irr

(* The lab set: every adversarial benchmark plus two irreducible progen
   programs. *)
let in_lab p = p.part = Lab || (p.part = Progen_irr && p.seed < 2)

(* Paranoid mode turns the memo off, so every pass runs on the whole
   graph, and verifies the IR (the reachability bit included) after
   every pass and duplication.  Backtracking reruns the whole optimizer
   per attempt with the memo off (about 0.5 s a program), so it takes
   seeds 0-19 only.  dbds_paths continues each accepted duplication
   along its simulated merge chain (paper §8) within the round; its
   paranoid row checks the round's dominator tree where duplications
   touch each other's blocks most, around irreducible rings. *)
let rows =
  let row config_name config paranoid covers =
    { config_name; config; paranoid; covers }
  in
  Dbds.Config.
    [
      row "off" off false (fun p -> p.part <> Generated);
      row "dbds" dbds false (fun _ -> true);
      row "dbds" dbds true (fun p -> p.part <> Generated);
      row "dbds_paths" dbds_paths true (fun p -> p.part = Progen_irr);
      row "condelim_dup" condelim_dup false in_lab;
      row "condelim_dup" condelim_dup true (fun p ->
          is_progen p || p.part = Lab);
      row "backtracking" backtracking true (fun p ->
          is_progen p && p.seed < 20);
    ]

let row_label r = r.config_name ^ if r.paranoid then " paranoid" else ""

type compiled_fn = {
  graph : Ir.Graph.t;
  stats : string;
  capped : int;  (* fix groups that stopped at their [rounds] cap *)
}

type compiled = {
  program : program;
  row : row;
  prog : Ir.Program.t;
  fns : compiled_fn list;  (* in function-name order *)
  failures : string list;
  work : int;
  audited : int;
  audit_violations : string list;
}

let at program row = program.name ^ "@" ^ row_label row
let where c = at c.program c.row

(* The driver's jobs-1 path without containment: inline, then each
   function's pipeline on one phase context.  A memo-on compile of the
   lab set audits every stamp that claims more than its run saw:
   whenever a pass is stamped clean after a region run or after a run
   that changed the graph, the same pass over the whole of a copy must
   fire nothing.  (Auditing every memo-on compile would take about 6 s
   more on a 2-vCPU host.) *)
let compile_row row program =
  let config =
    if row.paranoid then
      { row.config with Dbds.Config.verify_between_phases = true }
    else row.config
  in
  let at = at program row in
  let prog = program.fresh () in
  let ctx = Opt.Phase.create ~program:prog () in
  let audited = ref 0 and audit_violations = ref [] and failures = ref [] in
  if (not row.paranoid) && in_lab program then
    ctx.Opt.Phase.region_audit <-
      Some
        (fun pass run g ->
          incr audited;
          if run (Opt.Phase.create ~program:prog ()) (Ir.Graph.copy g) then
            violate audit_violations
              "%s/%s: %s stamped clean, but its whole-graph run still fires" at
              (Ir.Graph.name g) pass);
  (try
     if Dbds.Driver.wants_inline config.Dbds.Config.passes then
       ignore (Opt.Inline.inline_program ctx prog)
   with e ->
     violate failures "%s: inlining raised %s" at (Printexc.to_string e));
  let fns =
    List.filter_map
      (fun g ->
        let capped = ctx.Opt.Phase.fix_capped in
        match Dbds.Driver.optimize_graph ~config ctx g with
        | s ->
            Some
              {
                graph = g;
                stats = stats_text s;
                capped = ctx.Opt.Phase.fix_capped - capped;
              }
        | exception e ->
            violate failures "%s/%s: raised %s" at (Ir.Graph.name g)
              (Printexc.to_string e);
            None)
      (functions prog)
  in
  {
    program;
    row;
    prog;
    fns;
    failures = List.rev !failures;
    work = ctx.Opt.Phase.work;
    audited = !audited;
    audit_violations = List.rev !audit_violations;
  }

type oracle = {
  name : string;
  check : compiled list -> (string * int) list * string list;
}

let sum f l = List.fold_left (fun n x -> n + f x) 0 l

let clean =
  {
    name = "clean";
    check =
      (fun cs ->
        ( [
            ("compiles", List.length cs);
            ("paranoid", sum (fun c -> Bool.to_int c.row.paranoid) cs);
          ],
          List.concat_map (fun c -> c.failures) cs ));
  }

(* Raw-id IR followed by the duplication stats. *)
let fn_text f = Ir.Printer.graph_to_string f.graph ^ f.stats

let region_equality =
  {
    name = "regions";
    check =
      (fun cs ->
        let vs = ref [] and programs = ref 0 and functions = ref 0 in
        List.iter
          (fun memo ->
            match
              List.find_opt
                (fun c ->
                  c.row.paranoid && c.row.config_name = memo.row.config_name)
                cs
            with
            | Some whole
              when (not memo.row.paranoid) && memo.failures = []
                   && whole.failures = [] ->
                incr programs;
                List.iter2
                  (fun a b ->
                    incr functions;
                    if fn_text a <> fn_text b then
                      violate vs
                        "%s/%s: region runs compile differently from \
                         whole-graph runs"
                        (where memo) (Ir.Graph.name a.graph))
                  memo.fns whole.fns
            | _ -> ())
          cs;
        ([ ("programs", !programs); ("functions", !functions) ], List.rev !vs));
  }

let classic_phases =
  List.map
    (fun name -> Opt.Pipeline.resolve_classic name [])
    Opt.Pipeline.classic_names

let quiescence =
  {
    name = "quiescence";
    check =
      (fun cs ->
        let vs = ref [] and capped = ref [] in
        let memo = List.filter (fun c -> not c.row.paranoid) cs in
        List.iter
          (fun c ->
            List.iter
              (fun f ->
                let fn = Ir.Graph.name f.graph in
                if f.capped > 0 then
                  capped :=
                    !capped @ [ ("capped at " ^ where c ^ "/" ^ fn, f.capped) ];
                List.iter
                  (fun (p : Opt.Phase.t) ->
                    let ctx = Opt.Phase.create ~program:c.prog () in
                    if p.Opt.Phase.run ctx (Ir.Graph.copy f.graph) then
                      violate vs "%s/%s: %s fires on the compiled graph"
                        (where c) fn p.Opt.Phase.pass_name)
                  classic_phases)
              c.fns)
          memo;
        ( [
            ("compiles", List.length memo);
            ("functions", sum (fun c -> List.length c.fns) memo);
            ("fix groups capped", sum snd !capped);
          ]
          @ !capped,
          List.rev !vs ));
  }

let region_audit =
  {
    name = "audit";
    check =
      (fun cs ->
        ( [ ("region checks", sum (fun c -> c.audited) cs) ],
          List.concat_map (fun c -> c.audit_violations) cs ));
  }

(* Whole-run byte identity between jobs 1 and jobs 4 over the lab set,
   under condelim_dup and dbds: without a fault plan against the matrix
   compile, and with one. *)
let jobs_identity =
  {
    name = "jobs";
    check =
      (fun cs ->
        let vs = ref [] and pairs = ref 0 in
        List.iter
          (fun c ->
            let run config jobs =
              let prog = c.program.fresh () in
              match Dbds.Driver.optimize_program_report ~config ~jobs prog with
              | r -> Ok (report_fingerprint prog r)
              | exception e -> Error (Printexc.to_string e)
            in
            let compare plan one four =
              incr pairs;
              match (one, four) with
              | Ok a, Ok b ->
                  if a <> b then
                    violate vs "%s plan=%d: jobs=4 diverges from jobs=1"
                      (where c) plan
              | Error msg, _ | _, Error msg ->
                  violate vs "%s plan=%d: escaped exception: %s" (where c) plan
                    msg
            in
            let matrix_run =
              fingerprint ~graphs:(List.map (fun f -> f.graph) c.fns)
                ~stats:
                  (List.map (fun f -> (Ir.Graph.name f.graph, f.stats)) c.fns)
                ~failures:[] ~work:c.work ~contained:0
            in
            compare 0 (Ok matrix_run) (run c.row.config 4);
            let plan =
              Dbds.Faults.of_seed ((Hashtbl.hash c.program.name * 31) + 1)
            in
            let config =
              { c.row.config with Dbds.Config.fault_plan = Some plan }
            in
            compare 1 (run config 1) (run config 4))
          (List.filter
             (fun c ->
               (not c.row.paranoid) && c.failures = [] && in_lab c.program
               && List.mem c.row.config_name [ "dbds"; "condelim_dup" ])
             cs);
        ([ ("identity pairs", !pairs) ], List.rev !vs));
  }

(* A kind with its operands swapped (the comparison kept): the same key
   for a commutative operator or an equality test, another one for the
   rest. *)
let mirror = function
  | Ir.Types.Binop (op, a, b) -> Ir.Types.Binop (op, b, a)
  | Ir.Types.Cmp (op, a, b) -> Ir.Types.Cmp (op, b, a)
  | k -> k

let valtab =
  {
    name = "valtab";
    check =
      (fun cs ->
        let vs = ref [] and lookups = ref 0 and hits = ref 0 in
        List.iter
          (fun c ->
            List.iter
              (fun f ->
                let g = f.graph in
                let dom = Ir.Dom.compute g in
                let t = Opt.Valtab.create () and h = Hashtbl.create 64 in
                let wrong = ref 0 in
                let expect id ours theirs =
                  incr lookups;
                  if ours >= 0 then incr hits;
                  if ours <> theirs then begin
                    if !wrong = 0 then
                      violate vs
                        "%s/%s: v%d: Valtab answers %d, key_of_kind %d"
                        (where c) (Ir.Graph.name g) id ours theirs;
                    incr wrong
                  end
                in
                let theirs kind =
                  if Opt.Gvn.is_candidate kind then
                    Option.value ~default:(-1)
                      (Hashtbl.find_opt h (Opt.Gvn.key_of_kind kind))
                  else -1
                in
                let rec visit bid =
                  let scope = Opt.Valtab.mark t and added = ref [] in
                  Ir.Graph.iter_block_instrs g bid (fun id ->
                      let kind = Ir.Graph.kind g id in
                      let found = theirs kind in
                      if found < 0 && Opt.Gvn.is_candidate kind then begin
                        let key = Opt.Gvn.key_of_kind kind in
                        Hashtbl.add h key id;
                        added := key :: !added
                      end;
                      expect id (Opt.Valtab.find_or_add t kind id) found;
                      expect id
                        (Opt.Valtab.find t (mirror kind))
                        (theirs (mirror kind)));
                  List.iter visit (Ir.Dom.children dom bid);
                  Opt.Valtab.pop_to t scope;
                  List.iter (Hashtbl.remove h) !added
                in
                visit (Ir.Graph.entry g))
              c.fns)
          cs;
        ([ ("lookups", !lookups); ("hits", !hits) ], List.rev !vs));
  }

let oracles =
  [ clean; region_equality; quiescence; region_audit; jobs_identity; valtab ]

let run_matrix () =
  let compile_s = ref 0. and per_row = ref [ ("compiles", 0) ] in
  let acc = List.map (fun o -> (o, ref [], ref [], ref 0.)) oracles in
  List.iter
    (fun program ->
      let t0 = now () in
      (* Build each program once: a copy costs about 1/30 of a build
         and compiles to the same IR, stats and work. *)
      let base = program.fresh () in
      let program = { program with fresh = (fun () -> Ir.Program.copy base) } in
      let cs =
        List.filter_map
          (fun row ->
            if row.covers program then Some (compile_row row program) else None)
          rows
      in
      compile_s := !compile_s +. (now () -. t0);
      per_row :=
        add_counts !per_row
          (("compiles", List.length cs)
          :: List.map (fun c -> (row_label c.row, 1)) cs);
      List.iter
        (fun ((o : oracle), counts, vs, secs) ->
          let t0 = now () in
          let c, v = o.check cs in
          counts := add_counts !counts c;
          vs := List.rev_append v !vs;
          secs := !secs +. (now () -. t0))
        acc)
    corpus;
  { name = "matrix"; counts = !per_row; violations = []; seconds = !compile_s }
  :: List.map
       (fun ((o : oracle), counts, vs, secs) ->
         {
           name = o.name;
           counts = !counts;
           violations = List.rev !vs;
           seconds = !secs;
         })
       acc
