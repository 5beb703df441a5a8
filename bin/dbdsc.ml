(** [dbdsc] — the command-line compiler driver.

    Compiles a mini-language source file, optimizes it under a chosen
    configuration (baseline / dbds / dupalot / backtracking), optionally
    dumps the IR before and after, reports statistics, and can run the
    program on the cost-model interpreter. *)

open Cmdliner

type dump = No_dump | Dump_before | Dump_after | Dump_both | Dump_canon

(** Options of the compilation service (server and client). *)
type service_opts = {
  serve : string option;  (** run as a compile server on this socket *)
  connect : string option;  (** compile FILE through this server *)
  cache_dir : string option;  (** the server's on-disk artifact store *)
  cache_capacity : int;  (** store byte budget (LRU GC) *)
  canon : bool;
      (** canonicalize function IR (print → parse) after inlining, before
          the per-function pipeline — the form the service compiles, so
          direct and service outputs are byte-comparable *)
  deadline_ms : int option;  (** per-request deadline (client mode) *)
  delay_ms : int option;
      (** artificial compile latency (test hook: client header / server
          broker default) *)
  svc_stats : bool;  (** fetch and print server statistics *)
  svc_shutdown : bool;  (** ask the server to shut down *)
  queue_limit : int;  (** server admission-queue bound *)
  workers : int;  (** server compile workers and dispatchers *)
}

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let mode_conv = Arg.enum Dbds.Config.named

(* Contained failures are reported, never silent: the compilation is
   degraded (those functions kept their unoptimized IR) but complete. *)
let print_failures failures =
  List.iter
    (fun f ->
      Format.eprintf "warning: %a@." Dbds.Driver.pp_failure f;
      match f.Dbds.Driver.fail_bundle with
      | Some path -> Format.eprintf "  crash bundle: %s@." path
      | None -> ())
    failures

let replay path =
  let b = Dbds.Bundle.read path in
  Format.printf "replaying %s: function %s, crash at %s@." path
    b.Dbds.Bundle.b_fn b.Dbds.Bundle.b_site;
  (match b.Dbds.Bundle.b_plan with
  | Some p -> Format.printf "fault plan: %s@." (Dbds.Faults.to_string p)
  | None -> ());
  match Dbds.Driver.replay_bundle b with
  | `Reproduced f ->
      Format.printf "reproduced: %a@." Dbds.Driver.pp_failure f;
      Format.printf "backtrace:@.%s@." f.Dbds.Driver.fail_backtrace
  | `Clean -> Format.printf "did not reproduce: the function now optimizes cleanly@."

(* The service compiles post-inlining compilation units, so client mode
   (and --canon direct mode) applies the program-level inline of the
   effective pipeline locally, up front. *)
let apply_inline prog config =
  if Dbds.Driver.wants_inline config.Dbds.Config.passes then
    ignore (Opt.Inline.inline_program (Opt.Phase.create ~program:prog ()) prog)

(* Replace every function body with its print → parse round-trip: dense
   ids in appearance order — exactly the form a service worker parses
   off the wire, so tie-breaks downstream see identical inputs. *)
let canonicalize_program prog =
  List.iter
    (fun fn ->
      match Ir.Program.find_function prog fn with
      | Some g ->
          Ir.Program.add_function prog
            (Ir.Parse.parse_graph (Ir.Printer.graph_to_string g))
      | None -> ())
    (Ir.Program.function_names prog)

let run_serve ~sock svc =
  let store =
    Option.map
      (fun dir -> Service.Store.create ~capacity:svc.cache_capacity ~dir ())
      svc.cache_dir
  in
  let broker =
    Service.Broker.create ~workers:svc.workers ~queue_limit:svc.queue_limit
      ?delay_s:(Option.map (fun ms -> float_of_int ms /. 1000.) svc.delay_ms)
      ~store ()
  in
  Service.Frontdoor.serve
    ~log:(fun line -> Format.eprintf "[dbdsc --serve] %s@." line)
    ~config:
      {
        Service.Frontdoor.fd_dispatchers = svc.workers;
        fd_queue_limit = svc.queue_limit;
      }
    ~sock ~broker ()

(* Client mode: with a FILE, send each post-inline function through the
   server and print its optimized IR in program order; without one,
   there must be stats or a shutdown to ask for. *)
let run_client ~sock ~config ~file svc =
  let c =
    Service.Client.connect ~deadline_s:5.0 ~sock ()
  in
  let compile ~context fn ir =
    match
      Service.Client.compile_ex ?deadline_ms:svc.deadline_ms
        ?delay_ms:svc.delay_ms ~context ~config ~fn ~ir c
    with
    | Ok (Service.Broker.Done { ir; _ }, _) -> ir
    | Ok (Service.Broker.Shed, Some retry_ms) ->
        failwith
          (Printf.sprintf "service shed %s: retry after %d ms" fn retry_ms)
    | Ok (o, _) ->
        failwith
          (Printf.sprintf "service refused %s: %s" fn
             (Service.Broker.outcome_label o))
    | Error msg -> failwith ("service: " ^ msg)
  in
  Fun.protect
    ~finally:(fun () -> Service.Client.close c)
    (fun () ->
      (match file with
      | None ->
          if not (svc.svc_stats || svc.svc_shutdown) then
            failwith
              "--connect needs a FILE, --service-stats or --service-shutdown"
      | Some f ->
          let prog = Lang.Frontend.compile (read_file f) in
          apply_inline prog config;
          let context = Service.Digest.context_of_program prog in
          let results =
            List.map
              (fun fn ->
                let g = Option.get (Ir.Program.find_function prog fn) in
                compile ~context fn (Ir.Printer.graph_to_string g))
              (Ir.Program.function_names prog)
          in
          List.iter (fun ir -> Format.printf "%s@." ir) results);
      if svc.svc_stats then begin
        match
          Service.Client.roundtrip c
            { Service.Protocol.verb = "stats"; fields = [] }
        with
        | Ok reply ->
            let fld k = Service.Protocol.field_or reply k "" in
            (* A store-less server reports its store as [none]. *)
            let store = fld "store" in
            Format.printf "=== service ===@.%s@.%s@.counts: %s@."
              (fld "broker")
              (if store = "none" then "store: none" else store)
              (fld "counts");
            (* The admission counters and the latency histogram. *)
            (match Service.Protocol.field reply "frontdoor" with
            | Some fd -> Format.printf "=== frontdoor ===@.%s@." fd
            | None -> ())
        | Error msg -> failwith ("service stats: " ^ msg)
      end;
      if svc.svc_shutdown then
        match Service.Client.shutdown_server c with
        | Ok () -> ()
        | Error msg -> failwith ("service shutdown: " ^ msg))

(** Options of the deterministic whole-system simulator. *)
type sim_opts = {
  sim : bool;  (** run the service inside the simulator *)
  sim_seed : int;  (** first schedule seed *)
  sim_seeds : int;  (** number of consecutive seeds to sweep *)
  sim_shrink : bool;  (** minimize violating seeds and write bundles *)
  sim_clients : int;
  sim_chaos : int;  (** seed-derived fault plans per run *)
  sim_faults : string option;  (** explicit plans, comma-separated *)
  sim_replay : string option;  (** re-run a sim bundle instead of sweeping *)
  sim_bundle_dir : string;
}

exception Sim_violations

(* Deterministic whole-system simulation: the full compile service —
   server, broker workers, clients — runs single-threaded under a
   virtual clock with seeded chaos.  Every seed must end in
   byte-identical IR or a clean contained failure; anything else
   (hang, wrong artifact, livelock) is a violation. *)
let run_sim sim =
  let module H = Simtest.Harness in
  let print_result (r : H.result) =
    Format.printf "sim seed %d: %s@." r.H.r_spec.H.seed (H.summary r);
    List.iter
      (fun (v : H.violation) ->
        Format.printf "  VIOLATION %s: %s@." v.H.vio_kind v.H.vio_detail)
      r.H.r_violations
  in
  match sim.sim_replay with
  | Some path ->
      let r = H.replay path in
      Format.printf "replaying %s@." path;
      print_result r;
      if H.violating r then raise Sim_violations
  | None ->
      let spec =
        H.builder ~seed:sim.sim_seed ()
        |> H.with_clients sim.sim_clients
        |> H.with_chaos sim.sim_chaos
      in
      let spec =
        match sim.sim_faults with
        | None -> spec
        | Some s ->
            List.fold_left
              (fun acc part ->
                match Dbds.Faults.of_string part with
                | Ok p -> H.with_fault p acc
                | Error e -> failwith ("--sim-faults: " ^ e))
              spec
              (String.split_on_char ',' s)
      in
      let results =
        H.run_seeds ~progress:(fun _ r -> print_result r) ~seeds:sim.sim_seeds
          spec
      in
      let violating = List.filter H.violating results in
      if sim.sim_shrink then
        List.iter
          (fun (r : H.result) ->
            match H.shrink r.H.r_spec with
            | None ->
                Format.printf "sim seed %d: violation did not reproduce under \
                               shrinking@."
                  r.H.r_spec.H.seed
            | Some (min_spec, kind) ->
                let min_r = H.run min_spec in
                let path = H.write_bundle ~dir:sim.sim_bundle_dir min_r in
                Format.printf
                  "sim seed %d: shrunk %s to %d client(s) x %d request(s), %d \
                   worker(s), %d fault(s)@."
                  r.H.r_spec.H.seed kind min_spec.H.clients
                  min_spec.H.requests_per_client min_spec.H.workers
                  (List.length min_spec.H.faults);
                List.iter
                  (fun p ->
                    Format.printf "  fault: %s@." (Dbds.Faults.to_string p))
                  min_spec.H.faults;
                Format.printf "  bundle: %s@." path)
          violating;
      Format.printf "sim: %d seed(s), %d violating@." (List.length results)
        (List.length violating);
      if violating <> [] then raise Sim_violations

let run_compiler file mode passes print_passes dump dot
    run args stats icache_off jobs inject paranoid bundle_dir no_contain
    replay_bundle profile_runs svc simopts =
  match
    (match replay_bundle with
    | Some path ->
        replay path;
        raise Exit
    | None -> ());
    let fault_plan =
      match inject with
      | None -> None
      | Some s -> (
          match Dbds.Faults.of_string s with
          | Ok p -> Some p
          | Error msg -> failwith msg)
    in
    let spec =
      match passes with
      | None -> mode.Dbds.Config.passes
      | Some s -> (
          match Opt.Spec.of_string s with
          | Ok spec -> spec
          | Error msg -> failwith ("--passes: " ^ msg))
    in
    let config =
      {
        mode with
        Dbds.Config.fault_plan;
        verify_between_phases = paranoid;
        bundle_dir;
        containment = not no_contain;
        passes = spec;
      }
    in
    if print_passes then begin
      (* First line: the canonical form, parseable back through
         --passes (CI round-trips `head -1` of this output).  Then the
         contract table: what each per-function pass preserves, and
         for a tier that optimizes after each round, its action steps. *)
      Format.printf "%s@." (Opt.Spec.to_string spec);
      List.iter
        (fun (name, preserves) ->
          Format.printf "# %-14s preserves=%s%s@." name
            (match preserves with
            | [] -> "-"
            | ks ->
                String.concat ","
                  (List.map Ir.Analyses.kind_to_string ks))
            (match Dbds.Driver.round_action_steps name with
            | [] -> ""
            | steps -> " action-steps=" ^ String.concat "," steps))
        (Dbds.Driver.describe_spec config spec);
      raise Exit
    end;
    (match svc.serve with
    | Some sock ->
        run_serve ~sock svc;
        raise Exit
    | None -> ());
    (match svc.connect with
    | Some sock ->
        run_client ~sock ~config ~file svc;
        raise Exit
    | None -> ());
    if simopts.sim || simopts.sim_replay <> None then begin
      run_sim simopts;
      raise Exit
    end;
    let file =
      match file with
      | Some f -> f
      | None -> failwith "a source FILE is required (or --replay-bundle)"
    in
    if svc.cache_dir <> None then
      failwith "--cache-dir is a --serve option: a direct compile has no store";
    let src = read_file file in
    let prog = Lang.Frontend.compile src in
    if dump = Dump_before || dump = Dump_both then begin
      Format.printf "=== IR before optimization ===@.";
      Ir.Program.iter_functions prog (fun g ->
          Format.printf "%s@." (Ir.Printer.graph_to_string g))
    end;
    let jobs = if jobs <= 0 then None else Some jobs in
    let icache =
      if icache_off then Interp.Machine.no_icache
      else Interp.Machine.default_icache
    in
    if profile_runs > 0 then begin
      (* One-shot profile-guided compilation: interpret the unoptimized
         program N times recording branch outcomes, rewrite the static
         probabilities from the recording, then optimize as usual. *)
      let profile, _ =
        Interp.Machine.profile_guided ~icache ~runs:profile_runs prog
          ~args:(Array.of_list args)
      in
      let branches, samples =
        Interp.Profile.fold profile ~init:(0, 0)
          ~f:(fun (b, s) ~fn:_ ~bid:_ ~taken:_ ~total -> (b + 1, s + total))
      in
      Format.printf
        "profile: %d run(s), %d branch(es), %d sample(s); probabilities \
         applied@."
        profile_runs branches samples
    end;
    if svc.canon then begin
      (* Put each compilation unit in exactly the form a service worker
         would parse off the wire, so direct and service outputs are
         byte-comparable: inline first, then canonicalize ids. *)
      apply_inline prog config;
      canonicalize_program prog
    end;
    let report =
      Dbds.Driver.optimize_program_report ~config
        ?inline:(if svc.canon then Some false else None)
        ?jobs prog
    in
    let ctx = report.Dbds.Driver.rep_ctx
    and per_fn = report.Dbds.Driver.rep_stats in
    print_failures report.Dbds.Driver.rep_failures;
    if dump = Dump_after || dump = Dump_both then begin
      Format.printf "=== IR after %s ===@." (Opt.Spec.to_string spec);
      Ir.Program.iter_functions prog (fun g ->
          Format.printf "%s@." (Ir.Printer.graph_to_string g))
    end;
    if dump = Dump_canon then
      (* Canonical optimized IR only, one graph per function in name
         order — the exact bytes client mode prints, for comparison. *)
      Ir.Program.iter_functions prog (fun g ->
          Format.printf "%s@." (Service.Digest.canonical_of_graph g));
    (match dot with
    | None -> ()
    | Some base ->
        Ir.Program.iter_functions prog (fun g ->
            let path = Printf.sprintf "%s.%s.dot" base (Ir.Graph.name g) in
            Ir.Dot.write_file path g;
            Format.printf "wrote %s@." path));
    if stats then begin
      Format.printf "=== statistics ===@.";
      List.iter
        (fun (name, s) ->
          Format.printf "%-20s %a@." name Dbds.Driver.pp_stats s)
        per_fn;
      (* Per-pass instrumentation: every column except time(s) is
         deterministic for any -j. *)
      (match Opt.Phase.pass_table ctx with
      | [] -> ()
      | table ->
          Format.printf "=== passes ===@.";
          Format.printf "%-14s %6s %6s %10s %9s %8s@." "pass" "runs" "fired"
            "work" "time(s)" "Δsize";
          List.iter
            (fun (name, st) ->
              Format.printf "%-14s %6d %6d %10d %9.4f %8d@." name
                st.Opt.Phase.runs st.Opt.Phase.fired st.Opt.Phase.pwork
                st.Opt.Phase.time_s st.Opt.Phase.size_delta)
            table);
      let hits = ctx.Opt.Phase.analysis_hits
      and misses = ctx.Opt.Phase.analysis_misses in
      if hits + misses > 0 then
        Format.printf "analysis cache: %d hits, %d misses (%.1f%% hit rate)@."
          hits misses
          (100.0 *. float_of_int hits /. float_of_int (hits + misses));
      let size = ref 0 in
      Ir.Program.iter_functions prog (fun g ->
          size := !size + Costmodel.Estimate.graph_size g);
      Format.printf "code size: %d bytes (cost model), compile work: %d units@."
        !size ctx.Opt.Phase.work;
      if ctx.Opt.Phase.contained <> [] then
        Format.printf "contained failures: %d (%s)@."
          (Opt.Phase.contained_total ctx)
          (String.concat ", "
             (List.map
                (fun (site, n) -> Printf.sprintf "%s x%d" site n)
                ctx.Opt.Phase.contained))
    end;
    if run then begin
      let result, rstats =
        Interp.Machine.run ~icache prog ~args:(Array.of_list args)
      in
      Format.printf "result: %s@." (Interp.Machine.result_to_string result);
      Format.printf
        "cycles: %.1f, instructions: %d, icache: %d hits / %d misses, \
         allocations: %d@."
        rstats.Interp.Machine.cycles rstats.Interp.Machine.instrs_executed
        rstats.Interp.Machine.icache_hits rstats.Interp.Machine.icache_misses
        rstats.Interp.Machine.allocations
    end
  with
  | () -> 0
  | exception Exit -> 0
  | exception Lang.Frontend.Error msg ->
      Format.eprintf "error: %s@." msg;
      1
  | exception Sys_error msg ->
      Format.eprintf "error: %s@." msg;
      1
  | exception Failure msg ->
      Format.eprintf "error: %s@." msg;
      1
  | exception Dbds.Bundle.Malformed msg ->
      Format.eprintf "error: malformed bundle: %s@." msg;
      1
  | exception Ir.Parse.Parse_error msg ->
      Format.eprintf "error: bundle IR: %s@." msg;
      1
  | exception Interp.Machine.Runtime_error msg ->
      Format.eprintf "runtime error: %s@." msg;
      1
  | exception Invalid_argument msg ->
      Format.eprintf "error: %s@." msg;
      1
  | exception Unix.Unix_error (e, fn, arg) ->
      Format.eprintf "error: %s: %s %s@." (Unix.error_message e) fn arg;
      1
  | exception Service.Client.Connect_failed { sock; attempts; elapsed_s; last } ->
      Format.eprintf "error: %s unreachable: %s (%d attempt(s) over %.1fs)@."
        sock
        (Service.Env.net_err_to_string last)
        attempts elapsed_s;
      1
  | exception Service.Env.Net (e, msg) ->
      Format.eprintf "error: %s: %s@." (Service.Env.net_err_to_string e) msg;
      1
  | exception Sim_violations -> 1
  | exception Simtest.Harness.Malformed_bundle msg ->
      Format.eprintf "error: malformed sim bundle: %s@." msg;
      1

let file_arg =
  Arg.(
    value & pos 0 (some file) None
    & info [] ~docv:"FILE"
        ~doc:"Source file (required unless $(b,--replay-bundle) is given).")

let mode_arg =
  Arg.(
    value
    & opt mode_conv Dbds.Config.dbds
    & info [ "m"; "mode"; "tier" ] ~docv:"MODE"
        ~doc:
          "Optimization mode (tier), a named default pipeline: baseline, \
           dbds, dupalot, backtracking or condelim-dup (greedy conditional \
           elimination through duplication, no trade-off).  \
           $(b,--print-passes) shows its spec.")

(* The --passes help's pass list, generated from the spec schema. *)
let passes_doc =
  let bold names =
    String.concat ", " (List.map (Printf.sprintf "$(b,%s)") names)
  in
  let option (d : Opt.Spec.decl) =
    Printf.sprintf "$(i,%s) (%s, default %s): %s" d.key (Opt.Spec.range d)
      (Opt.Spec.string_of_value d.default)
      d.doc
  in
  let group (names, decls) =
    bold names ^ ": "
    ^ if decls = [] then "none" else String.concat "; " (List.map option decls)
  in
  let alias (long, short) = Printf.sprintf "$(b,%s) for $(b,%s)" long short in
  let groups = Opt.Spec.schema @ [ ([ "fix" ], Opt.Spec.fix_options) ] in
  Printf.sprintf "Options by pass: %s.  Aliases: %s."
    (String.concat ". " (List.map group groups))
    (String.concat ", " (List.map alias Opt.Spec.aliases))

let passes_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "p"; "passes" ] ~docv:"SPEC"
        ~doc:
          ("Run this pipeline instead of the mode's.  SPEC is a \
            comma-separated list of pass names; $(b,fix(...)) iterates its \
            body to a fixpoint; options attach in braces, e.g. $(b,"
          ^ Manpage.escape
              "inline,fix(fix(canon,simplify,gvn,condelim,readelim,pea,dce),sccp),dbds{paths=3}"
          ^ "), and an option left out takes its default.  $(b,inline) is \
             program-level (top level only).  An unknown pass or option, a \
             repeated option and a value out of range are errors.  "
          ^ passes_doc))

let print_passes_arg =
  Arg.(
    value & flag
    & info [ "print-passes" ]
        ~doc:
          "Print the effective pipeline spec in canonical form and exit \
           (accepted back verbatim by $(b,--passes)).")

let dump_conv =
  Arg.enum
    [
      ("none", No_dump);
      ("before", Dump_before);
      ("after", Dump_after);
      ("both", Dump_both);
      ("canon", Dump_canon);
    ]

let dump_arg =
  Arg.(
    value & opt dump_conv No_dump
    & info [ "d"; "dump" ] ~docv:"WHEN"
        ~doc:
          "Dump IR: none, before, after, both, or canon (canonical \
           optimized IR only — the bytes $(b,--connect) prints, for \
           byte-for-byte comparison).")

let dot_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dot" ] ~docv:"BASE"
        ~doc:"Write Graphviz files BASE.<function>.dot after optimization.")

let run_arg =
  Arg.(value & flag & info [ "r"; "run" ] ~doc:"Run main on the interpreter.")

let args_arg =
  Arg.(
    value & opt (list int) []
    & info [ "a"; "args" ] ~docv:"INTS" ~doc:"Comma-separated integer arguments.")

let stats_arg =
  Arg.(value & flag & info [ "s"; "stats" ] ~doc:"Print duplication statistics.")

let no_icache_arg =
  Arg.(value & flag & info [ "no-icache" ] ~doc:"Disable the i-cache model.")

let jobs_arg =
  Arg.(
    value & opt int 0
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Optimize N functions in parallel (0 = one per core; 1 = \
           sequential).  Output is identical for any N.")

let inject_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "inject" ] ~docv:"PLAN"
        ~env:(Cmd.Env.info "DBDS_FAULTS")
        ~doc:
          "Arm a deterministic fault plan: $(i,site):$(i,hit)[:$(i,fn)] \
           raises at the Nth hit of a named site (sim.opportunity, \
           transform.apply, ssa.repair, parallel.worker, analyses.cache), \
           optionally only inside function $(i,fn); seed:$(i,N) derives a \
           plan from seed N.")

let paranoid_arg =
  Arg.(
    value & flag
    & info [ "paranoid" ]
        ~doc:
          "Verify SSA/CFG invariants after every optimization phase; a \
           violation is contained like a crash and rolls the function back.")

let bundle_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "bundle-dir" ] ~docv:"DIR"
        ~doc:
          "Write a replayable crash bundle (pre-attempt IR + config + fault \
           plan) to DIR for every contained failure.")

let no_contain_arg =
  Arg.(
    value & flag
    & info [ "no-contain" ]
        ~doc:
          "Disable crash containment: let optimizer exceptions escape \
           instead of rolling the function back.")

let replay_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "replay-bundle" ] ~docv:"BUNDLE"
        ~doc:
          "Replay a crash bundle written by $(b,--bundle-dir): re-run the \
           recorded function under the recorded config and fault plan and \
           report whether the failure reproduces.")

let profile_runs_arg =
  Arg.(
    value & opt int 0
    & info [ "profile-runs" ] ~docv:"N"
        ~doc:
          "Profile-guided compilation in one shot: interpret the unoptimized \
           program N times recording branch outcomes, rewrite the static \
           branch probabilities from the recording, then optimize as usual.")

let serve_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "serve" ] ~docv:"SOCK"
        ~doc:
          "Run as a compilation server on Unix socket SOCK (no FILE \
           needed): a poll-based event loop in front of the broker.  \
           Overload is answered with a structured shed carrying a \
           retry-after-ms hint.  Combine with $(b,--cache-dir), \
           $(b,--service-workers) and $(b,--service-queue-limit).  Stops \
           on a client's $(b,--service-shutdown).")

let connect_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "connect" ] ~docv:"SOCK"
        ~doc:
          "Compile FILE through the server on SOCK: inline locally, send \
           each function, print the canonical optimized IR (the bytes \
           $(b,--dump canon) prints for a direct run).")

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "With $(b,--serve): keep the artifact store on disk at DIR, so \
           published compiles survive a restart and are shared across \
           clients.")

let cache_capacity_arg =
  Arg.(
    value
    & opt int (8 * 1024 * 1024)
    & info [ "cache-capacity" ] ~docv:"BYTES"
        ~doc:
          "With $(b,--serve): artifact-store size budget; LRU entries are \
           evicted past it.")

let canon_arg =
  Arg.(
    value & flag
    & info [ "canon" ]
        ~doc:
          "Canonicalize every function (print → parse round-trip, after \
           inlining) before the per-function pipeline — the exact form a \
           service worker compiles, making direct output byte-comparable \
           with $(b,--connect).")

let deadline_ms_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Per-request deadline for $(b,--connect): requests not picked \
           up by a worker in time report timed-out.")

let service_delay_ms_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "service-delay-ms" ] ~docv:"MS"
        ~doc:
          "Test hook: stretch every real (non-cached) service compile by \
           MS milliseconds — with $(b,--serve), as the broker default; \
           with $(b,--connect), as a per-request header — making request \
           overlap (and therefore coalescing) deterministic.")

let service_stats_arg =
  Arg.(
    value & flag
    & info [ "service-stats" ]
        ~doc:
          "With $(b,--connect): fetch and print the server's broker and \
           store statistics (requests, compiles, coalesced, shed, hits, \
           GC evictions).")

let service_shutdown_arg =
  Arg.(
    value & flag
    & info [ "service-shutdown" ]
        ~doc:"With $(b,--connect): ask the server to shut down.")

let service_queue_limit_arg =
  Arg.(
    value & opt int 64
    & info [ "service-queue-limit" ] ~docv:"N"
        ~doc:
          "With $(b,--serve): bound the admission queue at N jobs; \
           requests beyond it are shed (backpressure).")

let service_workers_arg =
  Arg.(
    value & opt int 2
    & info [ "service-workers" ] ~docv:"N"
        ~doc:
          "With $(b,--serve): number of compile workers, each a domain \
           of its own, and of the front door's dispatchers, system \
           threads of the event loop's domain that wait on the disk \
           and compiles.  A request answered from memory never \
           leaves the event loop.")

let frontdoor_arg =
  Arg.(
    value & flag
    & info [ "frontdoor" ]
        ~doc:
          "Accepted and ignored: the front door is the only server \
           $(b,--serve) runs.")

let ignored_float_arg name =
  Arg.(
    value & opt float 0.0
    & info [ name ] ~docv:"N"
        ~doc:"Accepted and ignored: the front door has no per-client quota.")

let tenant_rate_arg = ignored_float_arg "tenant-rate"
let tenant_burst_arg = ignored_float_arg "tenant-burst"

let service_opts_term =
  let make serve connect cache_dir cache_capacity canon deadline_ms delay_ms
      svc_stats svc_shutdown queue_limit workers (_frontdoor : bool)
      (_tenant_rate : float) (_tenant_burst : float) =
    {
      serve;
      connect;
      cache_dir;
      cache_capacity;
      canon;
      deadline_ms;
      delay_ms;
      svc_stats;
      svc_shutdown;
      queue_limit;
      workers;
    }
  in
  Term.(
    const make $ serve_arg $ connect_arg $ cache_dir_arg $ cache_capacity_arg
    $ canon_arg $ deadline_ms_arg $ service_delay_ms_arg $ service_stats_arg
    $ service_shutdown_arg $ service_queue_limit_arg $ service_workers_arg
    $ frontdoor_arg $ tenant_rate_arg $ tenant_burst_arg)

let sim_arg =
  Arg.(
    value & flag
    & info [ "sim" ]
        ~doc:
          "Run the whole compile service (server, broker workers, clients) \
           inside the deterministic single-threaded simulator: virtual \
           clock, in-memory network and disk, seeded chaos faults.  Every \
           seed must end in byte-identical optimized IR or a clean \
           contained failure; exit 1 on any violation.")

let sim_seed_arg =
  Arg.(
    value & opt int 0
    & info [ "sim-seed" ] ~docv:"SEED"
        ~doc:
          "First schedule seed.  The same seed replays the exact event \
           schedule (compare the printed trace hashes).")

let sim_seeds_arg =
  Arg.(
    value & opt int 1
    & info [ "sim-seeds" ] ~docv:"N"
        ~doc:"Sweep N consecutive seeds starting at $(b,--sim-seed).")

let sim_shrink_arg =
  Arg.(
    value & flag
    & info [ "sim-shrink" ]
        ~doc:
          "Reduce each violating seed to a minimal topology and fault plan \
           (greedy delta-debugging over faults, clients, requests, workers) \
           and write it as a replayable bundle.")

let sim_clients_arg =
  Arg.(
    value & opt int 3
    & info [ "sim-clients" ] ~docv:"N"
        ~doc:"Number of simulated client fibers.")

let sim_chaos_arg =
  Arg.(
    value & opt int 3
    & info [ "sim-chaos" ] ~docv:"N"
        ~doc:
          "Number of seed-derived chaos fault plans per run (message drops, \
           reorders, duplicates, partitions, slow/torn disk IO, clock \
           jumps).  0 disables chaos.")

let sim_faults_arg =
  Arg.(
    value & opt (some string) None
    & info [ "sim-faults" ] ~docv:"PLANS"
        ~doc:
          "Comma-separated explicit fault plans (same $(b,site:hit[:fn]) \
           grammar as $(b,--inject), e.g. \
           $(b,net.drop:2,store.corrupt:1:main)).  Environment sites arm \
           the simulator; store/pipeline sites travel in the request \
           configuration.")

let sim_replay_arg =
  Arg.(
    value & opt (some string) None
    & info [ "sim-replay" ] ~docv:"BUNDLE"
        ~doc:"Re-run a simulation bundle written by $(b,--sim-shrink).")

let sim_bundle_dir_arg =
  Arg.(
    value & opt string "."
    & info [ "sim-bundle-dir" ] ~docv:"DIR"
        ~doc:"Directory for bundles written by $(b,--sim-shrink).")

let sim_opts_term =
  let make sim sim_seed sim_seeds sim_shrink sim_clients sim_chaos sim_faults
      sim_replay sim_bundle_dir =
    {
      sim;
      sim_seed;
      sim_seeds;
      sim_shrink;
      sim_clients;
      sim_chaos;
      sim_faults;
      sim_replay;
      sim_bundle_dir;
    }
  in
  Term.(
    const make $ sim_arg $ sim_seed_arg $ sim_seeds_arg $ sim_shrink_arg
    $ sim_clients_arg $ sim_chaos_arg $ sim_faults_arg
    $ sim_replay_arg $ sim_bundle_dir_arg)

let cmd =
  let doc = "SSA compiler with dominance-based duplication simulation" in
  Cmd.v
    (Cmd.info "dbdsc" ~version:"1.0.0" ~doc)
    Term.(
      const run_compiler $ file_arg $ mode_arg $ passes_arg
      $ print_passes_arg $ dump_arg $ dot_arg $ run_arg $ args_arg $ stats_arg
      $ no_icache_arg $ jobs_arg $ inject_arg $ paranoid_arg $ bundle_dir_arg
      $ no_contain_arg $ replay_arg $ profile_runs_arg $ service_opts_term
      $ sim_opts_term)

let () =
  Printexc.record_backtrace true;
  exit (Cmd.eval' cmd)
