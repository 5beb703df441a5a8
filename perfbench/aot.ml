(* The source -> optimized IR path: compile jobs in a closed loop on one
   domain, check every distinct program's output once, and derive the
   output-quality metrics from the workload's fixed quality set. *)

let config = Gen.config

(* Processor time of this process, user plus system.  On a shared host
   the wall clock also counts the time other tenants hold the processor
   (the kernel's steal time); processor time does not, and a compile on
   one domain with no I/O spends all its wall time on the processor when
   the host is idle. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Content digest of a program's optimized IR, function by function. *)
let digest prog =
  String.concat ","
    (List.filter_map
       (fun n -> Option.map Service.Digest.ir_hash_of_graph (Ir.Program.find_function prog n))
       (Ir.Program.function_names prog))

let code_size prog =
  let s = ref 0 in
  Ir.Program.iter_functions prog (fun g -> s := !s + Costmodel.Estimate.graph_size g);
  !s

let live_instrs prog =
  let s = ref 0 in
  Ir.Program.iter_functions prog (fun g -> s := !s + Ir.Graph.live_instr_count g);
  !s

let nfuns prog = List.length (Ir.Program.function_names prog)

(* Classic passes whose instrumentation is reported per layer. *)
let classic =
  [ "canonicalize"; "simplify-cfg"; "sccp"; "gvn"; "condelim"; "readelim"; "pea"; "dce" ]

type pass_acc = { mutable runs : int; mutable fired : int; mutable pwork : int; mutable time_s : float }

let pass_acc () = List.map (fun n -> (n, { runs = 0; fired = 0; pwork = 0; time_s = 0.0 })) ("dbds" :: classic)

let add_passes acc table =
  List.iter
    (fun (name, (st : Opt.Phase.pass_stat)) ->
      match List.assoc_opt name acc with
      | Some a ->
          a.runs <- a.runs + st.runs;
          a.fired <- a.fired + st.fired;
          a.pwork <- a.pwork + st.pwork;
          a.time_s <- a.time_s +. st.time_s
      | None -> ())
    table

let classic_time acc = List.fold_left (fun s n -> s +. (List.assoc n acc).time_s) 0.0 classic

(* One compile: source text -> optimized IR, the call the end-to-end
   figures time.  The spans cost nothing unless tracing is on. *)
type compiled = { prog : Ir.Program.t; rep : Dbds.Driver.report; cpu_s : float; frontend_s : float }

let compile ?(jobs = 1) (p : Gen.program) =
  let id = p.uid in
  Trace.with_span ~id "compile" (fun () ->
      let t0 = cpu () in
      let prog = Trace.with_span ~id "lang.frontend" (fun () -> Lang.Frontend.compile p.src) in
      let t1 = cpu () in
      let rep = Trace.with_span ~id "opt.driver" (fun () -> Dbds.Driver.optimize_program_report ~config ~jobs prog) in
      { prog; rep; cpu_s = cpu () -. t0; frontend_s = t1 -. t0 })

(* Sizes and time around inlining, for the quality set only (outside any
   timed compile): live instructions after the frontend, the code-size
   change, and the processor time of [Opt.Inline.inline_program]. *)
let inline_sizes (p : Gen.program) =
  let prog = Lang.Frontend.compile p.src in
  let instrs = live_instrs prog and before = code_size prog in
  let t0 = cpu () in
  Trace.with_span ~id:p.uid "opt.inline" (fun () ->
      ignore (Opt.Inline.inline_program (Opt.Phase.create ~program:prog ()) prog));
  let dt = cpu () -. t0 in
  (instrs, code_size prog - before, dt)

(* The output check: the optimized program against the unoptimized
   frontend output, both on the interpreter.  The reference never passes
   through the optimizer. *)
type observed = Ok_run of Interp.Machine.value option * (string * Interp.Machine.value) list * float | Raised of string

let run prog args =
  match Interp.Machine.run_full prog ~args with
  | v, st, globals -> Ok_run (v, globals, st.Interp.Machine.cycles)
  | exception e -> Raised (Printexc.to_string e)

let check (p : Gen.program) prog =
  let reference = run (Lang.Frontend.compile p.src) p.args in
  match (reference, run prog p.args) with
  | Ok_run (v, g, _), Ok_run (v', g', cycles) when v = v' && g = g' -> Ok cycles
  | Ok_run _, Ok_run _ -> Error (p.uid ^ ": optimized result or globals differ from the reference")
  | Raised e, _ -> Error (p.uid ^ ": reference run raised " ^ e)
  | _, Raised e -> Error (p.uid ^ ": optimized run raised " ^ e)

(* What the first compile of a distinct program contributes to the
   output-quality and count metrics. *)
type first = {
  f_digest : string;
  f_work : int;
  f_cycles : float;
  f_size : int;
  f_fns : int;
  f_passes : (string * Opt.Phase.pass_stat) list;
  f_stats : Dbds.Driver.stats;
  f_ahits : int;
  f_amisses : int;
}

let first_of (c : compiled) ~cycles =
  let ctx = c.rep.rep_ctx in
  {
    f_digest = digest c.prog;
    f_work = ctx.work;
    f_cycles = cycles;
    f_size = code_size c.prog;
    f_fns = nfuns c.prog;
    f_passes = Opt.Phase.pass_table ctx;
    f_stats = Dbds.Driver.total_stats c.rep.rep_stats;
    f_ahits = ctx.analysis_hits;
    f_amisses = ctx.analysis_misses;
  }

type result = {
  windows : (float * int) list list;
      (** processor seconds and functions per compile, window by window,
          in job order *)
  attempted : int;
  failed : int;
  errors : string list;
  minor_words : float;
  major_words : float;
  quality : (Gen.program * first) list;  (** distinct programs of the quality set *)
  passes_all : (string * pass_acc) list;  (** instrumentation over every compile *)
  frontend : float list;
  src_bytes : int;
  checks : float list;  (** seconds per output check *)
  prints : float list;  (** seconds to print each program's optimized IR *)
}

let samples r = List.concat r.windows

(* The compile jobs of a workload, run window by window: [run n] compiles
   the next [n] jobs as one window, [finish ()] completes the quality set
   if the windows have not and returns the result.  Checks and digests
   happen between compiles, outside the timed span. *)
let phase w ~seed =
  let next = Gen.job_stream w ~seed in
  let digests : (string, string) Hashtbl.t = Hashtbl.create 256 in
  let quality = ref [] and windows = ref [] in
  let attempted = ref 0 and failed = ref 0 and errors = ref [] in
  let passes_all = pass_acc () and minor = ref 0.0 and major = ref 0.0 in
  let frontend = ref [] and src_bytes = ref 0 and checks = ref [] and prints = ref [] in
  let fail msg =
    incr failed;
    if List.length !errors < 8 then errors := msg :: !errors
  in
  let job () =
    let p = next () in
    let in_quality = !attempted < w.Gen.quality_jobs in
    incr attempted;
    let c = compile p in
    add_passes passes_all (Opt.Phase.pass_table c.rep.rep_ctx);
    frontend := c.frontend_s :: !frontend;
    src_bytes := !src_bytes + String.length p.src;
    if !Trace.enabled then begin
      let t0 = cpu () in
      Trace.with_span ~id:p.uid "ir.print" (fun () ->
          Ir.Program.iter_functions c.prog (fun g -> ignore (Ir.Printer.graph_to_string g)));
      prints := (cpu () -. t0) :: !prints
    end;
    if c.rep.rep_failures <> [] then fail (p.uid ^ ": contained pipeline failure");
    let d = Trace.with_span ~id:p.uid "digest" (fun () -> digest c.prog) in
    (match Hashtbl.find_opt digests p.uid with
    | Some d' -> if d <> d' then fail (p.uid ^ ": optimized IR differs between compiles")
    | None ->
        let t0 = cpu () in
        let verdict = Trace.with_span ~id:p.uid "interp.check" (fun () -> check p c.prog) in
        checks := (cpu () -. t0) :: !checks;
        let cycles = match verdict with Ok cy -> cy | Error msg -> fail msg; nan in
        Hashtbl.replace digests p.uid d;
        if in_quality then quality := (p, first_of c ~cycles) :: !quality);
    (c.cpu_s, nfuns c.prog)
  in
  let run k =
    let gc0 = Gc.quick_stat () in
    let win = List.init k (fun _ -> job ()) in
    let gc1 = Gc.quick_stat () in
    minor := !minor +. (gc1.minor_words -. gc0.minor_words);
    major := !major +. (gc1.major_words -. gc0.major_words);
    windows := win :: !windows
  in
  let finish () =
    if !attempted < w.Gen.quality_jobs then run (w.Gen.quality_jobs - !attempted);
    {
      windows = List.rev !windows;
      attempted = !attempted;
      failed = !failed;
      errors = List.rev !errors;
      minor_words = !minor;
      major_words = !major;
      quality = List.rev !quality;
      passes_all;
      frontend = !frontend;
      src_bytes = !src_bytes;
      checks = !checks;
      prints = !prints;
    }
  in
  (run, finish)

(* ---- quality-set aggregates ------------------------------------------- *)

let firsts r = List.map snd r.quality

let quality_passes fs =
  let acc = pass_acc () in
  List.iter (fun f -> add_passes acc f.f_passes) fs;
  acc

let quality_stats fs =
  let t = Dbds.Driver.fresh_stats () in
  List.iter
    (fun f ->
      t.candidates_found <- t.candidates_found + f.f_stats.candidates_found;
      t.duplications_performed <- t.duplications_performed + f.f_stats.duplications_performed;
      t.iterations_run <- t.iterations_run + f.f_stats.iterations_run)
    fs;
  t

let peak_cycles fs = Stats.geomean (List.map (fun f -> f.f_cycles) fs)
let size_geomean fs = Stats.geomean (List.map (fun f -> float_of_int f.f_size) fs)

let work_per_fn fs =
  let w = List.fold_left (fun s f -> s + f.f_work) 0 fs and n = List.fold_left (fun s f -> s + f.f_fns) 0 fs in
  float_of_int w /. float_of_int (max 1 n)

(* Every count metric of the quality set: each must come out exactly the
   same whenever the same programs are compiled again. *)
let counts fs =
  let passes = quality_passes fs and st = quality_stats fs in
  [
    ("peak_cycles_geomean", peak_cycles fs);
    ("code_size_geomean", size_geomean fs);
    ("compile_work_per_fn", work_per_fn fs);
    ("core.candidates", float_of_int st.candidates_found);
    ("core.duplications", float_of_int st.duplications_performed);
    ("core.iterations", float_of_int st.iterations_run);
  ]
  @ List.concat_map
      (fun name ->
        let q = List.assoc name passes in
        [
          ("opt." ^ name ^ ".runs", float_of_int q.runs);
          ("opt." ^ name ^ ".fired", float_of_int q.fired);
          ("opt." ^ name ^ ".work", float_of_int q.pwork);
        ])
      classic

(* The determinism guard: the quality set compiled and run a second time,
   on two domains (the driver promises the same output for any [jobs]).
   Every program's digest and every count metric must repeat exactly;
   returns what did not. *)
let recheck r =
  let again =
    List.map
      (fun ((p : Gen.program), f) ->
        let c = compile ~jobs:2 p in
        let cycles = match run c.prog p.args with Ok_run (_, _, cy) -> cy | Raised _ -> nan in
        let f' = first_of c ~cycles in
        ((if f'.f_digest = f.f_digest then None else Some (p.uid ^ ": optimized IR differs on a second compile")), f'))
      r.quality
  in
  List.filter_map fst again
  @ List.filter_map
      (fun ((name, a), (_, b)) ->
        if Float.equal a b then None
        else Some (Printf.sprintf "count metric %s is %.17g, but %.17g on a second compile" name a b))
      (List.combine (counts (firsts r)) (counts (List.map snd again)))
