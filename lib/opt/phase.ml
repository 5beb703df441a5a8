(** Pass framework: every optimization is a function [ctx -> Graph.t ->
    bool] (did it change anything?), packaged as a {!t} record carrying
    its name and its {e preservation contract} — the {!Ir.Analyses}
    kinds whose cached values remain valid across the pass's own
    mutations.  The context carries program metadata (class layouts for
    scalar replacement), a deterministic work-unit counter — the
    compile-time proxy used by the evaluation harness alongside
    wall-clock measurements — and the per-pass instrumentation the pass
    manager maintains uniformly ({!run_pass}). *)

(** Per-pass instrumentation, accumulated by {!run_pass} and merged
    deterministically across parallel workers.  All fields except
    [time_s] and [minor_words] are deterministic for any [jobs] value. *)
type pass_stat = {
  mutable runs : int;  (** invocations *)
  mutable fired : int;  (** invocations that changed the graph *)
  mutable pwork : int;  (** work units charged while the pass ran *)
  mutable time_s : float;  (** wall-clock seconds inside the pass *)
  mutable idle_s : float;
      (** the part of [time_s] inside runs that fired nothing *)
  mutable minor_words : int;  (** words allocated on the minor heap *)
  mutable size_delta : int;
      (** summed live-instruction delta (negative = the pass shrank IR) *)
}

let fresh_pass_stat () =
  {
    runs = 0;
    fired = 0;
    pwork = 0;
    time_s = 0.0;
    idle_s = 0.0;
    minor_words = 0;
    size_delta = 0;
  }

type ctx = {
  program : Ir.Program.t option;
      (** metadata for inter-procedural facts; [None] for lone graphs *)
  mutable work : int;  (** deterministic compile-effort counter *)
  mutable analysis_hits : int;
      (** {!Ir.Analyses} cache hits observed under this context *)
  mutable analysis_misses : int;  (** ... and misses (= real computes) *)
  mutable contained : (string * int) list;
      (** contained per-function failures, per crash site (sorted) *)
  mutable pass_stats : (string * pass_stat) list;
      (** per-pass instrumentation, sorted by pass name *)
  mutable fix_capped : int;
      (** [fix(...)] groups that stopped at their [rounds] cap with the
          last round still firing, rather than at quiescence *)
  mutable memo_clean_passes : bool;
      (** run a pass only over what changed since it last ran clean (on
          by default): skip it when nothing did, run its region form
          otherwise; the driver turns it off in diagnostic runs (fault
          injection / paranoia) where every pass must run on the whole
          graph *)
  mutable paranoid : bool;
      (** paranoid mode: {!check} after every fired pass and every
          duplication *)
  mutable region_audit :
    (string -> (ctx -> Ir.Graph.t -> bool) -> Ir.Graph.t -> unit) option;
      (** lint hook: called whenever a pass is stamped clean after a
          region run or after a run that changed the graph, with the
          pass name and its whole-graph run, on the stamped state *)
}

let create ?program () =
  {
    program;
    work = 0;
    analysis_hits = 0;
    analysis_misses = 0;
    contained = [];
    pass_stats = [];
    fix_capped = 0;
    memo_clean_passes = true;
    paranoid = false;
    region_audit = None;
  }

(** Charge [n] work units (roughly: IR nodes examined). *)
let charge ctx n = ctx.work <- ctx.work + n

let charge_graph ctx g = charge ctx (Ir.Graph.live_instr_count g)

let note_analyses ctx ~hits ~misses =
  ctx.analysis_hits <- ctx.analysis_hits + hits;
  ctx.analysis_misses <- ctx.analysis_misses + misses

(* Sorted-assoc sum: commutative and order-insensitive, so the parallel
   merge stays deterministic. *)
let add_contained counts site n =
  let rec go = function
    | [] -> [ (site, n) ]
    | (s, c) :: rest when s = site -> (s, c + n) :: rest
    | (s, c) :: rest when s < site -> (s, c) :: go rest
    | rest -> (site, n) :: rest
  in
  go counts

(** Record one contained per-function failure at [site]. *)
let note_contained ctx ~site =
  ctx.contained <- add_contained ctx.contained site 1

(** Total contained failures across all sites. *)
let contained_total ctx =
  List.fold_left (fun acc (_, n) -> acc + n) 0 ctx.contained

(* The sorted-assoc discipline again, for pass stats: the slot for a
   pass name, inserted in name order on first use.  Finding a slot
   allocates nothing. *)
let pass_stat ctx name =
  let rec find = function
    | (n, s) :: _ when String.equal n name -> s
    | _ :: rest -> find rest
    | [] ->
        let s = fresh_pass_stat () in
        ctx.pass_stats <-
          List.merge
            (fun (a, _) (b, _) -> String.compare a b)
            [ (name, s) ] ctx.pass_stats;
        s
  in
  find ctx.pass_stats

(** The per-pass instrumentation table, sorted by pass name. *)
let pass_table ctx = ctx.pass_stats

(** Fold a worker context's counters into [into] (the parallel driver's
    deterministic merge: per-function contexts are merged in function
    name order, independent of which worker ran which function). *)
let merge_into ~into src =
  into.work <- into.work + src.work;
  into.analysis_hits <- into.analysis_hits + src.analysis_hits;
  into.analysis_misses <- into.analysis_misses + src.analysis_misses;
  into.fix_capped <- into.fix_capped + src.fix_capped;
  into.contained <-
    List.fold_left
      (fun acc (site, n) -> add_contained acc site n)
      into.contained src.contained;
  List.iter
    (fun (name, s) ->
      let d = pass_stat into name in
      d.runs <- d.runs + s.runs;
      d.fired <- d.fired + s.fired;
      d.pwork <- d.pwork + s.pwork;
      d.time_s <- d.time_s +. s.time_s;
      d.idle_s <- d.idle_s +. s.idle_s;
      d.minor_words <- d.minor_words + s.minor_words;
      d.size_delta <- d.size_delta + s.size_delta)
    src.pass_stats

(** Run [f] as one run of [name]'s row: count the run (and whether its
    result [fired]), the work it charged, its wall time (and, when it
    fired nothing, its idle time), the words it allocated and the
    change in [size ()]. *)
let instrument ctx name ~size ~fired f =
  let stat = pass_stat ctx name in
  let work0 = ctx.work in
  let size0 = size () in
  let words0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let t1 = Unix.gettimeofday () in
  stat.minor_words <-
    stat.minor_words + int_of_float (Gc.minor_words () -. words0);
  stat.runs <- stat.runs + 1;
  if fired r then stat.fired <- stat.fired + 1
  else stat.idle_s <- stat.idle_s +. (t1 -. t0);
  stat.pwork <- stat.pwork + (ctx.work - work0);
  stat.time_s <- stat.time_s +. (t1 -. t0);
  stat.size_delta <- stat.size_delta + (size () - size0);
  r

type t = {
  pass_name : string;
  preserves : Ir.Analyses.kind list;
      (** analyses whose cached values stay valid across this pass's own
          mutations; an empty list = the pass may change the CFG and
          preserves nothing *)
  region : (ctx -> Ir.Graph.t -> Ir.Analyses.clean -> bool) option;
      (** the pass run over what the graph's mutation log recorded since
          the pass's clean stamp; it must fire exactly as [run] would on
          the same state.  [None]: the pass always runs on the whole
          graph once anything changed. *)
  settles : bool;
      (** a run leaves no work for an immediate re-run of itself (it
          iterates to its own fixpoint), so a run that fired is stamped
          clean at its end too *)
  run : ctx -> Ir.Graph.t -> bool;
}

let make ?(preserves = []) ?region ?(settles = false) pass_name run =
  { pass_name; preserves; region; settles; run }

(** Paranoid mode: the IR verifier found a broken invariant right after
    the named phase ran. *)
exception Phase_invalid of { phase : string; reason : string }

(** A pass lied about its preservation contract: after [pass] ran, the
    cached [analysis] it declared preserved differs from a fresh
    recompute.  Raised only by {!check} (paranoid mode); contained and
    attributed to the guilty pass by the driver. *)
exception
  Contract_violated of { pass : string; analysis : string; reason : string }

let () =
  Printexc.register_printer (function
    | Phase_invalid { phase; reason } ->
        Some
          (Printf.sprintf "Opt.Phase.Phase_invalid(after %s: %s)" phase
             reason)
    | Contract_violated { pass; analysis; reason } ->
        Some
          (Printf.sprintf "Opt.Phase.Contract_violated(%s claims %s: %s)" pass
             analysis reason)
    | _ -> None)

(** Paranoid mode's one check, a no-op unless [ctx.paranoid]: every
    analysis in [preserves] (a fired pass's contract) must equal a fresh
    recompute, then the IR verifier must accept the graph. *)
let check ctx ?(preserves = []) phase g =
  if ctx.paranoid then begin
    List.iter
      (fun k ->
        match Ir.Analyses.check g k with
        | Ok () -> ()
        | Error reason ->
            raise
              (Contract_violated
                 {
                   pass = phase;
                   analysis = Ir.Analyses.kind_to_string k;
                   reason;
                 }))
      preserves;
    match Ir.Verifier.verify_result g with
    | Ok () -> ()
    | Error reason -> raise (Phase_invalid { phase; reason })
  end

(** Run one pass with the manager's uniform instrumentation: per-pass
    stats (runs / fired / work / wall time / IR size delta), application
    of the preservation contract to the analysis cache, and the paranoid
    {!check} after a run that fired.  Every pass execution in the
    system — fixpoint groups, DBDS tiers, standalone passes — goes
    through here. *)
let run_pass_now ctx (p : t) ~region run g =
  let gen0 = Ir.Graph.generation g in
  let fired =
    instrument ctx p.pass_name
      ~size:(fun () -> Ir.Graph.live_instr_count g)
      ~fired:Fun.id
      (fun () -> run ctx g)
  in
  let mutated = Ir.Graph.generation g <> gen0 in
  if fired then begin
    if p.preserves <> [] then
      Ir.Analyses.preserve g ~since:gen0 p.preserves;
    check ctx ~preserves:p.preserves p.pass_name g
  end;
  (* A pass that ran clean on this exact state will run clean again
     until something mutates the graph, and then can only find work
     where the log says the graph changed.  (The generation check
     matters — a pass may mutate yet report no semantic change, e.g.
     hash-consing a constant nobody ended up using.)  A settling pass
     is clean after any run. *)
  if p.settles || ((not fired) && not mutated) then begin
    Ir.Analyses.note_pass_clean g p.pass_name;
    (* The stamp is a claim when the run saw less than the whole graph
       or changed it: the lint checks it against a whole-graph run. *)
    match ctx.region_audit with
    | Some audit when region || fired || mutated -> audit p.pass_name p.run g
    | _ -> ()
  end;
  fired

(* With the memo on, a pass that ran clean before runs on the region
   logged since: not at all when nothing was logged, through its region
   form when it has one.  Without a stamp, or with the memo off, it runs
   on the whole graph. *)
let run_pass ctx (p : t) g =
  let stamp =
    if ctx.memo_clean_passes then Ir.Analyses.clean_stamp g p.pass_name
    else None
  in
  match (stamp, p.region) with
  | Some c, _ when c.Ir.Analyses.at = Ir.Graph.log_length g -> false
  | Some c, Some region ->
      run_pass_now ctx p ~region:true (fun ctx g -> region ctx g c) g
  | _ -> run_pass_now ctx p ~region:false p.run g
