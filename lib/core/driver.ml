(** The DBDS driver: the iterative simulate → trade-off → optimize
    pipeline (paper §5.2), plus the two comparator strategies of the
    evaluation — dupalot (trade-off disabled) and backtracking
    (Algorithm 1 of §3.1).

    The driver is applied per compilation unit (function graph).  After
    each batch of duplications the round's action-step group runs
    ({!Opt.Pipeline.action_steps}): the classic phases to a fixpoint,
    without SCCP.  Paper §5 runs only the optimizations whose
    applicability checks the simulation ran — canonicalize, conditional
    elimination, GVN, read elimination and PEA, plus the CFG and dead
    code clean-up they leave — and SCCP is not priced.  Up to [iters]
    rounds are performed (a tier's spec option, 3 by default); a new
    round only starts if the previous round's accepted benefit exceeds
    the tier's [threshold] or a candidate it accepted went stale before
    its duplication. *)

module G = Ir.Graph

type stats = {
  mutable candidates_found : int;
  mutable duplications_performed : int;
  mutable iterations_run : int;
  mutable benefit_accepted : float;
  mutable backtrack_attempts : int;
  mutable backtrack_kept : int;
}

let fresh_stats () =
  {
    candidates_found = 0;
    duplications_performed = 0;
    iterations_run = 0;
    benefit_accepted = 0.0;
    backtrack_attempts = 0;
    backtrack_kept = 0;
  }

let pp_stats ppf s =
  Fmt.pf ppf
    "candidates=%d duplicated=%d iterations=%d benefit=%.1f backtrack=%d/%d"
    s.candidates_found s.duplications_performed s.iterations_run
    s.benefit_accepted s.backtrack_kept s.backtrack_attempts

(* One simulate → trade-off → optimize round over candidates of up to
   [paths] merges, accepting those [accept] takes against the round's
   budget.  Each tier runs as a row of the per-pass table named after
   the pass ([tier]): [<tier>.simulate], [<tier>.tradeoff] (budget and
   ranking) and [<tier>.duplicate] (one run per accepted candidate,
   fired when it was duplicated, §8 path steps included); the action
   steps keep their classic rows.  Returns the cumulative accepted
   benefit and the number of accepted candidates that had gone stale
   (an earlier duplication in the round moved their edge). *)
let run_round ~tier ~accept ~paths config ctx stats g =
  let row layer =
    let name = tier ^ "." ^ layer in
    fun ~fired f ->
      Opt.Phase.instrument ctx name
        ~size:(fun () -> G.live_instr_count g)
        ~fired f
  in
  let simulate_row = row "simulate" and tradeoff_row = row "tradeoff" in
  let duplicate_row = row "duplicate" in
  let never _ = false in
  let candidates =
    simulate_row ~fired:never (fun () ->
        Simulation.simulate ~paths ctx config g)
  in
  stats.candidates_found <- stats.candidates_found + List.length candidates;
  (* Every duplication of the round answers its loop-header check from
     the tree the simulation walked, unless an earlier one touched the
     blocks in question. *)
  let phase = tier ^ ".duplicate" in
  let round = Transform.round ~phase g in
  let duplicate ~merge ~pred = Transform.duplicate ~ctx ~round g ~merge ~pred in
  let budget, ranked =
    tradeoff_row ~fired:never (fun () ->
        (Tradeoff.budget_for g, Tradeoff.rank candidates))
  in
  let round_benefit = ref 0.0 in
  let stale = ref 0 in
  List.iter
    (fun c ->
      if accept budget c then
        let duplicated =
          duplicate_row ~fired:Fun.id (fun () ->
              match
                duplicate ~merge:c.Candidate.merge ~pred:c.Candidate.pred
              with
              | bm' ->
                  stats.duplications_performed <-
                    stats.duplications_performed + 1;
                  (* §8 path extension: continue the duplication along
                     the simulated merge chain — each previous duplicate
                     becomes the predecessor of the next merge.  A step
                     that went stale just truncates the path (each step
                     is independently sound). *)
                  let pred = ref bm' in
                  (try
                     List.iter
                       (fun m2 ->
                         let d = duplicate ~merge:m2 ~pred:!pred in
                         stats.duplications_performed <-
                           stats.duplications_performed + 1;
                         pred := d)
                       c.Candidate.path
                   with Transform.Not_applicable _ -> ());
                  true
              | exception Transform.Not_applicable _ -> false)
        in
        if duplicated then begin
          Tradeoff.commit budget c;
          round_benefit := !round_benefit +. Candidate.scaled_benefit c;
          Opt.Phase.check ctx phase g
        end
        else
          (* An earlier duplication in this round invalidated the
             candidate (its edge moved); rediscovered next round. *)
          incr stale)
    ranked;
  (* Action steps: the optimizations the simulation priced, to a
     fixpoint over the transformed graph (the per-candidate
     opportunities all fall out of these).  SCCP is not in the group:
     the simulation never prices it, and the one fold it would add
     here, a phi over equal constants, is a canonicalize rule. *)
  if !round_benefit > 0.0 then
    ignore (Opt.Pipeline.action_steps ctx g);
  stats.benefit_accepted <- stats.benefit_accepted +. !round_benefit;
  (!round_benefit, !stale)

(* Algorithm 1: tentative duplication with backtracking.  For every
   (merge, predecessor) pair: copy the graph, duplicate, run the full
   optimizer, keep the result only if the static performance estimate
   improved.  At most [iters] sweeps over the merges. *)
let run_backtracking ~iters config ctx stats g =
  let progress = ref true in
  let rounds = ref 0 in
  while !progress && !rounds < iters do
    incr rounds;
    progress := false;
    let merges =
      G.fold_blocks g
        (fun acc bid ->
          if
            G.pred_count g bid >= 2
            && not (List.mem bid (G.succs g bid))
          then bid :: acc
          else acc)
        []
    in
    List.iter
      (fun bm ->
        if G.block_exists g bm then
          List.iter
            (fun bp ->
              if
                G.block_exists g bm
                && List.mem bp (G.preds g bm)
                && List.length (G.preds g bm) >= 2
              then begin
                stats.backtrack_attempts <- stats.backtrack_attempts + 1;
                (* An exception mid-attempt (an injected fault, a
                   verifier violation) leaves the graph half-changed;
                   containment restores its own per-function snapshot. *)
                let snap = G.snapshot g in
                Opt.Phase.charge ctx (G.live_instr_count g);
                let before = Costmodel.Estimate.weighted_cycles g in
                let kept =
                  match Transform.duplicate ~ctx g ~merge:bm ~pred:bp with
                  | _ ->
                      Opt.Phase.check ctx "backtracking.duplicate" g;
                      ignore (Opt.Pipeline.optimize ctx g);
                      Costmodel.Estimate.weighted_cycles g < before
                      && Costmodel.Estimate.graph_size g
                         < config.Config.max_unit_size
                  | exception Transform.Not_applicable _ -> false
                in
                if kept then begin
                  stats.backtrack_kept <- stats.backtrack_kept + 1;
                  stats.duplications_performed <-
                    stats.duplications_performed + 1;
                  progress := true
                end
                else G.restore g snap
              end)
            (G.preds g bm))
      merges
  done

(* ------------------------------------------------------------------ *)
(* The pipeline spec and its resolver                                  *)
(* ------------------------------------------------------------------ *)

(* [inline] is a program-level item: the driver runs it once before
   fanning functions out and strips it from the per-function
   pipeline. *)
let is_inline_item = function
  | Opt.Spec.Pass { name = "inline"; _ } -> true
  | _ -> false

let items (spec : Opt.Spec.t) = (spec :> Opt.Spec.value Opt.Spec.item list)
let wants_inline spec = List.exists is_inline_item (items spec)

let per_function_items spec =
  List.filter (fun i -> not (is_inline_item i)) (items spec)

(* Resolve the duplication tiers ([dbds], [dupalot], [backtracking],
   [condelim_dup]) on top of the classic passes, reading their checked
   options.  The tier passes close over the per-function [stats]
   record, so the manager runs them like any other pass — per-pass
   stats, the paranoid check and preservation handling included — while
   the driver keeps its historical reporting. *)
let resolve (config : Config.t) stats : Opt.Manager.resolver =
 fun name opts ->
  let iters () = Opt.Spec.int opts "iters" in
  (* The iterative simulate → trade-off → optimize loop of §5.2, with
     the tier's acceptance predicate: the paper's trade-off for [dbds],
     any beneficial candidate for [dupalot].  Another round only starts
     if this one's accepted benefit cleared the threshold or ranked
     candidates went stale mid-round.  [paths] bounds the merges a
     candidate may span (§8; 1 is no extension). *)
  let iterative_tier should_duplicate =
    let iters = iters () and threshold = Opt.Spec.float opts "threshold" in
    let paths = Opt.Spec.int opts "paths" in
    let accept = should_duplicate config in
    Opt.Phase.make name (fun ctx g ->
        let dup0 = stats.duplications_performed in
        let continue_ = ref true in
        let iter = ref 0 in
        while !continue_ && !iter < iters do
          incr iter;
          stats.iterations_run <- stats.iterations_run + 1;
          let benefit, stale =
            run_round ~tier:name ~accept ~paths config ctx stats g
          in
          if benefit <= threshold && stale = 0 then continue_ := false
        done;
        stats.duplications_performed > dup0)
  in
  match name with
  | "dbds" -> iterative_tier Tradeoff.should_duplicate
  | "dupalot" -> iterative_tier Tradeoff.dupalot_should_duplicate
  | "backtracking" ->
      let iters = iters () in
      Opt.Phase.make name (fun ctx g ->
          let kept0 = stats.backtrack_kept in
          run_backtracking ~iters config ctx stats g;
          stats.backtrack_kept > kept0)
  | "condelim_dup" ->
      let iters = iters () in
      Opt.Phase.make name (fun ctx g ->
          let n = Condelim_dup.run ~iters ctx g in
          stats.duplications_performed <- stats.duplications_performed + n;
          n > 0)
  | _ -> Opt.Pipeline.resolve_classic name opts

(** The action-step group a pass runs after each of its rounds: the
    iterative tiers ([dbds], [dupalot]) run {!Opt.Pipeline.action_steps};
    every other pass embeds none. *)
let round_action_steps = function
  | "dbds" | "dupalot" -> Opt.Pipeline.action_step_names
  | _ -> []

(** Contract table of a spec's per-function passes in pipeline order
    (fix bodies flattened, repeated passes collapsed to their first
    occurrence): [(pass_name, preserves)].  What
    [dbdsc --print-passes] renders under the canonical spec line. *)
let describe_spec (config : Config.t) spec =
  let resolver = resolve config (fresh_stats ()) in
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  let rec walk items =
    List.iter
      (function
        | Opt.Spec.Fix { body; _ } -> walk body
        | Opt.Spec.Pass { name; opts } ->
            let p = resolver name opts in
            if not (Hashtbl.mem seen p.Opt.Phase.pass_name) then begin
              Hashtbl.replace seen p.Opt.Phase.pass_name ();
              out := (p.Opt.Phase.pass_name, p.Opt.Phase.preserves) :: !out
            end)
      items
  in
  walk (per_function_items spec);
  List.rev !out

(** Optimize one graph under the given configuration: execute the
    configured pipeline (minus program-level items) through the pass
    manager.  Returns statistics about the duplication work performed. *)
let optimize_graph ?(config = Config.default) ctx g =
  if config.Config.verify_between_phases then ctx.Opt.Phase.paranoid <- true;
  (* Diagnostic runs want every pass to really execute: fault-injection
     hit counts and paranoid verification both observe pass bodies. *)
  if config.Config.fault_plan <> None || config.Config.verify_between_phases
  then ctx.Opt.Phase.memo_clean_passes <- false;
  let stats = fresh_stats () in
  let analyses_before = Ir.Analyses.stats g in
  ignore
    (Opt.Manager.run (resolve config stats)
       (per_function_items config.Config.passes)
       ctx g);
  (* The compiled graph need not keep its mutation history. *)
  Ir.Analyses.drop_log g;
  let analyses_after = Ir.Analyses.stats g in
  Opt.Phase.note_analyses ctx
    ~hits:(analyses_after.Ir.Analyses.hits - analyses_before.Ir.Analyses.hits)
    ~misses:
      (analyses_after.Ir.Analyses.misses - analyses_before.Ir.Analyses.misses);
  stats

(* ------------------------------------------------------------------ *)
(* Crash containment                                                   *)
(* ------------------------------------------------------------------ *)

(** A per-function failure that was contained: the function's graph was
    rolled back to its pre-attempt state, the rest of the program kept
    optimizing. *)
type failure = {
  fail_fn : string;  (** function whose pipeline crashed *)
  fail_site : string;
      (** crash site: a {!Faults.site} name, ["verify.<phase>"] for a
          paranoid violation, or ["exception"] for anything else *)
  fail_exn : string;  (** rendered exception *)
  fail_backtrace : string;
  fail_work : int;  (** work units charged during the failed attempt *)
  fail_pre_ir : string;
      (** the function's IR when the attempt started — what the graph
          was rolled back to, and what a crash bundle replays *)
  fail_bundle : string option;  (** bundle path, when one was written *)
}

let pp_failure ppf f =
  Fmt.pf ppf "%s: contained crash at %s (%s)" f.fail_fn f.fail_site f.fail_exn

(* Containment must never swallow genuinely unrecoverable conditions. *)
let fatal = function Out_of_memory | Stack_overflow -> true | _ -> false

let site_of_exn = function
  | Faults.Injected { site; _ } -> Faults.site_to_string site
  | Opt.Phase.Phase_invalid { phase; _ } -> "verify." ^ phase
  | Opt.Phase.Contract_violated { pass; _ } -> "preserve." ^ pass
  | Ir.Verifier.Invalid _ -> "verify"
  | _ -> "exception"

(* Optimize one function under containment: arm the fault registry,
   snapshot the graph, and on any exception restore the snapshot and
   return a structured failure instead of propagating.  The restore
   also brings back the pre-attempt generation and analysis cache, in
   every mode. *)
let optimize_one ?bundle_dir (config : Config.t) ctx g =
  let fn = Ir.Graph.name g in
  (* In diagnostic runs (injection / bundles / paranoia) capture the
     pre-attempt IR up front, so rollback fidelity is checkable against
     an independent copy; otherwise print it only after a rollback,
     costing nothing on the fault-free fast path. *)
  let diagnostics =
    config.Config.fault_plan <> None
    || bundle_dir <> None
    || config.Config.verify_between_phases
  in
  let pre_ir =
    if diagnostics then Some (Ir.Printer.graph_to_string g) else None
  in
  let snap = G.snapshot g in
  let work_before = ctx.Opt.Phase.work in
  match
    Faults.armed config.Config.fault_plan ~fn (fun () ->
        Faults.hit Faults.Parallel_worker;
        optimize_graph ~config ctx g)
  with
  | s -> (s, None)
  | exception e when not (fatal e) ->
      let bt = Printexc.get_raw_backtrace () in
      G.restore g snap;
      let pre_ir =
        match pre_ir with Some s -> s | None -> Ir.Printer.graph_to_string g
      in
      let site = site_of_exn e in
      let rendered = Printexc.to_string e in
      let bundle =
        Option.map
          (fun dir ->
            Bundle.write ~dir
              {
                Bundle.b_fn = fn;
                b_site = site;
                b_exn = rendered;
                b_plan = config.Config.fault_plan;
                b_config = config;
                b_ir = pre_ir;
              })
          bundle_dir
      in
      Opt.Phase.note_contained ctx ~site;
      ( fresh_stats (),
        Some
          {
            fail_fn = fn;
            fail_site = site;
            fail_exn = rendered;
            fail_backtrace = Printexc.raw_backtrace_to_string bt;
            fail_work = ctx.Opt.Phase.work - work_before;
            fail_pre_ir = pre_ir;
            fail_bundle = bundle;
          } )

(** The full result of a program run: phase context, per-function
    statistics (zeroed for contained functions) and contained
    failures — all in function-name order, identical for any [jobs]. *)
type report = {
  rep_ctx : Opt.Phase.ctx;
  rep_stats : (string * stats) list;
  rep_failures : failure list;
}

(** Optimize a whole program: inline first (compilation units in the
    evaluation are post-inlining, as in Graal), then fan the configured
    per-function pipeline out over [jobs] domains (default: all cores;
    [~jobs:1] is the sequential behavior).  Each function graph is owned
    by exactly one domain; per-domain phase contexts are merged
    deterministically (in function-name order), so output graphs and
    aggregate statistics are identical for any [jobs].

    No exception escapes: a crashing per-function pipeline is rolled
    back and reported in [rep_failures] (with a crash bundle written to
    [bundle_dir], when given) while the remaining functions still
    optimize. *)
let optimize_program_report ?(config = Config.default) ?bundle_dir
    ?(inline = true) ?jobs program =
  let jobs =
    match jobs with Some j -> max 1 j | None -> Ir.Parallel.default_jobs ()
  in
  let ctx = Opt.Phase.create ~program () in
  let spec = config.Config.passes in
  if inline && wants_inline spec then
    ignore (Opt.Inline.inline_program ctx program);
  (* Resolve the graphs up front (name order) so workers never touch the
     program's function table. *)
  let functions =
    List.filter_map
      (fun name -> Ir.Program.find_function program name)
      (Ir.Program.function_names program)
  in
  let optimize_named wctx g =
    let s, f = optimize_one ?bundle_dir config wctx g in
    (Ir.Graph.name g, s, f)
  in
  let results =
    if jobs = 1 then
      List.map (fun g -> optimize_named ctx g) functions
    else
      List.map
        (fun (name, s, f, wctx) ->
          Opt.Phase.merge_into ~into:ctx wctx;
          (name, s, f))
        (Ir.Parallel.map_weighted ~jobs
           ~weight:G.live_instr_count
           (fun g ->
             let wctx = Opt.Phase.create ~program () in
             let name, s, f = optimize_named wctx g in
             (name, s, f, wctx))
           functions)
  in
  {
    rep_ctx = ctx;
    rep_stats = List.map (fun (name, s, _) -> (name, s)) results;
    rep_failures = List.filter_map (fun (_, _, f) -> f) results;
  }

(* ------------------------------------------------------------------ *)
(* Bundle replay                                                       *)
(* ------------------------------------------------------------------ *)

(** Re-execute a crash bundle: parse its pre-attempt IR, rebuild the
    recorded configuration (fault plan included) and run the
    per-function pipeline under containment.  [`Reproduced f] if the
    attempt was contained again, [`Clean] if it now succeeds. *)
let replay_bundle (b : Bundle.t) =
  let g = Ir.Parse.parse_graph b.Bundle.b_ir in
  let program = Ir.Program.of_graph g in
  let config = { b.Bundle.b_config with Config.fault_plan = b.Bundle.b_plan } in
  (* The bundle holds post-inlining IR: do not inline again. *)
  let r = optimize_program_report ~config ~inline:false program in
  match r.rep_failures with f :: _ -> `Reproduced f | [] -> `Clean

(** Aggregate statistics over a program run. *)
let total_stats per_function =
  let t = fresh_stats () in
  List.iter
    (fun (_, s) ->
      t.candidates_found <- t.candidates_found + s.candidates_found;
      t.duplications_performed <-
        t.duplications_performed + s.duplications_performed;
      t.iterations_run <- max t.iterations_run s.iterations_run;
      t.benefit_accepted <- t.benefit_accepted +. s.benefit_accepted;
      t.backtrack_attempts <- t.backtrack_attempts + s.backtrack_attempts;
      t.backtrack_kept <- t.backtrack_kept + s.backtrack_kept)
    per_function;
  t
