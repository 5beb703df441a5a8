(** The background compilation queue.

    Promotion requests accumulate here; {!drain} fans the batch out over
    {!Ir.Parallel} domains (the same deterministic fork/join substrate
    as the AOT driver), compiling each function through the full
    [Opt.Manager] pipeline with its profile-derived branch probabilities
    already applied.  Results come back in function-name order, so the
    install sequence — and therefore every cache version number — is
    identical for any [jobs] value.

    Containment is forced on for background compiles: a crashing
    pipeline must never take the VM down, it only costs the request
    (the function stays in tier 0, the attempt is counted against the
    policy's [max_compiles]).  Crash bundles are written sequentially
    {i after} the parallel join, from the main domain, and record the
    profile snapshot the compilation was driven by. *)

type request = {
  rq_fn : string;
  rq_body : Ir.Graph.t;
      (** private copy, profile probabilities already applied *)
  rq_profile : string;  (** rendered snapshot ({!Interp.Profile.render}) *)
  rq_samples : int;
  rq_recompile : bool;  (** drift-triggered re-enqueue *)
}

type outcome = {
  oc_request : request;
  oc_result : (Ir.Graph.t * int, Dbds.Driver.failure) result;
      (** [Ok (optimized_body, work_units)] or the contained failure *)
}

type t = {
  base : Ir.Program.t;  (** whole program: call context for inlining-free
                            per-function pipelines *)
  compile : Dbds.Config.t;
  jobs : int;
  mutable pending : request list;  (** newest first *)
  mutable peak_depth : int;
}

let create ~compile ~jobs base = { base; compile; jobs; pending = []; peak_depth = 0 }

let depth t = List.length t.pending
let peak_depth t = t.peak_depth

let enqueue t rq =
  t.pending <- rq :: t.pending;
  t.peak_depth <- max t.peak_depth (depth t)

(* A single-function program sharing the base program's class table and
   globals — reads only, so sharing across domains is safe. *)
let program_of t (rq : request) =
  let functions = Hashtbl.create 1 in
  Hashtbl.replace functions rq.rq_fn rq.rq_body;
  {
    Ir.Program.classes = t.base.Ir.Program.classes;
    globals = t.base.Ir.Program.globals;
    functions;
    main = rq.rq_fn;
  }

let compile_one t (rq : request) =
  (* Bundles are written by the caller after the join (sequentially);
     workers must not touch the filesystem. *)
  let config =
    { t.compile with Dbds.Config.containment = true; bundle_dir = None }
  in
  let program = program_of t rq in
  let report =
    Dbds.Driver.optimize_program_report ~config ~inline:false ~jobs:1 program
  in
  match report.Dbds.Driver.rep_failures with
  | f :: _ -> { oc_request = rq; oc_result = Error f }
  | [] ->
      let body =
        match Ir.Program.find_function program rq.rq_fn with
        | Some g -> g
        | None -> rq.rq_body
      in
      {
        oc_request = rq;
        oc_result = Ok (body, report.Dbds.Driver.rep_ctx.Opt.Phase.work);
      }

(** Compile every pending request, in function-name order, over [jobs]
    domains.  Bundles for contained failures are written here (main
    domain) when the compile config asks for them; the returned failures
    carry the bundle path. *)
let drain t =
  let batch =
    List.sort (fun a b -> compare a.rq_fn b.rq_fn) (List.rev t.pending)
  in
  t.pending <- [];
  if batch = [] then []
  else begin
    let outcomes = Ir.Parallel.map ~jobs:t.jobs (compile_one t) batch in
    match t.compile.Dbds.Config.bundle_dir with
    | None -> outcomes
    | Some dir ->
        List.map
          (fun oc ->
            match oc.oc_result with
            | Ok _ -> oc
            | Error f ->
                let bundle =
                  {
                    Dbds.Bundle.b_fn = f.Dbds.Driver.fail_fn;
                    b_site = f.Dbds.Driver.fail_site;
                    b_exn = f.Dbds.Driver.fail_exn;
                    b_plan = t.compile.Dbds.Config.fault_plan;
                    b_config = t.compile;
                    b_profile = Some oc.oc_request.rq_profile;
                    b_ir = f.Dbds.Driver.fail_pre_ir;
                  }
                in
                let path = Dbds.Bundle.write ~dir bundle in
                {
                  oc with
                  oc_result =
                    Error { f with Dbds.Driver.fail_bundle = Some path };
                })
          outcomes
  end
