(** In-process compilation broker — see the interface for the
    coalescing / backpressure / deadline semantics. *)

type outcome =
  | Done of { ir : string; work : int; from_cache : bool }
  | Failed of string
  | Timed_out
  | Shed
  | Rejected of string

let outcome_label = function
  | Done { from_cache = true; _ } -> "done(cache)"
  | Done _ -> "done"
  | Failed _ -> "failed"
  | Timed_out -> "timed-out"
  | Shed -> "shed"
  | Rejected _ -> "rejected"

type stats = {
  mutable requests : int;
  mutable compiles : int;
  mutable cache_hits : int;
  mutable coalesced : int;
  mutable shed : int;
  mutable timeouts : int;
  mutable failures : int;
}

let fresh_stats () =
  {
    requests = 0;
    compiles = 0;
    cache_hits = 0;
    coalesced = 0;
    shed = 0;
    timeouts = 0;
    failures = 0;
  }

type job = {
  jb_digest : string;
  jb_fn : string;
  jb_ir : string;  (** the submitted IR text *)
  jb_context : string;  (** the submitted program context *)
  jb_program : Ir.Program.t option;
      (** [jb_ir] parsed into a program with [jb_context]'s facts,
          handed over by the digest computation; [None] when the digest
          came from the memo and the compile parses *)
  jb_config : Dbds.Config.t;
  jb_delay_s : float;  (** artificial compile stretch (test hook) *)
  mutable jb_deadline : float;
      (** absolute; the latest deadline any interested request carries
          ([infinity] = some requester has none) *)
  mutable jb_outcome : outcome option;
}

(* Entries the request-digest memo holds before it forgets its oldest
   (see the interface). *)
let digest_memo_limit = 1024

type t = {
  env : Env.t;
  bstore : Store.t option;
  delay_s : float;
  queue_limit : int;
  mutex : Env.mutex;
  work_ready : Env.cond;  (** workers: the queue may be non-empty *)
  job_done : Env.cond;  (** waiters: some job completed *)
  queue : job Queue.t;
  inflight : (string, job) Hashtbl.t;
  digests : (string * string * string * string, string) Hashtbl.t;
      (** request-digest memo: (fn, config line, context, IR text) ->
          digest *)
  digest_order : (string * string * string * string) Queue.t;
      (** the memo's keys, oldest first *)
  last_line : (Dbds.Config.t * string) Atomic.t;
      (** the last config the memo keyed on, and its line *)
  bstats : stats;
  mutable shutting_down : bool;
  mutable workers : Env.thread list;
}

let store t = t.bstore
let stats t = t.bstats

let locked t f =
  t.mutex.Env.lock ();
  Fun.protect ~finally:(fun () -> t.mutex.Env.unlock ()) f

(* Complete a job: publish the outcome, retire the digest, account it,
   and wake every waiter.  Call under the lock. *)
let complete t job outcome =
  job.jb_outcome <- Some outcome;
  Hashtbl.remove t.inflight job.jb_digest;
  (match outcome with
  | Done { from_cache = true; _ } -> t.bstats.cache_hits <- t.bstats.cache_hits + 1
  | Done _ -> t.bstats.compiles <- t.bstats.compiles + 1
  | Failed _ ->
      t.bstats.compiles <- t.bstats.compiles + 1;
      t.bstats.failures <- t.bstats.failures + 1
  | Timed_out -> t.bstats.timeouts <- t.bstats.timeouts + 1
  | Shed | Rejected _ -> ());
  t.job_done.Env.broadcast ()

(* ---- the compile path (runs without the broker lock) ---------------- *)

let armed config ~fn f = Dbds.Faults.armed config.Dbds.Config.fault_plan ~fn f

(* The store half of the lookup chain, armed with the request's fault
   plan: parsed memo → local disk, parse-validating on first read.
   [memory_only] stops after the memo. *)
let store_lookup t ~memory_only ~config ~fn ~digest =
  match t.bstore with
  | None -> None
  | Some s -> (
      try
        armed config ~fn (fun () ->
            Store.lookup ~memory_only s ~digest)
      with _ -> None)

let store_publish t job ~ir ~work =
  match t.bstore with
  | None -> ()
  | Some s -> (
      try
        armed job.jb_config ~fn:job.jb_fn (fun () ->
            Store.put s ~digest:job.jb_digest ~fn:job.jb_fn ~ir ~work)
      with _ -> ())

exception Bad_context of string

(* A request's IR as a program carrying its context's class layouts
   and globals — what partial escape analysis and read elimination
   read.
   @raise Bad_context on a malformed context (checked first).
   @raise Ir.Parse.Parse_error on malformed IR. *)
let program_of ~context ir =
  match Digest.facts_of_context context with
  | Error msg -> raise (Bad_context msg)
  | Ok (classes, globals) ->
      Ir.Program.of_graph ~classes ~globals (Ir.Parse.parse_graph ir)

(* A queued job is a store miss: the submitter ran the lookup chain
   before queueing it. *)
let compile t job =
  if job.jb_delay_s > 0. then t.env.Env.sleep job.jb_delay_s;
  let parse () =
    match job.jb_program with
    | Some p -> p
    | None -> program_of ~context:job.jb_context job.jb_ir
  in
  match parse () with
  | exception Ir.Parse.Parse_error msg -> Failed ("parse: " ^ msg)
  | exception Bad_context msg -> Failed ("context: " ^ msg)
  | program -> (
      let config =
        { job.jb_config with Dbds.Config.containment = true; bundle_dir = None }
      in
      match
        Dbds.Driver.optimize_program_report ~config ~inline:false ~jobs:1
          program
      with
      | exception exn -> Failed (Printexc.to_string exn)
      | report -> (
          match report.Dbds.Driver.rep_failures with
          | f :: _ ->
              Failed
                (Printf.sprintf "%s: %s" f.Dbds.Driver.fail_site
                   f.Dbds.Driver.fail_exn)
          | [] ->
              let body =
                Option.get
                  (Ir.Program.find_function program program.Ir.Program.main)
              in
              let ir = Digest.canonical_of_graph body in
              let work = report.Dbds.Driver.rep_ctx.Opt.Phase.work in
              store_publish t job ~ir ~work;
              Done { ir; work; from_cache = false }))

(* ---- workers --------------------------------------------------------- *)

let rec worker t =
  t.mutex.Env.lock ();
  while Queue.is_empty t.queue && not t.shutting_down do
    t.work_ready.Env.wait ()
  done;
  if Queue.is_empty t.queue then (
    (* shutting down with nothing queued *)
    t.mutex.Env.unlock ())
  else begin
    let job = Queue.pop t.queue in
    (* Deadlines live on the monotonic clock: a wall-clock (NTP) step
       must neither spuriously expire nor immortalize queued jobs. *)
    if t.env.Env.mono () > job.jb_deadline then begin
      (* Every interested deadline has passed: drop without compiling. *)
      complete t job Timed_out;
      t.mutex.Env.unlock ();
      worker t
    end
    else begin
      t.mutex.Env.unlock ();
      let outcome = try compile t job with exn -> Failed (Printexc.to_string exn) in
      t.mutex.Env.lock ();
      complete t job outcome;
      t.mutex.Env.unlock ();
      worker t
    end
  end

let create ?(env = Env.real) ?(workers = 2) ?(queue_limit = 64) ?(delay_s = 0.)
    ~store () =
  let mutex = env.Env.mutex () in
  let t =
    {
      env;
      bstore = store;
      delay_s;
      queue_limit = max 1 queue_limit;
      mutex;
      work_ready = mutex.Env.new_cond ();
      job_done = mutex.Env.new_cond ();
      queue = Queue.create ();
      inflight = Hashtbl.create 64;
      digests = Hashtbl.create 64;
      last_line =
        Atomic.make
          (Dbds.Config.default, Dbds.Config.to_line Dbds.Config.default);
      digest_order = Queue.create ();
      bstats = fresh_stats ();
      shutting_down = false;
      workers = [];
    }
  in
  t.workers <-
    List.init (max 1 workers) (fun i ->
        env.Env.spawn_compute (Printf.sprintf "broker-worker-%d" i) (fun () ->
            worker t));
  t

(* ---- submission ------------------------------------------------------ *)

(* The request's content digest, memoized on the exact request text:
   a repeat request costs one table lookup instead of an IR parse and a
   canonical hash.  The digest is a pure function of the key, so an
   entry can never go stale; the table only forgets (oldest first) to
   stay bounded.  The digest itself is computed outside the lock.  A
   memo miss parses the text to hash it and returns that program too,
   so a cold compile never parses the same text twice; with
   [memory_only] it returns [None] instead.  The context is hashed in
   canonical order, so equal facts share one digest.
   @raise Bad_context on a malformed context and
   @raise Ir.Parse.Parse_error on malformed IR (neither memoized). *)
let digest_of t ~memory_only ~config ~fn ~context ir =
  (* Rendering the line costs more than the rest of a warm request;
     the front door hands every request with the same line the same
     config ({!Protocol.compile_config}), so the last one is kept. *)
  let line =
    match Atomic.get t.last_line with
    | c, line when c == config -> line
    | _ ->
        let line = Dbds.Config.to_line config in
        Atomic.set t.last_line (config, line);
        line
  in
  let key = (fn, line, context, ir) in
  match locked t (fun () -> Hashtbl.find_opt t.digests key) with
  | Some digest -> Some (digest, None)
  | None when memory_only -> None
  | None ->
      let p = program_of ~context ir in
      let digest =
        Digest.of_request
          (Digest.request_of_graph ~fn ~config
             ~context:(Digest.context_of_program p)
             (Option.get (Ir.Program.find_function p p.Ir.Program.main)))
      in
      locked t (fun () ->
          if not (Hashtbl.mem t.digests key) then begin
            if Hashtbl.length t.digests >= digest_memo_limit then
              Hashtbl.remove t.digests (Queue.pop t.digest_order);
            Hashtbl.add t.digests key digest;
            Queue.push key t.digest_order
          end);
      Some (digest, Some p)

let rec await t job =
  match job.jb_outcome with
  | Some o -> o
  | None ->
      t.job_done.Env.wait ();
      await t job

(* The refusals every submission checks before any lookup; a refused
   request is counted here. *)
let refusal t ~deadline =
  locked t (fun () ->
      if t.shutting_down then begin
        t.bstats.requests <- t.bstats.requests + 1;
        Some (Rejected "broker is shutting down")
      end
      else if deadline <= t.env.Env.mono () then begin
        t.bstats.requests <- t.bstats.requests + 1;
        t.bstats.timeouts <- t.bstats.timeouts + 1;
        Some Timed_out
      end
      else None)

(* Queue a job whose store lookup missed, or refuse it; whoever
   coalesced onto it meanwhile shares the refusal.  Call under the
   lock. *)
let enqueue t job =
  if t.shutting_down then begin
    complete t job (Rejected "broker is shutting down");
    Rejected "broker is shutting down"
  end
  else if Queue.length t.queue >= t.queue_limit then begin
    t.bstats.shed <- t.bstats.shed + 1;
    complete t job Shed;
    Shed
  end
  else begin
    Queue.push job t.queue;
    t.work_ready.Env.broadcast ();
    await t job
  end

(* The one request path: digest → refusals → store memo → (coalesce or
   register a job) → store disk → queue for a compile worker.
   Everything before the queue runs on the calling thread.
   [memory_only] is the chain's prefix up to the store memo: it answers
   only what is already in memory (the digest memo and the store's
   parsed memo) and returns [None] — having counted nothing — where the
   full chain would go on to parse, read disk, fetch, coalesce or
   compile. *)
let chain ~memory_only ?deadline_s ?delay_s ?(context = "") ~config ~fn ~ir t
    =
  let counted f =
    locked t (fun () ->
        t.bstats.requests <- t.bstats.requests + 1;
        f ())
  in
  let hit (e : Store.entry) =
    Done { ir = e.ar_ir; work = e.ar_work; from_cache = true }
  in
  match digest_of t ~memory_only ~config ~fn ~context ir with
  | exception Ir.Parse.Parse_error msg ->
      Some (counted (fun () -> Rejected ("parse: " ^ msg)))
  | exception Bad_context msg ->
      Some (counted (fun () -> Rejected ("context: " ^ msg)))
  | None -> None
  | Some (digest, program) -> (
      let deadline =
        match deadline_s with
        | None -> infinity
        | Some d -> t.env.Env.mono () +. d
      in
      match refusal t ~deadline with
      | Some _ as refused -> refused
      | None -> (
          match store_lookup t ~memory_only:true ~config ~fn ~digest with
          | Some e ->
              Some
                (counted (fun () ->
                     t.bstats.cache_hits <- t.bstats.cache_hits + 1;
                     hit e))
          | None when memory_only -> None
          | None -> (
              let joined =
                counted (fun () ->
                    match Hashtbl.find_opt t.inflight digest with
                    | Some job ->
                        t.bstats.coalesced <- t.bstats.coalesced + 1;
                        job.jb_deadline <- Float.max job.jb_deadline deadline;
                        `Coalesced job
                    | None ->
                        let job =
                          {
                            jb_digest = digest;
                            jb_fn = fn;
                            (* The submitted text and its parse, not a
                               canonical rendering: the compile
                               optimizes that parse and canonicalizes
                               its output independently, so coalesced
                               requests that differ only in id numbering
                               still share one byte-identical result. *)
                            jb_ir = ir;
                            jb_context = context;
                            jb_program = program;
                            jb_config = config;
                            jb_delay_s =
                              Option.value delay_s ~default:t.delay_s;
                            jb_deadline = deadline;
                            jb_outcome = None;
                          }
                        in
                        (* Registered before the disk read, so identical
                           requests coalesce onto it instead of reading
                           the disk again. *)
                        Hashtbl.replace t.inflight digest job;
                        `Registered job)
              in
              match joined with
              | `Coalesced job -> Some (locked t (fun () -> await t job))
              | `Registered job -> (
                  match
                    store_lookup t ~memory_only:false ~config ~fn ~digest
                  with
                  | Some e ->
                      let o = hit e in
                      locked t (fun () -> complete t job o);
                      Some o
                  | None -> Some (locked t (fun () -> enqueue t job))))))

let submit ?deadline_s ?delay_s ?context ~config ~fn ~ir t =
  Option.get
    (chain ~memory_only:false ?deadline_s ?delay_s ?context ~config ~fn ~ir t)

let submit_in_memory ?deadline_s ?context ~config ~fn ~ir t =
  chain ~memory_only:true ?deadline_s ?context ~config ~fn ~ir t

let shutdown t =
  let workers =
    locked t (fun () ->
        if t.shutting_down then []
        else begin
          t.shutting_down <- true;
          (* Fail everything still queued so its waiters return; jobs
             already compiling finish normally. *)
          Queue.iter
            (fun job -> complete t job (Rejected "broker is shutting down"))
            t.queue;
          Queue.clear t.queue;
          t.work_ready.Env.broadcast ();
          let ws = t.workers in
          t.workers <- [];
          ws
        end)
  in
  List.iter (fun (w : Env.thread) -> w.Env.join ()) workers

let pp_stats ppf s =
  Format.fprintf ppf
    "broker: requests=%d compiles=%d cache_hits=%d coalesced=%d shed=%d \
     timeouts=%d failures=%d"
    s.requests s.compiles s.cache_hits s.coalesced s.shed s.timeouts s.failures
