(** The compile service's event-loop front door — see the interface. *)

(* ---- latency histograms ---------------------------------------------- *)

module Hist = struct
  let nbuckets = 32

  type t = { counts : int array; mutable total : int }

  let create () = { counts = Array.make nbuckets 0; total = 0 }

  (* Bucket 0 is [0, 1) ms; bucket i >= 1 is [2^(i-1), 2^i) ms. *)
  let bucket_of_ms ms =
    if Float.is_nan ms || ms < 1.0 then 0
    else
      let rec go i v = if i >= nbuckets - 1 || v < 2.0 then i else go (i + 1) (v /. 2.0) in
      go 1 ms

  let upper_ms i = if i = 0 then 1.0 else Float.of_int (1 lsl min i 30)

  let add t ms =
    let b = bucket_of_ms ms in
    t.counts.(b) <- t.counts.(b) + 1;
    t.total <- t.total + 1

  let count t = t.total

  (* The q-quantile as the upper bound of the first bucket whose
     cumulative count reaches it — a <= 2x overestimate, stable and
     mergeable, which is all an admission dashboard needs. *)
  let quantile t q =
    if t.total = 0 then 0.0
    else
      let target = max 1 (int_of_float (ceil (q *. float_of_int t.total))) in
      let rec go i acc =
        let acc = acc + t.counts.(i) in
        if acc >= target || i = nbuckets - 1 then upper_ms i else go (i + 1) acc
      in
      go 0 0
end

(* ---- state ------------------------------------------------------------ *)

(* The backoff hint every shed carries. *)
let shed_retry_ms = 250

type stats = {
  mutable fd_accepted : int;
  mutable fd_admitted : int;
  mutable fd_completed : int;
  mutable fd_shed : int;
  mutable fd_proto_errors : int;
}

(* One request's place in its connection's reply sequence: its rendered
   reply once there is one. *)
type slot = { mutable s_reply : string option }

(* One connection's state machine: its reader (unparsed inbound bytes),
   pending out-bytes, and the reply sequence — one slot per request
   whose reply has not yet moved to the out-bytes, in request order.
   Only the event loop touches a cstate; dispatchers reference one
   solely as a completion address. *)
type cstate = {
  c_conn : Env.conn;
  c_rd : Protocol.reader;
  mutable c_out : string;
  c_replies : slot Queue.t;
  mutable c_closing : bool;  (** no more input; close once drained *)
  mutable c_err : bool;  (** stream desynchronized; stop parsing *)
  mutable c_dead : bool;
}

type job = {
  jb_cs : cstate;
  jb_slot : slot;
  jb_msg : Protocol.message;
  jb_admit : float;  (** mono time of admission — queue wait counts *)
  jb_deadline : (float option, string) result;
      (** absolute, mono; [Error] names a malformed [deadline-ms] *)
}

type t = {
  env : Env.t;
  broker : Broker.t;
  listener : Env.listener;
  poller : Env.poller;
  log : string -> unit;
  mx : Env.mutex;
  job_cond : Env.cond;
  jobs : job Queue.t;
  comps : (job * Protocol.message) Queue.t;
  hist : Hist.t;  (** admission-to-reply latency of every request *)
  stats : stats;
  mutable conns : cstate list;
  mutable stopping : bool;
}

let locked fd f =
  fd.mx.Env.lock ();
  Fun.protect ~finally:(fun () -> fd.mx.Env.unlock ()) f

(* ---- replies ---------------------------------------------------------- *)

let shed_reply =
  {
    Protocol.verb = "reply";
    fields =
      [ ("status", "shed"); ("retry-after-ms", string_of_int shed_retry_ms) ];
  }

(* ---- connection I/O --------------------------------------------------- *)

let mark_dead cs =
  if not cs.c_dead then begin
    cs.c_dead <- true;
    cs.c_out <- "";
    try cs.c_conn.Env.close_conn () with _ -> ()
  end

let flush_out cs =
  if (not cs.c_dead) && cs.c_out <> "" then
    match cs.c_conn.Env.try_send cs.c_out with
    | 0 -> ()
    | n -> cs.c_out <- String.sub cs.c_out n (String.length cs.c_out - n)
    | exception Env.Net _ -> mark_dead cs

(* The next place in [cs]'s reply sequence. *)
let reserve cs =
  let slot = { s_reply = None } in
  Queue.push slot cs.c_replies;
  slot

(* Fill [slot] with its reply, then move every reply now ready at the
   head of the sequence to the out-bytes: replies leave in request
   order, however their requests were answered. *)
let fill cs slot m =
  slot.s_reply <- Some (if cs.c_dead then "" else Protocol.render m);
  let rec drain () =
    match Queue.peek_opt cs.c_replies with
    | Some { s_reply = Some r; _ } ->
        ignore (Queue.pop cs.c_replies);
        if not cs.c_dead then cs.c_out <- cs.c_out ^ r;
        drain ()
    | _ -> ()
  in
  drain ();
  flush_out cs

(* Answer a request on the spot. *)
let reply cs m = fill cs (reserve cs) m

(* ---- request handling ------------------------------------------------- *)

let stats_reply fd =
  let b = Broker.stats fd.broker in
  let counts = Buffer.create 256 in
  Printf.bprintf counts
    "requests=%d compiles=%d cache_hits=%d coalesced=%d shed=%d timeouts=%d \
     failures=%d"
    b.Broker.requests b.Broker.compiles b.Broker.cache_hits b.Broker.coalesced
    b.Broker.shed b.Broker.timeouts b.Broker.failures;
  let store_line =
    match Broker.store fd.broker with
    | None -> "none"
    | Some s ->
        let ss = Store.stats s in
        Printf.bprintf counts
          " store_hits=%d store_misses=%d store_writes=%d store_evictions=%d \
           store_corrupt=%d"
          ss.Store.hits ss.Store.misses ss.Store.writes ss.Store.evictions
          ss.Store.corrupt;
        Format.asprintf "%a" Store.pp_stats ss
  in
  let fdline = Buffer.create 256 in
  locked fd (fun () ->
      Printf.bprintf fdline
        "accepted=%d admitted=%d completed=%d shed=%d proto_errors=%d \
         queue=%d p50_ms=%g p95_ms=%g p99_ms=%g"
        fd.stats.fd_accepted fd.stats.fd_admitted fd.stats.fd_completed
        fd.stats.fd_shed fd.stats.fd_proto_errors (Queue.length fd.jobs)
        (Hist.quantile fd.hist 0.50)
        (Hist.quantile fd.hist 0.95)
        (Hist.quantile fd.hist 0.99));
  Protocol.ok
    [
      ("broker", Format.asprintf "%a" Broker.pp_stats b);
      ("store", store_line);
      ("counts", Buffer.contents counts);
      ("frontdoor", Buffer.contents fdline);
    ]

let internal_error e =
  Protocol.rejected ("internal error: " ^ Printexc.to_string e)

(* An admitted request's reply.  [memory_only] is the event loop's
   call: it answers only what needs no blocking — a compile whose
   result is already in memory ({!Broker.submit_in_memory}), a request
   refused outright — and returns [None] for everything a dispatcher
   must wait on. *)
let process fd ~memory_only j =
  let m = j.jb_msg in
  match
    ( Protocol.field m "fn",
      Protocol.field m "ir",
      j.jb_deadline,
      Protocol.ms_field m "delay-ms" )
  with
  | None, _, _, _ | _, None, _, _ ->
      Some (Protocol.rejected "compile needs fn and ir fields")
  | _, _, Error msg, _ | _, _, _, Error msg -> Some (Protocol.rejected msg)
  | _, _, Ok (Some d), _ when fd.env.Env.mono () >= d ->
      Some (Protocol.reply_of_outcome Broker.Timed_out)
  | Some fn, Some ir, Ok deadline, Ok delay_s -> (
      match Protocol.compile_config m with
      | Error msg -> Some (Protocol.rejected msg)
      | Ok config ->
          (* The remaining budget, not the original: queue wait has
             already been charged against the deadline — all on the
             monotonic clock, so a wall step changes nothing. *)
          let deadline_s =
            Option.map (fun d -> d -. fd.env.Env.mono ()) deadline
          in
          let context = Protocol.field m "context" in
          Option.map Protocol.reply_of_outcome
            (if memory_only then
               Broker.submit_in_memory ?deadline_s ?context ~config ~fn ~ir
                 fd.broker
             else
               Some
                 (Broker.submit ?deadline_s ?delay_s ?context ~config ~fn ~ir
                    fd.broker)))

(* Account a finished request and fill its reply slot — the one path
   for requests answered on the loop and for dispatcher completions
   alike.  Runs on the loop. *)
let finish fd j reply =
  let lat_ms = (fd.env.Env.mono () -. j.jb_admit) *. 1000. in
  locked fd (fun () ->
      Hist.add fd.hist lat_ms;
      fd.stats.fd_completed <- fd.stats.fd_completed + 1);
  fill j.jb_cs j.jb_slot reply

(* Admit a request: answer it here if that needs no blocking, queue
   it for the dispatchers otherwise, and shed it when the queue is
   full. *)
let admit fd cs m =
  let now = fd.env.Env.mono () in
  let slot = reserve cs in
  if locked fd (fun () -> fd.stopping) then
    fill cs slot (Protocol.rejected "server is shutting down")
  else
    let j =
      {
        jb_cs = cs;
        jb_slot = slot;
        jb_msg = m;
        jb_admit = now;
        jb_deadline =
          Result.map
            (Option.map (fun s -> now +. s))
            (Protocol.ms_field m "deadline-ms");
      }
    in
    let count_admitted () = fd.stats.fd_admitted <- fd.stats.fd_admitted + 1 in
    match
      try process fd ~memory_only:true j with e -> Some (internal_error e)
    with
    | Some r ->
        locked fd count_admitted;
        finish fd j r
    | None ->
        let queued =
          locked fd (fun () ->
              let full = Queue.length fd.jobs >= Broker.queue_limit fd.broker in
              if full then fd.stats.fd_shed <- fd.stats.fd_shed + 1
              else begin
                count_admitted ();
                Queue.push j fd.jobs;
                fd.job_cond.Env.broadcast ()
              end;
              not full)
        in
        if not queued then fill cs slot shed_reply

let initiate_stop fd =
  locked fd (fun () ->
      if not fd.stopping then begin
        fd.stopping <- true;
        fd.job_cond.Env.broadcast ()
      end);
  (try fd.listener.Env.close_listener () with _ -> ());
  fd.poller.Env.wake ()

let handle_msg fd cs m =
  match m.Protocol.verb with
  | "ping" -> reply cs (Protocol.ok [])
  | "stats" -> reply cs (stats_reply fd)
  | "shutdown" ->
      fd.log "shutdown requested";
      reply cs (Protocol.ok []);
      initiate_stop fd
  | "compile" -> admit fd cs m
  | verb -> reply cs (Protocol.rejected ("unknown verb: " ^ verb))

let rec parse_loop fd cs =
  if (not cs.c_dead) && not cs.c_err then
    match Protocol.next cs.c_rd with
    | Protocol.More -> ()
    | Protocol.Err e ->
        (* The stream is desynchronized: answer with a structured
           protocol error, stop reading, close once drained. *)
        locked fd (fun () ->
            fd.stats.fd_proto_errors <- fd.stats.fd_proto_errors + 1);
        cs.c_err <- true;
        cs.c_closing <- true;
        reply cs (Protocol.rejected ("protocol error: " ^ e))
    | Protocol.Msg (m, _) ->
        handle_msg fd cs m;
        parse_loop fd cs

let pump_in cs =
  if (not cs.c_dead) && not cs.c_closing then
    try
      let rec rd () =
        match cs.c_conn.Env.try_recv 65536 with
        | "" -> ()
        | s ->
            Protocol.feed cs.c_rd s;
            rd ()
      in
      rd ()
    with
    | Env.Net (Env.Eof, _) -> cs.c_closing <- true
    | Env.Net _ -> mark_dead cs

let service_conn fd cs =
  if not cs.c_dead then begin
    flush_out cs;
    pump_in cs;
    (* Bytes buffered before an EOF may still hold complete requests
       (send + shutdown-write is a legal client). *)
    parse_loop fd cs;
    flush_out cs;
    if cs.c_closing && cs.c_out = "" && Queue.is_empty cs.c_replies then
      mark_dead cs
  end

(* ---- dispatchers ------------------------------------------------------ *)

let dispatcher fd () =
  let next () =
    fd.mx.Env.lock ();
    let rec wait () =
      match Queue.take_opt fd.jobs with
      | Some j ->
          fd.mx.Env.unlock ();
          Some j
      | None ->
          if fd.stopping then begin
            fd.mx.Env.unlock ();
            None
          end
          else begin
            fd.job_cond.Env.wait ();
            wait ()
          end
    in
    wait ()
  in
  let rec run () =
    match next () with
    | None -> ()
    | Some j ->
        let reply =
          try Option.get (process fd ~memory_only:false j)
          with e -> internal_error e
        in
        locked fd (fun () -> Queue.push (j, reply) fd.comps);
        fd.poller.Env.wake ();
        run ()
  in
  run ()

(* ---- the event loop --------------------------------------------------- *)

let accept_all fd =
  if not (locked fd (fun () -> fd.stopping)) then
    let rec go () =
      match fd.listener.Env.try_accept () with
      | None -> ()
      | Some conn ->
          locked fd (fun () -> fd.stats.fd_accepted <- fd.stats.fd_accepted + 1);
          let cs =
            {
              c_conn = conn;
              c_rd = Protocol.reader ();
              c_out = "";
              c_replies = Queue.create ();
              c_closing = false;
              c_err = false;
              c_dead = false;
            }
          in
          fd.conns <- cs :: fd.conns;
          go ()
      | exception Env.Net _ -> ()
    in
    go ()

let rec loop fd =
  (* Replies completed by the dispatchers since the last pass. *)
  let comps =
    locked fd (fun () ->
        let l = Queue.fold (fun acc c -> c :: acc) [] fd.comps in
        Queue.clear fd.comps;
        List.rev l)
  in
  List.iter (fun (j, reply) -> finish fd j reply) comps;
  accept_all fd;
  List.iter (service_conn fd) fd.conns;
  fd.conns <- List.filter (fun cs -> not cs.c_dead) fd.conns;
  let inflight =
    List.fold_left (fun a cs -> a + Queue.length cs.c_replies) 0 fd.conns
  in
  let out_pending = List.exists (fun cs -> cs.c_out <> "") fd.conns in
  let stopping, comps_empty =
    locked fd (fun () -> (fd.stopping, Queue.is_empty fd.comps))
  in
  if stopping && inflight = 0 && (not out_pending) && comps_empty then ()
  else begin
    (* Readable conns and the listener wake the poll; dispatchers wake
       it through the poller.  A non-empty out-buffer (real env only —
       the simulated link never short-writes) polls on a short tick to
       retry the write. *)
    let pollable =
      List.filter (fun cs -> (not cs.c_closing) && not cs.c_dead) fd.conns
    in
    let deadline =
      if out_pending then fd.env.Env.mono () +. 0.05 else Float.infinity
    in
    fd.poller.Env.poll
      ~conns:(List.map (fun cs -> cs.c_conn) pollable)
      ~listeners:(if stopping then [] else [ fd.listener ])
      deadline;
    loop fd
  end

let serve ?(env = Env.real) ?(log = fun _ -> ()) ~sock ~broker () =
  Env.claim_socket env ~owner:"Frontdoor.serve" sock;
  let listener = env.Env.listen sock in
  let poller = env.Env.poller () in
  let mx = env.Env.mutex () in
  let fd =
    {
      env;
      broker;
      listener;
      poller;
      log;
      mx;
      job_cond = mx.Env.new_cond ();
      jobs = Queue.create ();
      comps = Queue.create ();
      hist = Hist.create ();
      stats =
        {
          fd_accepted = 0;
          fd_admitted = 0;
          fd_completed = 0;
          fd_shed = 0;
          fd_proto_errors = 0;
        };
      conns = [];
      stopping = false;
    }
  in
  log (Printf.sprintf "frontdoor listening on %s" sock);
  let dispatchers =
    List.init (Broker.workers broker) (fun i ->
        env.Env.spawn
          (Printf.sprintf "frontdoor-dispatch-%d" i)
          (dispatcher fd))
  in
  loop fd;
  (try fd.listener.Env.close_listener () with _ -> ());
  locked fd (fun () -> fd.job_cond.Env.broadcast ());
  List.iter (fun (t : Env.thread) -> t.Env.join ()) dispatchers;
  List.iter mark_dead fd.conns;
  fd.poller.Env.close_poller ();
  Broker.shutdown broker;
  (try env.Env.remove sock with Sys_error _ -> ());
  log "frontdoor stopped"
