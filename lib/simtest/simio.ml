(** The simulated environment: network, disk and clocks on the
    scheduler, with seeded faults — see the interface. *)

module F = Dbds.Faults
module Env = Service.Env

exception Crashed of string

let () =
  Printexc.register_printer (function
    | Crashed ctx -> Some (Printf.sprintf "Simio.Crashed(%s)" ctx)
    | _ -> None)

type arm = { plan : F.plan; mutable count : int }

(* One endpoint of a bidirectional stream.  [floor] is the FIFO
   delivery floor for chunks arriving here: no send ever delivers
   before an earlier send — the link is a reliable ordered stream,
   like the Unix socket it stands in for.  Faults delay, sever or
   partition the link; they never garble the byte stream itself. *)
type ep = {
  edge : string;
  inq : string Queue.t;
  rbuf : Buffer.t;
  mutable floor : float;
  mutable closed : bool;
  mutable peer_closed : bool;
  mutable reset : bool;
  mutable rwaiter : (unit -> unit) option;
}

type t = {
  sched : Sched.t;
  mutable wall_offset : float;  (** NTP steps land here; mono ignores it *)
  files : (string, string) Hashtbl.t;
  dirs : (string, unit) Hashtbl.t;
  listeners : (string, listener_rec) Hashtbl.t;
  eps : (int, ep) Hashtbl.t;
      (** conn-id → endpoint, the poller's readiness lookup *)
  lrecs : (int, listener_rec) Hashtbl.t;  (** listener-id → record *)
  arms : arm list;
  mutable partition_until : float;
  mutable conn_count : int;
}

and listener_rec = {
  backlog : Env.conn Queue.t;
  mutable lwaiter : (unit -> unit) option;
  mutable lclosed : bool;
}

(* Per-chunk link latency and per-operation disk latency, seconds,
   and the wall clock at virtual time 0. *)
let net_latency = 0.001
let disk_latency = 0.002
let wall_base = 1.7e9

let create ?(faults = []) sched =
  let io =
    {
      sched;
      wall_offset = 0.;
      files = Hashtbl.create 64;
      dirs = Hashtbl.create 8;
      listeners = Hashtbl.create 4;
      eps = Hashtbl.create 16;
      lrecs = Hashtbl.create 4;
      arms = List.map (fun plan -> { plan; count = 0 }) faults;
      partition_until = 0.;
      conn_count = 0;
    }
  in
  (* Clock jumps are scheduled, not counted: plan [clock.jump:N] steps
     the wall clock +1h at virtual second N.  The monotonic clock is
     untouched — deadlines must not notice. *)
  List.iter
    (fun (p : F.plan) ->
      if p.F.site = F.Clock_jump then
        Sched.schedule ~delay:(float_of_int p.F.hit) ~desc:"clock-jump" sched
          (fun () -> io.wall_offset <- io.wall_offset +. 3600.))
    faults;
  io

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
  nl = 0 || at 0

(* Does an armed env fault fire for this (site, tag) occurrence?  Each
   matching arm counts the occurrence; the arm fires exactly on its
   hit-th one. *)
let fires io site ~tag =
  List.exists
    (fun a ->
      a.plan.F.site = site
      && (match a.plan.F.fn with
         | None -> true
         | Some sub -> contains ~needle:sub tag)
      &&
      (a.count <- a.count + 1;
       a.count = a.plan.F.hit))
    io.arms

(* ---- network -------------------------------------------------------- *)

let make_ep edge =
  {
    edge;
    inq = Queue.create ();
    rbuf = Buffer.create 256;
    floor = 0.;
    closed = false;
    peer_closed = false;
    reset = false;
    rwaiter = None;
  }

let wake_reader ep =
  match ep.rwaiter with
  | None -> ()
  | Some wake ->
      ep.rwaiter <- None;
      wake ()

let deliver io peer chunk =
  if not (peer.closed || peer.reset) then begin
    Queue.push chunk peer.inq;
    wake_reader peer
  end;
  ignore io

let send io self peer chunk =
  if self.closed then raise (Env.Net (Env.Closed, "send on closed connection"));
  if self.reset || peer.reset then raise (Env.Net (Env.Reset, self.edge));
  if peer.closed then raise (Env.Net (Env.Reset, self.edge));
  let tag = self.edge in
  let now = Sched.now io.sched in
  if fires io F.Net_partition ~tag then
    io.partition_until <- Float.max io.partition_until (now +. 1.0);
  let base =
    Float.max (now +. net_latency)
      (Float.max peer.floor io.partition_until)
  in
  if fires io F.Net_drop ~tag then begin
    (* A dropped chunk is a lost stream prefix: silently black-holing
       it could hang the peer mid-message forever, so the link resets —
       both sides see a clean, *detectable* failure. *)
    Sched.schedule ~delay:(base -. now) ~desc:("drop:" ^ tag) io.sched
      (fun () ->
        self.reset <- true;
        peer.reset <- true;
        wake_reader peer;
        wake_reader self)
  end
  else begin
    (* The transport is a reliable byte stream (a Unix socket): the
       kernel never reorders or duplicates bytes *within* a
       connection, so those faults must not garble the stream —
       garbling would fail requests the real system answers correctly.
       Reorder therefore surfaces as what packet reordering looks like
       through a stream: a head-of-line latency spike (FIFO
       preserved).  Dup surfaces as a retransmission storm the
       endpoints give up on: the chunk arrives, then the link resets —
       a clean, detectable failure at a *different* point than drop
       (after delivery rather than instead of it). *)
    let tdel =
      if fires io F.Net_reorder ~tag then base +. (3. *. net_latency)
      else base
    in
    peer.floor <- tdel;
    Sched.schedule ~delay:(tdel -. now) ~desc:("deliver:" ^ tag) io.sched
      (fun () -> deliver io peer chunk);
    if fires io F.Net_dup ~tag then
      Sched.schedule
        ~delay:(tdel -. now +. net_latency)
        ~desc:("dup:" ^ tag) io.sched
        (fun () ->
          self.reset <- true;
          peer.reset <- true;
          wake_reader peer;
          wake_reader self)
  end

(* Block until the endpoint has buffered bytes, EOF, reset, or the
   (absolute, monotonic) deadline.  The waiter may be woken by either a
   delivery or the deadline timer; the loop re-checks state, so a
   double wake is harmless (and [Suspend]'s resume is one-shot). *)
let rec await_input io ep deadline =
  while not (Queue.is_empty ep.inq) do
    Buffer.add_string ep.rbuf (Queue.pop ep.inq)
  done;
  if Buffer.length ep.rbuf = 0 then
    if ep.reset then raise (Env.Net (Env.Reset, ep.edge))
    else if ep.peer_closed then raise (Env.Net (Env.Eof, ep.edge))
    else if Sched.now io.sched >= deadline then
      raise (Env.Net (Env.Timeout, ep.edge))
    else begin
      Sched.suspend io.sched (fun resume ->
          ep.rwaiter <- Some resume;
          if deadline < Float.infinity then
            Sched.schedule
              ~delay:(deadline -. Sched.now io.sched)
              ~desc:("recv-deadline:" ^ ep.edge) io.sched resume);
      await_input io ep deadline
    end

let take ep n =
  let s = Buffer.sub ep.rbuf 0 n in
  let rest = Buffer.sub ep.rbuf n (Buffer.length ep.rbuf - n) in
  Buffer.clear ep.rbuf;
  Buffer.add_string ep.rbuf rest;
  s

(* The blocking read: whatever is buffered, up to [n] bytes, once there
   is at least one. *)
let recv io ep deadline n =
  await_input io ep deadline;
  take ep (min n (Buffer.length ep.rbuf))

let close_ep io self peer =
  if not self.closed then begin
    self.closed <- true;
    Sched.schedule ~delay:net_latency ~desc:("close:" ^ self.edge) io.sched
      (fun () ->
        peer.peer_closed <- true;
        wake_reader peer)
  end

(* The non-blocking read: drain delivered chunks into the read buffer
   and hand back what is there.  EOF/reset only surface once the buffer
   is empty — bytes that arrived before the failure are still valid. *)
let try_recv io self n =
  ignore io;
  if self.closed then raise (Env.Net (Env.Closed, "recv on closed connection"));
  while not (Queue.is_empty self.inq) do
    Buffer.add_string self.rbuf (Queue.pop self.inq)
  done;
  let k = min n (Buffer.length self.rbuf) in
  if k > 0 then take self k
  else if self.reset then raise (Env.Net (Env.Reset, self.edge))
  else if self.peer_closed then raise (Env.Net (Env.Eof, self.edge))
  else ""

let conn_of_ep io self peer =
  let id = Env.fresh_id () in
  Hashtbl.replace io.eps id self;
  {
    Env.id;
    send = (fun chunk -> send io self peer chunk);
    recv = (fun deadline n -> recv io self deadline n);
    try_recv = (fun n -> try_recv io self n);
    try_send =
      (* The simulated link never short-writes: one send is one chunk,
         which keeps message-per-chunk fault targeting intact. *)
      (fun chunk ->
        send io self peer chunk;
        String.length chunk);
    close_conn =
      (fun () ->
        Hashtbl.remove io.eps id;
        close_ep io self peer);
  }

let connect io addr =
  match Hashtbl.find_opt io.listeners addr with
  | Some l when not l.lclosed ->
      io.conn_count <- io.conn_count + 1;
      let tag = Printf.sprintf "conn%d" io.conn_count in
      let cep = make_ep (tag ^ ":c->s") and sep = make_ep (tag ^ ":s->c") in
      Queue.push (conn_of_ep io sep cep) l.backlog;
      (match l.lwaiter with
      | None -> ()
      | Some wake ->
          l.lwaiter <- None;
          wake ());
      conn_of_ep io cep sep
  | _ ->
      if Hashtbl.mem io.files addr then
        raise (Env.Net (Env.Refused, "connect " ^ addr))
      else raise (Env.Net (Env.Not_found, "connect " ^ addr))

let listen io addr =
  if Hashtbl.mem io.files addr || Hashtbl.mem io.listeners addr then
    raise (Env.Net (Env.Other "address already in use", "listen " ^ addr));
  Hashtbl.replace io.files addr "";
  let lid = Env.fresh_id () in
  let l =
    {
      backlog = Queue.create ();
      lwaiter = None;
      lclosed = false;
    }
  in
  Hashtbl.replace io.listeners addr l;
  Hashtbl.replace io.lrecs lid l;
  let try_accept () =
    if l.lclosed then raise (Env.Net (Env.Closed, "accept " ^ addr));
    match Queue.pop l.backlog with
    | conn -> Some conn
    | exception Queue.Empty -> None
  in
  let close_listener () =
    if not l.lclosed then begin
      l.lclosed <- true;
      Hashtbl.remove io.listeners addr;
      Hashtbl.remove io.lrecs lid;
      (match l.lwaiter with
      | None -> ()
      | Some wake ->
          l.lwaiter <- None;
          wake ())
    end
  in
  { Env.lid; try_accept; close_listener }

(* ---- poller ---------------------------------------------------------- *)

(* The simulated readiness multiplexer.  Readiness is a pure state
   check; when nothing is ready the fiber parks one one-shot resume in
   every watched endpoint's waiter slot (plus a deadline timer).  The
   resume is idempotent, so N slots firing is fine, and stale resumes
   left in unwoken slots are no-ops that the next poll overwrites —
   polled endpoints must never also have a blocking reader, which is
   exactly the Env contract. *)
let sim_poller io =
  let pending = ref false in
  let closed = ref false in
  let waiter = ref None in
  let conn_ready (c : Env.conn) =
    match Hashtbl.find_opt io.eps c.Env.id with
    | None -> true (* closed under the poller's feet: let the loop see *)
    | Some ep ->
        Buffer.length ep.rbuf > 0
        || (not (Queue.is_empty ep.inq))
        || ep.reset || ep.peer_closed
  in
  let listener_ready (l : Env.listener) =
    match Hashtbl.find_opt io.lrecs l.Env.lid with
    | None -> true
    | Some lr -> lr.lclosed || not (Queue.is_empty lr.backlog)
  in
  let poll ~conns ~listeners deadline =
    if !closed then raise (Env.Net (Env.Closed, "poll on closed poller"));
    if
      !pending
      || List.exists conn_ready conns
      || List.exists listener_ready listeners
      || Sched.now io.sched >= deadline
    then pending := false
    else begin
      Sched.suspend io.sched (fun resume ->
          waiter := Some resume;
          List.iter
            (fun (c : Env.conn) ->
              match Hashtbl.find_opt io.eps c.Env.id with
              | Some ep -> ep.rwaiter <- Some resume
              | None -> ())
            conns;
          List.iter
            (fun (l : Env.listener) ->
              match Hashtbl.find_opt io.lrecs l.Env.lid with
              | Some lr -> lr.lwaiter <- Some resume
              | None -> ())
            listeners;
          if deadline < Float.infinity then
            Sched.schedule
              ~delay:(deadline -. Sched.now io.sched)
              ~desc:"poll-deadline" io.sched resume);
      pending := false;
      waiter := None
    end
  in
  let wake () =
    pending := true;
    match !waiter with
    | None -> ()
    | Some resume ->
        waiter := None;
        resume ()
  in
  let close_poller () =
    if not !closed then begin
      closed := true;
      wake ()
    end
  in
  { Env.poll; wake; close_poller }

(* ---- disk ----------------------------------------------------------- *)

let disk_op io site ~path =
  Sched.sleep io.sched disk_latency;
  if fires io F.Disk_slow ~tag:path then Sched.sleep io.sched 2.0;
  ignore site

let read_file io path =
  disk_op io `Read ~path;
  match Hashtbl.find_opt io.files path with
  | Some content -> content
  | None -> raise (Sys_error (path ^ ": no such file (simulated)"))

let write_file io path content =
  disk_op io `Write ~path;
  if fires io F.Disk_torn ~tag:path then begin
    Hashtbl.replace io.files path
      (String.sub content 0 (String.length content / 2));
    raise (Sys_error (path ^ ": torn write (simulated)"))
  end
  else Hashtbl.replace io.files path content

let rename io src dst =
  disk_op io `Rename ~path:src;
  match Hashtbl.find_opt io.files src with
  | None -> raise (Sys_error (src ^ ": no such file (simulated)"))
  | Some content ->
      if fires io F.Disk_crash ~tag:src then
        (* Power cut between data write and publication: the temp file
           stays, the final name never appears, and control never
           returns to the writer. *)
        raise (Crashed ("rename " ^ src))
      else begin
        Hashtbl.remove io.files src;
        Hashtbl.replace io.files dst content
      end

let readdir io dir =
  let names =
    Hashtbl.fold
      (fun path _ acc ->
        if Filename.dirname path = dir then Filename.basename path :: acc
        else acc)
      io.files []
  in
  let arr = Array.of_list names in
  Array.sort compare arr;
  arr

(* ---- the environment record ----------------------------------------- *)

let env io =
  let spawn name f =
    let fiber = Sched.spawn io.sched name f in
    { Env.join = (fun () -> Sched.join io.sched fiber) }
  in
  {
    Env.now =
      (fun () -> wall_base +. Sched.now io.sched +. io.wall_offset);
    mono = (fun () -> Sched.now io.sched);
    sleep = (fun d -> Sched.sleep io.sched d);
    rand_int = (fun bound -> Sched.rand_int io.sched bound);
    pid = 1;
    spawn;
    spawn_compute = spawn;
    mutex =
      (fun () ->
        let m = Sched.mutex_create () in
        {
          Env.lock = (fun () -> Sched.mutex_lock io.sched m);
          unlock = (fun () -> Sched.mutex_unlock io.sched m);
          new_cond =
            (fun () ->
              let c = Sched.cond_create m in
              {
                Env.wait = (fun () -> Sched.cond_wait io.sched c);
                broadcast = (fun () -> Sched.cond_broadcast io.sched c);
              });
        });
    listen = (fun addr -> listen io addr);
    connect = (fun addr -> connect io addr);
    poller = (fun () -> sim_poller io);
    file_exists =
      (fun path -> Hashtbl.mem io.files path || Hashtbl.mem io.dirs path);
    mkdir = (fun path -> Hashtbl.replace io.dirs path ());
    readdir = (fun dir -> readdir io dir);
    file_size =
      (fun path ->
        match Hashtbl.find_opt io.files path with
        | Some c -> String.length c
        | None -> raise (Sys_error (path ^ ": no such file (simulated)")));
    read_file = (fun path -> read_file io path);
    write_file = (fun path content -> write_file io path content);
    rename = (fun src dst -> rename io src dst);
    remove =
      (fun path ->
        if Hashtbl.mem io.files path then Hashtbl.remove io.files path
        else raise (Sys_error (path ^ ": no such file (simulated)")));
  }
