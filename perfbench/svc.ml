(* The client -> reply path: [dbdsc --serve --frontdoor] as a child
   process, driven open-loop from one thread over two pipelined
   connections. *)

let env = Service.Env.real
let mono = env.Service.Env.mono

(* Server settings; METRICS.md records them next to the workloads. *)
let workers = 1
let queue_limit = 100_000
let tenant_rate = 1e6
let tenant_burst = 1e6

type server = { pid : int; sock : string; dir : string }

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ()) (Sys.readdir dir);
    try Sys.rmdir dir with Sys_error _ -> ()
  end

let live : server list ref = ref []

let kill_server s =
  (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] s.pid) with Unix.Unix_error _ -> ());
  live := List.filter (fun x -> x.pid <> s.pid) !live;
  (try Sys.remove s.sock with Sys_error _ -> ());
  rm_rf s.dir

(* A run that is interrupted or killed still stops its servers; a closed
   standard output is an error, not a silent death. *)
let () =
  at_exit (fun () -> List.iter kill_server !live);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter
    (fun signal -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigterm; Sys.sigint; Sys.sighup ]

let start ~dbdsc ~out k =
  let tag = Printf.sprintf "%d-%d" (Unix.getpid ()) k in
  let sock = Filename.concat out ("s" ^ tag ^ ".sock") and dir = Filename.concat out ("store-" ^ tag) in
  rm_rf dir;
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let args =
    [
      dbdsc; "--serve"; sock; "--frontdoor";
      "--service-workers"; string_of_int workers;
      "--service-queue-limit"; string_of_int queue_limit;
      "--tenant-rate"; Printf.sprintf "%.0f" tenant_rate;
      "--tenant-burst"; Printf.sprintf "%.0f" tenant_burst;
      "--cache-dir"; dir;
      "--cache-capacity"; string_of_int (1 lsl 30);
    ]
  in
  let pid = Unix.create_process dbdsc (Array.of_list args) devnull devnull devnull in
  Unix.close devnull;
  let s = { pid; sock; dir } in
  live := s :: !live;
  s

let with_client s f =
  let c = Service.Client.connect ~deadline_s:30.0 ~io_deadline_s:120.0 ~sock:s.sock () in
  Fun.protect ~finally:(fun () -> Service.Client.close c) (fun () -> f c)

let stop s =
  (try with_client s (fun c -> ignore (Service.Client.shutdown_server c)) with _ -> ());
  let t0 = Unix.gettimeofday () in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when Unix.gettimeofday () -. t0 < 10.0 ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ -> ()
    | _ -> live := List.filter (fun x -> x.pid <> s.pid) !live
    | exception Unix.Unix_error _ -> ()
  in
  wait ();
  kill_server s

(* The server's counters: [key=value] pairs of the stats reply's counts
   line. *)
let counters s =
  with_client s (fun c ->
      match Service.Client.stats c with
      | Ok (_, _, counts) ->
          List.filter_map
            (fun kv ->
              match String.index_opt kv '=' with
              | Some i -> (
                  match int_of_string_opt (String.sub kv (i + 1) (String.length kv - i - 1)) with
                  | Some v -> Some (String.sub kv 0 i, v)
                  | None -> None)
              | None -> None)
            (String.split_on_char ' ' counts)
      | Error msg -> failwith ("service stats: " ^ msg))

let counter cs k = Option.value ~default:0 (List.assoc_opt k cs)

(* Processor time the server has used so far, over all its threads: the
   first field of each thread's schedstat is the kernel's run time in
   nanoseconds, which leaves out time the host gave to other tenants.
   The server's wall-clock latency on a shared host swings by tens of
   percent from run to run; its processor time per request does not. *)
let cpu_s s =
  let dir = Printf.sprintf "/proc/%d/task" s.pid in
  let thread acc tid =
    match In_channel.with_open_text (Filename.concat (Filename.concat dir tid) "schedstat") input_line with
    | line -> (
        match float_of_string_opt (List.hd (String.split_on_char ' ' line)) with
        | Some ns -> acc +. (ns /. 1e9)
        | None -> acc)
    | exception (Sys_error _ | End_of_file) -> acc
  in
  match Sys.readdir dir with
  | tids -> Array.fold_left thread 0.0 tids
  | exception Sys_error _ -> 0.0

(* ---- open-loop generator ---------------------------------------------- *)

type reply = Got of string | Bad of string

type step = {
  rate : float;
  sent : int;
  replies : (Gen.request * reply) list;
  lat_ms : float list;  (** due time -> reply, successful requests *)
  lag_ms : float list;  (** send time - due time *)
  backlog_end : int;  (** requests in flight when the last one was sent *)
  inflight_max : int;
  server_cpu_s : float;  (** processor time the server used during the step *)
}

type conn = { c : Service.Env.conn; buf : Buffer.t; fifo : (Gen.request * float) Queue.t }

let connect s =
  let rec go tries =
    match env.Service.Env.connect s.sock with
    | c -> { c; buf = Buffer.create 65536; fifo = Queue.create () }
    | exception Service.Env.Net _ when tries > 0 ->
        Unix.sleepf 0.05;
        go (tries - 1)
  in
  go 200

let close cn = try cn.c.Service.Env.close_conn () with _ -> ()

(* [count] Poisson arrivals at [rate]: due offsets from the step start. *)
let arrivals ~rng ~rate ~count =
  let t = ref 0.0 in
  Array.init count (fun _ ->
      t := !t -. (log (1.0 -. Random.State.float rng 1.0) /. rate);
      !t)

(* One open-loop step.  Requests are timed from their due time, so a
   stalled server or a late generator both show up as latency.  Replies
   on a pipelined connection are matched in order. *)
let run_step ?(on_reply = fun _ _ _ -> ()) ~server ~conns ~rng ~rate ~count next_req =
  let due = arrivals ~rng ~rate ~count in
  let reqs = Array.map (fun _ -> next_req ()) due in
  let n = Array.length due in
  let poller = env.Service.Env.poller () in
  Fun.protect ~finally:(fun () -> poller.Service.Env.close_poller ()) @@ fun () ->
  let cpu0 = cpu_s server in
  let t0 = mono () in
  let sent = ref 0 and inflight = ref 0 and inflight_max = ref 0 in
  let lat = ref [] and lag = ref [] and replies = ref [] and backlog_end = ref (-1) in
  let nconns = Array.length conns in
  (* Replies are parsed after every chunk read, so the buffer never holds
     more than a chunk's worth of replies (decoding re-reads it whole). *)
  let receive cn =
    let rec parse () =
      if Buffer.length cn.buf > 0 then
        match Service.Protocol.decode (Buffer.contents cn.buf) with
        | Service.Protocol.More -> ()
        | Service.Protocol.Err e -> failwith ("service reply: " ^ e)
        | Service.Protocol.Msg (m, used) ->
            let rest = Buffer.sub cn.buf used (Buffer.length cn.buf - used) in
            Buffer.clear cn.buf;
            Buffer.add_string cn.buf rest;
            let r, d = Queue.pop cn.fifo in
            let t = mono () in
            decr inflight;
            let rep =
              match Service.Protocol.outcome_of_reply m with
              | Ok (Service.Broker.Done { ir; _ }) ->
                  lat := ((t -. d) *. 1000.0) :: !lat;
                  Got ir
              | Ok o -> Bad (Service.Broker.outcome_label o)
              | Error e -> Bad e
            in
            on_reply r d t;
            replies := (r, rep) :: !replies;
            parse ()
    in
    let rec rd () =
      match cn.c.Service.Env.try_recv 16384 with
      | "" -> ()
      | s ->
          Buffer.add_string cn.buf s;
          parse ();
          rd ()
    in
    rd ()
  in
  let drain_deadline = ref infinity in
  while !sent < n || !inflight > 0 do
    let now = mono () in
    if !sent < n then begin
      let k = ref !sent in
      while !k < n && t0 +. due.(!k) <= now do
        let cn = conns.(!k mod nconns) and d = t0 +. due.(!k) in
        cn.c.Service.Env.send reqs.(!k).Gen.wire;
        Queue.push (reqs.(!k), d) cn.fifo;
        lag := ((mono () -. d) *. 1000.0) :: !lag;
        incr inflight;
        if !inflight > !inflight_max then inflight_max := !inflight;
        incr k
      done;
      sent := !k
    end;
    if !sent >= n && !backlog_end < 0 then begin
      backlog_end := !inflight;
      drain_deadline := mono () +. 60.0
    end;
    if mono () > !drain_deadline then failwith "service: replies did not arrive within 60 s";
    let wake = if !sent < n then t0 +. due.(!sent) else mono () +. 0.05 in
    poller.Service.Env.poll ~conns:(Array.to_list (Array.map (fun cn -> cn.c) conns)) ~listeners:[] wake;
    Array.iter receive conns
  done;
  {
    rate;
    sent = n;
    replies = List.rev !replies;
    lat_ms = !lat;
    lag_ms = !lag;
    backlog_end = max 0 !backlog_end;
    inflight_max = !inflight_max;
    server_cpu_s = cpu_s server -. cpu0;
  }
