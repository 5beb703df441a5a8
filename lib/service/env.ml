(** The service's capability environment — see the interface. *)

type net_err =
  | Refused
  | Denied
  | Not_found
  | Reset
  | Timeout
  | Closed
  | Eof
  | Other of string

exception Net of net_err * string

let net_err_to_string = function
  | Refused -> "connection refused"
  | Denied -> "permission denied"
  | Not_found -> "no such socket"
  | Reset -> "connection reset"
  | Timeout -> "timed out"
  | Closed -> "closed"
  | Eof -> "end of stream"
  | Other s -> s

let () =
  Printexc.register_printer (function
    | Net (err, ctx) ->
        Some (Printf.sprintf "Env.Net(%s, %s)" (net_err_to_string err) ctx)
    | _ -> None)

let fresh_id =
  let counter = Atomic.make 0 in
  fun () -> Atomic.fetch_and_add counter 1

type conn = {
  id : int;
  send : string -> unit;
  recv : float -> int -> string;
  try_recv : int -> string;
  try_send : string -> int;
  close_conn : unit -> unit;
}

type listener = {
  lid : int;
  accept : unit -> conn;
  try_accept : unit -> conn option;
  close_listener : unit -> unit;
}

type poller = {
  poll : conns:conn list -> listeners:listener list -> float -> unit;
  wake : unit -> unit;
  close_poller : unit -> unit;
}

type cond = { wait : unit -> unit; broadcast : unit -> unit }

type mutex = {
  lock : unit -> unit;
  unlock : unit -> unit;
  new_cond : unit -> cond;
}

type thread = { join : unit -> unit }

type t = {
  now : unit -> float;
  mono : unit -> float;
  sleep : float -> unit;
  rand_int : int -> int;
  pid : int;
  spawn : string -> (unit -> unit) -> thread;
  spawn_compute : string -> (unit -> unit) -> thread;
  mutex : unit -> mutex;
  listen : string -> listener;
  connect : string -> conn;
  poller : unit -> poller;
  file_exists : string -> bool;
  mkdir : string -> unit;
  readdir : string -> string array;
  file_size : string -> int;
  read_file : string -> string;
  write_file : string -> string -> unit;
  rename : string -> string -> unit;
  remove : string -> unit;
}

(* ------------------------------------------------------------------ *)
(* Real implementation                                                 *)
(* ------------------------------------------------------------------ *)

let net_of_unix = function
  | Unix.ECONNREFUSED -> Refused
  | Unix.EACCES -> Denied
  | Unix.ENOENT -> Not_found
  | Unix.ECONNRESET | Unix.EPIPE -> Reset
  | e -> Other (Unix.error_message e)

(* This toolchain has no [Unix.clock_gettime], so the monotonic clock
   is the wall clock clamped to never decrease — coarse, but it
   guarantees deadlines computed against it survive a backwards NTP
   step, which is all the broker needs. *)
let real_mono =
  let last = Atomic.make 0. in
  fun () ->
    let t = Unix.gettimeofday () in
    let rec bump () =
      let l = Atomic.get last in
      if t > l then if Atomic.compare_and_set last l t then t else bump ()
      else l
    in
    bump ()

let real_rand =
  let m = Mutex.create () in
  let st = lazy (Random.State.make_self_init ()) in
  fun bound ->
    Mutex.lock m;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock m)
      (fun () -> Random.State.int (Lazy.force st) bound)

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* The poller finds descriptors by conn/listener id through this
   registry. *)
let fd_registry : (int, Unix.file_descr) Hashtbl.t = Hashtbl.create 64
let fd_registry_mx = Mutex.create ()

let register_fd id fd =
  Mutex.lock fd_registry_mx;
  Hashtbl.replace fd_registry id fd;
  Mutex.unlock fd_registry_mx

let unregister_fd id =
  Mutex.lock fd_registry_mx;
  Hashtbl.remove fd_registry id;
  Mutex.unlock fd_registry_mx

let find_fd id =
  Mutex.lock fd_registry_mx;
  let r = Hashtbl.find_opt fd_registry id in
  Mutex.unlock fd_registry_mx;
  r

(* A write to a socket whose peer has gone raises SIGPIPE, whose default
   action kills the process before [EPIPE] can surface as [Reset]. *)
let sigpipe_ignored = Atomic.make false

let ignore_sigpipe () =
  if not (Atomic.exchange sigpipe_ignored true) then
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore

(* A byte-stream over a connected descriptor, read straight from the
   kernel.  [recv] honors an absolute deadline on [real_mono] via
   [select]. *)
let real_conn fd =
  ignore_sigpipe ();
  let chunk = Bytes.create 65536 in
  let closed = ref false in
  let id = fresh_id () in
  let check_open what =
    if !closed then raise (Net (Closed, what ^ " on closed connection"))
  in
  (* What [fd] has, once it is readable within [timeout] seconds ([-1.]:
     no limit); [""] if it is not. *)
  let read_within timeout n =
    match Unix.select [ fd ] [] [] timeout with
    | [], _, _ -> ""
    | _ -> (
        match Unix.read fd chunk 0 (min n (Bytes.length chunk)) with
        | 0 -> raise (Net (Eof, "recv"))
        | k -> Bytes.sub_string chunk 0 k)
  in
  let rec recv deadline n =
    check_open "recv";
    let remaining =
      if deadline = Float.infinity then -1.0
      else
        let r = deadline -. real_mono () in
        if r <= 0. then raise (Net (Timeout, "recv deadline expired")) else r
    in
    match read_within remaining n with
    | "" -> raise (Net (Timeout, "recv deadline expired"))
    | s -> s
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> recv deadline n
    | exception Unix.Unix_error (e, _, _) -> raise (Net (net_of_unix e, "recv"))
  in
  let try_recv n =
    check_open "recv";
    match read_within 0.0 n with
    | s -> s
    | exception
        Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        ""
    | exception Unix.Unix_error (e, _, _) -> raise (Net (net_of_unix e, "recv"))
  in
  let send s =
    check_open "send";
    let len = String.length s in
    let rec push off =
      if off < len then
        match Unix.write_substring fd s off (len - off) with
        | n -> push (off + n)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> push off
        | exception Unix.Unix_error (e, _, _) ->
            raise (Net (net_of_unix e, "send"))
    in
    push 0
  in
  let try_send s =
    check_open "send";
    let len = String.length s in
    if len = 0 then 0
    else
      match Unix.select [] [ fd ] [] 0.0 with
      | _, [], _ -> 0
      | _ -> (
          match Unix.write_substring fd s 0 len with
          | n -> n
          | exception
              Unix.Unix_error
                ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
              0
          | exception Unix.Unix_error (e, _, _) ->
              raise (Net (net_of_unix e, "send")))
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> 0
  in
  let close_conn () =
    if not !closed then begin
      closed := true;
      unregister_fd id;
      close_quiet fd
    end
  in
  register_fd id fd;
  { id; send; recv; try_recv; try_send; close_conn }

let real_connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX sock)
   with Unix.Unix_error (e, _, _) ->
     close_quiet fd;
     raise (Net (net_of_unix e, "connect " ^ sock)));
  real_conn fd

let real_listen sock =
  let fd =
    try
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try
         Unix.bind fd (Unix.ADDR_UNIX sock);
         Unix.listen fd 64
       with e ->
         close_quiet fd;
         raise e);
      fd
    with Unix.Unix_error (e, _, _) ->
      raise (Net (net_of_unix e, "listen " ^ sock))
  in
  let closed = ref false in
  let lid = fresh_id () in
  let rec accept () =
    if !closed then raise (Net (Closed, "accept on closed listener"));
    match Unix.accept fd with
    | cfd, _ -> real_conn cfd
    | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
        accept ()
    | exception Unix.Unix_error (e, _, _) ->
        if !closed then raise (Net (Closed, "accept on closed listener"))
        else raise (Net (net_of_unix e, "accept"))
  in
  let try_accept () =
    if !closed then raise (Net (Closed, "accept on closed listener"));
    Unix.set_nonblock fd;
    Fun.protect
      ~finally:(fun () ->
        try Unix.clear_nonblock fd with Unix.Unix_error _ -> ())
      (fun () ->
        match Unix.accept fd with
        | cfd, _ -> Some (real_conn cfd)
        | exception
            Unix.Unix_error
              ( (Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED),
                _,
                _ ) ->
            None
        | exception Unix.Unix_error (e, _, _) ->
            if !closed then raise (Net (Closed, "accept on closed listener"))
            else raise (Net (net_of_unix e, "accept")))
  in
  let close_listener () =
    if not !closed then begin
      closed := true;
      unregister_fd lid;
      close_quiet fd
    end
  in
  register_fd lid fd;
  { lid; accept; try_accept; close_listener }

(* Readiness via [select] over the registered descriptors, plus a
   self-pipe so a dispatcher thread can interrupt a sleeping loop. *)
let real_poller () =
  let rfd, wfd = Unix.pipe () in
  Unix.set_nonblock rfd;
  Unix.set_nonblock wfd;
  let closed = ref false in
  let scratch = Bytes.create 256 in
  let drain () =
    let rec go () =
      match Unix.read rfd scratch 0 (Bytes.length scratch) with
      | 0 -> ()
      | _ -> go ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error _ -> ()
    in
    go ()
  in
  let poll ~conns ~listeners deadline =
    if !closed then raise (Net (Closed, "poll on closed poller"));
    let fds =
      rfd
      :: (List.filter_map (fun (c : conn) -> find_fd c.id) conns
         @ List.filter_map (fun (l : listener) -> find_fd l.lid) listeners)
    in
    let timeout =
      if deadline = Float.infinity then -1.0
      else Float.max 0. (deadline -. real_mono ())
    in
    match Unix.select fds [] [] timeout with
    | _ -> drain ()
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EBADF), _, _) -> ()
  in
  let wake () =
    try ignore (Unix.write_substring wfd "w" 0 1) with Unix.Unix_error _ -> ()
  in
  let close_poller () =
    if not !closed then begin
      closed := true;
      close_quiet rfd;
      close_quiet wfd
    end
  in
  { poll; wake; close_poller }

let real_mutex () =
  let m = Mutex.create () in
  {
    lock = (fun () -> Mutex.lock m);
    unlock = (fun () -> Mutex.unlock m);
    new_cond =
      (fun () ->
        let c = Condition.create () in
        {
          wait = (fun () -> Condition.wait c m);
          broadcast = (fun () -> Condition.broadcast c);
        });
  }

(* Disk operations raise [Sys_error] on failure, matching the channel
   API the store was written against. *)
let sys_error ctx e =
  raise (Sys_error (Printf.sprintf "%s: %s" ctx (Unix.error_message e)))

let real =
  {
    now = Unix.gettimeofday;
    mono = real_mono;
    sleep = Unix.sleepf;
    rand_int = real_rand;
    pid = Unix.getpid ();
    spawn =
      (fun _name f ->
        (* [join] re-raises what escaped [f], as [Domain.join] does. *)
        let escaped = ref None in
        let th =
          Thread.create (fun () -> try f () with e -> escaped := Some e) ()
        in
        {
          join =
            (fun () ->
              Thread.join th;
              Option.iter raise !escaped);
        });
    spawn_compute =
      (fun _name f ->
        let d = Domain.spawn f in
        { join = (fun () -> Domain.join d) });
    mutex = real_mutex;
    listen = real_listen;
    connect = real_connect;
    poller = (fun () -> real_poller ());
    file_exists = Sys.file_exists;
    mkdir =
      (fun path ->
        try Unix.mkdir path 0o755 with
        | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
        | Unix.Unix_error (e, _, _) -> sys_error ("mkdir " ^ path) e);
    readdir =
      (fun path ->
        let names = Sys.readdir path in
        Array.sort compare names;
        names);
    file_size =
      (fun path ->
        try (Unix.stat path).Unix.st_size
        with Unix.Unix_error (e, _, _) -> sys_error ("stat " ^ path) e);
    read_file =
      (fun path -> In_channel.with_open_bin path In_channel.input_all);
    write_file =
      (fun path content ->
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc content));
    rename = Sys.rename;
    remove = Sys.remove;
  }

(* A socket path that already exists is either a live server or the
   debris of a crashed one.  Probe it: a connection means live — refuse
   to start; refused / denied / vanished means stale — remove the
   debris and proceed.  [Denied] matters: a root-owned stale socket
   answers EACCES, not ECONNREFUSED, and must not abort startup. *)
let claim_socket env ~owner sock =
  if env.file_exists sock then begin
    (match env.connect sock with
    | conn ->
        conn.close_conn ();
        invalid_arg (Printf.sprintf "%s: %s already has a live server" owner sock)
    | exception Net ((Refused | Denied | Not_found), _) -> ());
    try env.remove sock with Sys_error _ -> ()
  end
