(** The deterministic single-threaded discrete-event scheduler.

    Every logical thread of the simulated system — server accept loop,
    broker workers, clients, the harness controller — is a {e fiber}: a
    cooperative task implemented with OCaml effects.  A fiber runs
    uninterrupted until it suspends (sleep, lock, receive, accept);
    suspension captures its one-shot continuation and parks it until
    some event resumes it.  All progress flows through one event heap
    keyed by [(virtual-time, sequence)], so a run is a pure function of
    the seed and the program — replaying a seed replays the exact
    schedule, byte for byte.

    The scheduler also owns the run's verdict on {e liveness}: when the
    heap drains while fibers are still suspended, nothing can ever wake
    them — that is a hang, reported with the stuck fibers' names.  An
    event-count ceiling catches livelock the same way. *)

open Effect
open Effect.Deep

type _ Effect.t +=
  | Suspend : ((unit -> unit) -> unit) -> unit Effect.t
        (** [Suspend f] parks the current fiber and hands [f] a
            one-shot [resume]: the first call schedules the fiber's
            continuation at the then-current virtual time; later calls
            are ignored (a waiter may be woken by both a broadcast and
            a timeout). *)

type fiber = {
  fid : int;
  fname : string;
  mutable finished : bool;
  mutable fault : Dbds.Faults.armed_state option;
      (** fiber-local fault arming — the simulator's replacement for
          the registry's thread-local state *)
  joiners : (unit -> unit) Queue.t;
}

type event = { at : float; seq : int; desc : string; run : unit -> unit }

(* ---- binary min-heap on (at, seq) ---------------------------------- *)

module Heap = struct
  type t = { mutable arr : event array; mutable len : int }

  let dummy = { at = 0.; seq = 0; desc = ""; run = ignore }
  let create () = { arr = Array.make 256 dummy; len = 0 }
  let before a b = a.at < b.at || (a.at = b.at && a.seq < b.seq)

  let push h e =
    if h.len = Array.length h.arr then begin
      let bigger = Array.make (2 * h.len) dummy in
      Array.blit h.arr 0 bigger 0 h.len;
      h.arr <- bigger
    end;
    h.arr.(h.len) <- e;
    h.len <- h.len + 1;
    let i = ref (h.len - 1) in
    while
      !i > 0
      &&
      let p = (!i - 1) / 2 in
      before h.arr.(!i) h.arr.(p)
      &&
      (let tmp = h.arr.(p) in
       h.arr.(p) <- h.arr.(!i);
       h.arr.(!i) <- tmp;
       i := p;
       true)
    do
      ()
    done

  let pop h =
    if h.len = 0 then None
    else begin
      let top = h.arr.(0) in
      h.len <- h.len - 1;
      h.arr.(0) <- h.arr.(h.len);
      h.arr.(h.len) <- dummy;
      let i = ref 0 in
      let continue_ = ref true in
      while !continue_ do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.len && before h.arr.(l) h.arr.(!smallest) then smallest := l;
        if r < h.len && before h.arr.(r) h.arr.(!smallest) then smallest := r;
        if !smallest = !i then continue_ := false
        else begin
          let tmp = h.arr.(!smallest) in
          h.arr.(!smallest) <- h.arr.(!i);
          h.arr.(!i) <- tmp;
          i := !smallest
        end
      done;
      Some top
    end
end

(* ---- the scheduler -------------------------------------------------- *)

type t = {
  mutable vnow : float;  (** virtual time, seconds *)
  mutable seq : int;
  heap : Heap.t;
  mutable current : fiber option;
  mutable next_fid : int;
  mutable fibers : fiber list;  (** every fiber ever spawned *)
  mutable crashes : (string * string) list;  (** fiber, uncaught exn *)
  rand : Random.State.t;
  mutable events_run : int;
  event_limit : int;
  horizon : float;  (** virtual-time ceiling — livelock guard *)
  mutable trace : int64;  (** FNV-1a 64 over the executed schedule *)
}

type outcome = {
  ok : bool;  (** every fiber finished within the limits *)
  hung : string list;  (** fibers still suspended when the heap drained *)
  crashed : (string * string) list;
  events : int;
  vtime : float;
  trace_hash : int64;
  limit_hit : string option;  (** "events" / "horizon" when a guard tripped *)
}

let create ?(event_limit = 1_000_000) ?(horizon = 3600.) ~seed () =
  {
    vnow = 0.;
    seq = 0;
    heap = Heap.create ();
    current = None;
    next_fid = 0;
    fibers = [];
    crashes = [];
    rand = Random.State.make [| 0x51b1e57; seed |];
    events_run = 0;
    event_limit;
    horizon;
    trace = 0xcbf29ce484222325L;
  }

let now t = t.vnow
let rand_int t bound = Random.State.int t.rand (max 1 bound)

let mix_trace t desc at =
  let mix_byte b =
    t.trace <-
      Int64.mul
        (Int64.logxor t.trace (Int64.of_int (b land 0xff)))
        0x100000001b3L
  in
  String.iter (fun c -> mix_byte (Char.code c)) desc;
  let bits = Int64.bits_of_float at in
  for i = 0 to 7 do
    mix_byte (Int64.to_int (Int64.shift_right_logical bits (8 * i)))
  done

let schedule ?(delay = 0.) ~desc t run =
  t.seq <- t.seq + 1;
  Heap.push t.heap
    { at = t.vnow +. Float.max 0. delay; seq = t.seq; desc; run }

(* ---- fibers --------------------------------------------------------- *)

let suspend _t f = perform (Suspend f)

let sleep t d =
  suspend t (fun resume -> schedule ~delay:d ~desc:"timer" t resume)

let finish t fiber err =
  fiber.finished <- true;
  (match err with
  | None -> ()
  | Some e ->
      t.crashes <- (fiber.fname, Printexc.to_string e) :: t.crashes);
  Queue.iter (fun wake -> wake ()) fiber.joiners;
  Queue.clear fiber.joiners

let exec t fiber thunk =
  match_with thunk ()
    {
      retc = (fun () -> finish t fiber None);
      exnc = (fun e -> finish t fiber (Some e));
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Suspend f ->
              Some
                (fun (k : (a, unit) continuation) ->
                  let resumed = ref false in
                  let resume () =
                    if not !resumed then begin
                      resumed := true;
                      schedule ~desc:("wake:" ^ fiber.fname) t (fun () ->
                          let prev = t.current in
                          t.current <- Some fiber;
                          continue k ();
                          t.current <- prev)
                    end
                  in
                  f resume)
          | _ -> None);
    }

let spawn t name thunk =
  let fiber =
    {
      fid = t.next_fid;
      fname = name;
      finished = false;
      fault = None;
      joiners = Queue.create ();
    }
  in
  t.next_fid <- t.next_fid + 1;
  t.fibers <- fiber :: t.fibers;
  schedule ~desc:("spawn:" ^ name) t (fun () ->
      let prev = t.current in
      t.current <- Some fiber;
      exec t fiber thunk;
      t.current <- prev);
  fiber

let join t fiber =
  if not fiber.finished then
    suspend t (fun resume -> Queue.push resume fiber.joiners)

(* ---- cooperative mutex / condition ---------------------------------- *)

(* Fibers only switch at suspension points, but the service holds its
   locks across blocking calls (a store write sleeps on the simulated
   disk mid-critical-section), so these are real queue-based locks, not
   no-ops.  Wakeups schedule the waiter, which re-contends — FIFO and
   deterministic. *)

type smutex = { mutable locked : bool; mwaiters : (unit -> unit) Queue.t }
type scond = { cmutex : smutex; cwaiters : (unit -> unit) Queue.t }

let mutex_create () = { locked = false; mwaiters = Queue.create () }

let rec mutex_lock t m =
  if not m.locked then m.locked <- true
  else begin
    suspend t (fun resume -> Queue.push resume m.mwaiters);
    mutex_lock t m
  end

let mutex_unlock _t m =
  m.locked <- false;
  match Queue.pop m.mwaiters with
  | wake -> wake ()
  | exception Queue.Empty -> ()

let cond_create m = { cmutex = m; cwaiters = Queue.create () }

let cond_wait t c =
  suspend t (fun resume ->
      Queue.push resume c.cwaiters;
      mutex_unlock t c.cmutex);
  mutex_lock t c.cmutex

let cond_broadcast _t c =
  let waiters = Queue.fold (fun acc w -> w :: acc) [] c.cwaiters in
  Queue.clear c.cwaiters;
  List.iter (fun wake -> wake ()) (List.rev waiters)

(* ---- the run loop --------------------------------------------------- *)

let run t main =
  (* Fault arming must be fiber-local, not thread-local: interleaved
     fibers would otherwise save/restore each other's state. *)
  Dbds.Faults.set_state_provider
    ~get:(fun () ->
      match t.current with Some f -> f.fault | None -> None)
    ~set:(fun v ->
      match t.current with Some f -> f.fault <- v | None -> ());
  Fun.protect ~finally:Dbds.Faults.default_state_provider @@ fun () ->
  ignore (spawn t "main" main);
  let limit_hit = ref None in
  let rec drain () =
    if t.events_run >= t.event_limit then limit_hit := Some "events"
    else if t.vnow > t.horizon then limit_hit := Some "horizon"
    else
      match Heap.pop t.heap with
      | None -> ()
      | Some ev ->
          t.vnow <- Float.max t.vnow ev.at;
          t.events_run <- t.events_run + 1;
          mix_trace t ev.desc ev.at;
          ev.run ();
          drain ()
  in
  drain ();
  let hung =
    List.rev_map
      (fun f -> f.fname)
      (List.filter (fun f -> not f.finished) t.fibers)
  in
  {
    ok = hung = [] && t.crashes = [] && !limit_hit = None;
    hung;
    crashed = t.crashes;
    events = t.events_run;
    vtime = t.vnow;
    trace_hash = t.trace;
    limit_hit = !limit_hit;
  }
