(* Spans recorded by the benchmark around its calls into each layer.
   They stay in memory while the benchmark runs and are written out
   once, at exit, as Chrome trace-event JSON. *)

type span = {
  sid : int;
  name : string;
  id : string;  (** program or request the span belongs to *)
  parent : int;  (** [sid] of the enclosing span, -1 at the root *)
  start : float;
  stop : float;
}

let enabled = ref false
let spans : span list ref = ref []
let stack : int list ref = ref []
let next = ref 0

let push ~id name start stop parent =
  spans := { sid = !next; name; id; parent; start; stop } :: !spans;
  incr next

let parent () = match !stack with p :: _ -> p | [] -> -1

let with_span ?(id = "") name f =
  if not !enabled then f ()
  else begin
    let sid = !next and parent = parent () in
    incr next;
    stack := sid :: !stack;
    let start = Unix.gettimeofday () in
    let finish () =
      stack := List.tl !stack;
      spans := { sid; name; id; parent; start; stop = Unix.gettimeofday () } :: !spans
    in
    Fun.protect ~finally:finish f
  end

(* A span measured elsewhere (a request's due time to its reply). *)
let record ?(id = "") name start stop = if !enabled then push ~id name start stop (parent ())

let duration s = s.stop -. s.start

(* Share of the wall time from [since] to [until] that the leaf spans
   recorded in it account for; whatever the benchmark does there outside
   any span (bookkeeping, hashing, the allocator) makes up the rest. *)
let coverage ~since ~until =
  let has_child = Hashtbl.create 1024 in
  List.iter (fun s -> if s.parent >= 0 then Hashtbl.replace has_child s.parent ()) !spans;
  let leaves =
    List.fold_left
      (fun acc s ->
        if s.start >= since && s.stop <= until && not (Hashtbl.mem has_child s.sid) then acc +. duration s else acc)
      0.0 !spans
  in
  if until > since then leaves /. (until -. since) else 0.0

let write path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"sid\":%d,\"parent\":%d,\"id\":%S}}"
        (if i = 0 then "" else ",")
        s.name (s.start *. 1e6) (duration s *. 1e6) s.sid s.parent s.id)
    (List.rev !spans);
  output_string oc "\n]}\n"
