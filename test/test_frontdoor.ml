(** The front door: histogram bucket math, the incremental decoder,
    and end-to-end event-loop serving under the whole-system simulator
    — byte-identity against a direct serverless compile, queue
    backpressure with structured retry-after, deadline unification
    across the admission queue on the monotonic clock (clock.jump
    chaos), malformed numeric headers and retired verbs refused, and
    garbage-frame hardening. *)

open Helpers
module F = Dbds.Faults
module Sim = Simtest.Sched
module Simio = Simtest.Simio
module Env = Service.Env
module SB = Service.Broker
module SS = Service.Store
module SC = Service.Client
module SD = Service.Digest
module SP = Service.Protocol
module FD = Service.Frontdoor

let config = Dbds.Config.default

let trio =
  {|
  int f(int x) { int a; if (x > 0) { a = x; } else { a = 1; } return a * 2; }
  int g(int x) { int b; if (x > 3) { b = x + 1; } else { b = 2; } return b + b; }
  int main(int x) { return f(x) + g(x); }
|}

let fn_ir fn =
  let prog = compile trio in
  Ir.Printer.graph_to_string (Option.get (Ir.Program.find_function prog fn))

let main_ir () = fn_ir "main"

(* ------------------------------------------------------------------ *)
(* Histogram                                                           *)
(* ------------------------------------------------------------------ *)

let test_hist_buckets () =
  Alcotest.(check int) "sub-ms is bucket 0" 0 (FD.Hist.bucket_of_ms 0.4);
  Alcotest.(check int) "1ms starts bucket 1" 1 (FD.Hist.bucket_of_ms 1.0);
  Alcotest.(check int) "1.9ms stays bucket 1" 1 (FD.Hist.bucket_of_ms 1.9);
  Alcotest.(check int) "2ms starts bucket 2" 2 (FD.Hist.bucket_of_ms 2.0);
  Alcotest.(check int) "3ms in [2,4)" 2 (FD.Hist.bucket_of_ms 3.0);
  Alcotest.(check int) "1024ms in [1024,2048)" 11 (FD.Hist.bucket_of_ms 1024.);
  Alcotest.(check int) "huge latencies clamp to the top" 31
    (FD.Hist.bucket_of_ms 1e18)

let test_hist_quantiles () =
  let h = FD.Hist.create () in
  Alcotest.(check (float 0.)) "empty histogram reads 0" 0. (FD.Hist.quantile h 0.99);
  (* 90 fast (bucket 1: upper 2ms), 10 slow (bucket 7: [64,128)). *)
  for _ = 1 to 90 do
    FD.Hist.add h 1.5
  done;
  for _ = 1 to 10 do
    FD.Hist.add h 100.
  done;
  Alcotest.(check int) "count" 100 (FD.Hist.count h);
  Alcotest.(check (float 0.)) "p50 from the fast bucket" 2. (FD.Hist.quantile h 0.50);
  Alcotest.(check (float 0.)) "p90 still fast" 2. (FD.Hist.quantile h 0.90);
  Alcotest.(check (float 0.)) "p95 lands in the slow bucket" 128.
    (FD.Hist.quantile h 0.95);
  Alcotest.(check (float 0.)) "p99 too" 128. (FD.Hist.quantile h 0.99)

(* ------------------------------------------------------------------ *)
(* The incremental decoder                                            *)
(* ------------------------------------------------------------------ *)

let msg verb fields = { SP.verb; fields }

let test_text_decoder_incremental () =
  let m =
    msg "compile" [ ("fn", "main"); ("ir", "a\nb\nc") ]
  in
  let wire = SP.render m ^ SP.render (msg "ping" []) in
  (* Byte-at-a-time: every strict prefix of the first message is More. *)
  let first_len = String.length (SP.render m) in
  for i = 0 to first_len - 1 do
    match SP.decode (String.sub wire 0 i) with
    | SP.More -> ()
    | SP.Msg _ -> Alcotest.failf "prefix %d parsed early" i
    | SP.Err e -> Alcotest.failf "prefix %d errored: %s" i e
  done;
  (match SP.decode wire with
  | SP.Msg (m', used) ->
      Alcotest.(check bool) "first message" true (m' = m);
      Alcotest.(check int) "consumed exactly the first" first_len used;
      let rest = String.sub wire used (String.length wire - used) in
      (match SP.decode rest with
      | SP.Msg (p, used') ->
          Alcotest.(check string) "second message" "ping" p.SP.verb;
          Alcotest.(check int) "consumed the rest" (String.length rest) used'
      | _ -> Alcotest.fail "second message lost")
  | _ -> Alcotest.fail "pipelined messages not decoded");
  (* Field counts and lengths are decimal digits only. *)
  List.iter
    (fun wire ->
      match SP.decode wire with
      | SP.Err _ -> ()
      | _ -> Alcotest.failf "non-decimal number accepted: %S" wire)
    [
      "dbds/1 ping 0x0\n";
      "dbds/1 ping +3\n";
      "dbds/1 ping -0\n";
      "dbds/1 ping 1_6\n";
      "dbds/1 ping 0b11\n";
      "dbds/1 ping 1\nf 0x3\nabc\n";
      "dbds/1 ping 1\nf +3\nabc\n";
      "dbds/1 ping 1\nf -0\n\n";
      "dbds/1 ping 1\nf 1_6\nabc\n";
      "dbds/1 ping 1\nf 0b11\nabc\n";
    ];
  (* A prefix of the header is More; the first byte that cannot begin
     "dbds/1 " is an Err at once, without waiting for a newline. *)
  List.iter
    (fun wire ->
      match SP.decode wire with
      | SP.More -> ()
      | _ -> Alcotest.failf "header prefix %S not More" wire)
    [ ""; "d"; "dbds/"; "dbds/1"; "dbds/1 " ];
  List.iter
    (fun wire ->
      match SP.decode wire with
      | SP.Err _ -> ()
      | _ -> Alcotest.failf "bad header prefix %S not refused" wire)
    [ "x"; "dbds/2"; "dbds/1\n"; "\xBF\x03\x00"; "DBDS/1 ping 0\n"; " dbds/1" ];
  (* Newline-free garbage behind the prefix is an error past the line
     bound, not unbounded More. *)
  match SP.decode ("dbds/1 " ^ String.make SP.max_line_bytes 'a') with
  | SP.Err _ -> ()
  | _ -> Alcotest.fail "newline-free garbage not bounded"

(* ------------------------------------------------------------------ *)
(* End-to-end under the simulator                                      *)
(* ------------------------------------------------------------------ *)

(* Run [f env] as the client fiber of a simulated frontdoor (and
   optionally assert on the schedule outcome).  [f] must end by
   shutting the server down. *)
let run_sim ?(seed = 11) ?(workers = 2) ?queue_limit ?faults f =
  let out =
    Simtest.Harness.serve_frontdoor ?faults ~store:true ~workers ?queue_limit
      ~seed f
  in
  if not out.Sim.ok then
    Alcotest.failf "simulated schedule not clean: %d hung, crashes: %s"
      (List.length out.Sim.hung)
      (String.concat "; " (List.map snd out.Sim.crashed))

let connect env sock =
  SC.connect ~env ~deadline_s:2.0 ~io_deadline_s:30.0 ~sock ()

(* A raw [Env.conn] to a server that may still be binding its socket
   (the {!SC.connect} retry loop, without the client on top). *)
let rec raw_connect ?(tries = 200) env sock =
  match env.Env.connect sock with
  | conn -> conn
  | exception Env.Net ((Env.Not_found | Env.Refused), _) when tries > 0 ->
      env.Env.sleep 0.01;
      raw_connect ~tries:(tries - 1) env sock

(* Send one message on a raw conn as one chunk, as {!SC} does. *)
let send (conn : Env.conn) m = conn.Env.send (SP.render m)

let shutdown env =
  let c = connect env "/fd" in
  (match SC.shutdown_server c with
  | Ok () -> ()
  | Error e -> Alcotest.failf "shutdown: %s" e);
  SC.close c

let compile_ok c ~ir =
  match SC.compile ~config ~fn:"main" ~ir c with
  | Ok (SB.Done { ir = out; _ }) -> out
  | Ok o -> Alcotest.failf "compile outcome: %s" (SB.outcome_label o)
  | Error e -> Alcotest.failf "compile: %s" e

(* The serverless reference: the lone-graph pipeline the broker runs,
   executed directly on the request IR. *)
let direct_compile ?(fn = "main") ir = Simtest.Harness.reference ~config ~fn ir

(* The event loop serves artifacts byte-identical to a direct compile
   of the same IR, on a first connection and again on a second. *)
let test_end_to_end_matches_direct_compile () =
  let ir = main_ir () in
  let first = ref "" and second = ref "" in
  run_sim (fun env ->
      let c = connect env "/fd" in
      first := compile_ok c ~ir;
      SC.close c;
      let c = connect env "/fd" in
      Alcotest.(check bool) "ping" true (SC.ping c);
      second := compile_ok c ~ir;
      (match SC.stats c with
      | Ok (broker_line, _, _) ->
          Alcotest.(check bool) "broker stats" true
            (String.length broker_line > 0)
      | Error e -> Alcotest.failf "stats: %s" e);
      SC.close c;
      shutdown env);
  Alcotest.(check bool) "frontdoor produced IR" true (!first <> "");
  Alcotest.(check string) "a second connection gets the same bytes" !first
    !second;
  Alcotest.(check string) "byte-identical to a direct compile"
    (direct_compile ir) !first

(* A wire config the front door cannot honour exactly is rejected, not
   compiled as the mode's default pipeline. *)
let test_malformed_config_rejected () =
  let ir = main_ir () in
  run_sim (fun env ->
      let c = connect env "/fd" in
      check_malformed_compiles_rejected ~ir ~roundtrip:(SC.roundtrip c);
      SC.close c;
      shutdown env)

(* Numeric header fields take decimal digits only, like field counts
   and lengths.  A compile whose [deadline-ms] or [delay-ms] is present
   but malformed is refused with a reply naming the field — never run
   without its deadline — and a malformed [retry-after-ms] reads as no
   hint. *)
let test_malformed_numeric_headers_refused () =
  let ir = main_ir () in
  let bad = [ "0x10"; "-5"; "+3"; "1_000"; ""; "12a"; "1234567890" ] in
  let shed v =
    { SP.verb = "reply"; fields = [ ("status", "shed"); ("retry-after-ms", v) ] }
  in
  Alcotest.(check (option int)) "a decimal hint reads" (Some 250)
    (SP.retry_after_of_reply (shed "250"));
  List.iter
    (fun v ->
      Alcotest.(check (option int))
        (Printf.sprintf "retry-after-ms %S is no hint" v)
        None
        (SP.retry_after_of_reply (shed v)))
    bad;
  let names_field msg field =
    let n = String.length field in
    let rec at i =
      i + n <= String.length msg && (String.sub msg i n = field || at (i + 1))
    in
    at 0
  in
  run_sim (fun env ->
      let c = connect env "/fd" in
      let base = SC.compile_msg ~config ~fn:"main" ~ir () in
      let with_fields fs = { base with SP.fields = base.SP.fields @ fs } in
      List.iter
        (fun field ->
          List.iter
            (fun v ->
              match SC.roundtrip c (with_fields [ (field, v) ]) with
              | Ok r ->
                  Alcotest.(check (option string))
                    (Printf.sprintf "%s %S is rejected" field v)
                    (Some "rejected") (SP.field r "status");
                  Alcotest.(check bool)
                    (Printf.sprintf "the rejection names %s" field)
                    true
                    (names_field (SP.field_or r "message" "") field)
              | Error e -> Alcotest.failf "%s %S: %s" field v e)
            bad)
        [ "deadline-ms"; "delay-ms" ];
      (match
         SC.roundtrip c
           (with_fields [ ("deadline-ms", "60000"); ("delay-ms", "0") ])
       with
      | Ok r ->
          Alcotest.(check (option string)) "well-formed headers compile"
            (Some "done") (SP.field r "status")
      | Error e -> Alcotest.failf "well-formed compile: %s" e);
      SC.close c;
      shutdown env)

(* A compile's [context] is outside input: one that does not parse is
   refused with a reply naming the field, never compiled without its
   class layouts, and the connection keeps serving. *)
let test_malformed_context_refused () =
  let ir = main_ir () in
  let bad =
    [
      "class A x";
      "class A: x\nclass A: y";
      "class A: x,,y";
      "class A: x,";
      "class : x";
      "globals: g\nglobals: h";
      "globals: a,,b";
      "klass A: x";
      "class A: x\n";
    ]
  in
  run_sim (fun env ->
      let c = connect env "/fd" in
      List.iter
        (fun context ->
          match SC.compile ~context ~config ~fn:"main" ~ir c with
          | Ok (SB.Rejected msg) ->
              Alcotest.(check bool)
                (Printf.sprintf "context %S refused by name (%S)" context msg)
                true
                (String.starts_with ~prefix:"context: " msg)
          | Ok o ->
              Alcotest.failf "context %S: %s" context (SB.outcome_label o)
          | Error e -> Alcotest.failf "context %S: %s" context e)
        bad;
      (match SC.compile ~context:"class A: x\nglobals: g" ~config ~fn:"main" ~ir c with
      | Ok (SB.Done _) -> ()
      | Ok o -> Alcotest.failf "well-formed context: %s" (SB.outcome_label o)
      | Error e -> Alcotest.failf "well-formed context: %s" e);
      (match SC.stats c with
      | Ok (broker_line, _, _) ->
          Alcotest.(check bool)
            (Printf.sprintf "only the well-formed request compiled (%s)"
               broker_line)
            true
            (contains ~sub:" compiles=1 " broker_line)
      | Error e -> Alcotest.failf "stats: %s" e);
      SC.close c;
      shutdown env)

(* Retired verbs get the structured rejection every unknown verb gets,
   and the connection keeps serving. *)
let check_unknown_verbs msgs =
  run_sim (fun env ->
      let c = connect env "/fd" in
      List.iter
        (fun (m : SP.message) ->
          match SC.roundtrip c m with
          | Ok r ->
              Alcotest.(check (option string))
                (m.SP.verb ^ " rejected") (Some "rejected")
                (SP.field r "status");
              Alcotest.(check (option string))
                (m.SP.verb ^ " as an unknown verb")
                (Some ("unknown verb: " ^ m.SP.verb))
                (SP.field r "message");
              Alcotest.(check bool) "the connection still serves" true
                (SC.ping c)
          | Error e -> Alcotest.failf "%s: %s" m.SP.verb e)
        msgs;
      SC.close c;
      shutdown env)

let test_hello_is_unknown_verb () =
  check_unknown_verbs
    [ { SP.verb = "hello"; fields = [ ("tenant", "alice") ] } ]

(* The fleet's peer-exchange and rebalance verbs and the digest-keyed
   [lookup], each well-formed as it once was. *)
let test_fleet_verbs_are_unknown () =
  let ir = main_ir () in
  let digest = SD.of_request (SD.request_of_text ~config ~fn:"main" ir) in
  check_unknown_verbs
    [
      { SP.verb = "fetch"; fields = [ ("digest", digest) ] };
      {
        SP.verb = "push";
        fields =
          [ ("digest", digest); ("fn", "main"); ("ir", ir); ("work", "7") ];
      };
      { SP.verb = "rebalance"; fields = [ ("epoch", "1"); ("nodes", "") ] };
      { SP.verb = "lookup"; fields = [ ("digest", digest) ] };
    ]

(* Queue backpressure: with one dispatcher busy and the queue bounded,
   a pipelined burst sheds the overflow with retry-after while every
   admitted request is still answered. *)
let test_queue_shed_under_pipelined_burst () =
  let ir = main_ir () in
  run_sim ~workers:1 ~queue_limit:2
    (fun env ->
      let conn = raw_connect env "/fd" and rd = SP.reader () in
      let m =
        SC.compile_msg ~delay_ms:200 ~config ~fn:"main" ~ir ()
      in
      (* Three requests land before the dispatcher can drain: the
         first two are admitted (slots: dispatcher + queue), the
         overflow is shed immediately. *)
      send conn m;
      send conn m;
      send conn m;
      let deadline = env.Env.mono () +. 30.0 in
      let read () =
        match SP.receive ~deadline rd conn with
        | Ok r -> r
        | Error e -> Alcotest.failf "reply: %s" e
      in
      let replies = [ read (); read (); read () ] in
      let statuses =
        List.filter_map (fun r -> SP.field r "status") replies
      in
      let shed = List.filter (( = ) "shed") statuses in
      let done_ = List.filter (fun s -> s = "done" || s = "done-cache") statuses in
      Alcotest.(check int) "one overflow shed" 1 (List.length shed);
      Alcotest.(check int) "both admitted requests answered" 2
        (List.length done_);
      Alcotest.(check bool) "shed reply carries retry-after" true
        (List.exists
           (fun r ->
             SP.field r "status" = Some "shed"
             && SP.retry_after_of_reply r <> None)
           replies);
      conn.Env.close_conn ();
      shutdown env)

(* Deadline unification on the monotonic clock: time spent waiting in
   the admission queue counts against --deadline-ms (the request behind a
   slow one times out)... *)
let test_deadline_counts_queue_wait () =
  let ir = main_ir () in
  run_sim ~workers:1
    (fun env ->
      let conn = raw_connect env "/fd" and rd = SP.reader () in
      let slow = SC.compile_msg ~delay_ms:3000 ~config ~fn:"main" ~ir () in
      let hurried =
        SC.compile_msg ~deadline_ms:1000 ~config ~fn:"main" ~ir ()
      in
      send conn slow;
      send conn hurried;
      let deadline = env.Env.mono () +. 30.0 in
      let read () =
        match SP.receive ~deadline rd conn with
        | Ok r -> Option.value (SP.field r "status") ~default:"?"
        | Error e -> Alcotest.failf "reply: %s" e
      in
      let statuses = List.sort compare [ read (); read () ] in
      Alcotest.(check (list string))
        "queue wait expires the hurried request" [ "done"; "timed-out" ]
        statuses;
      conn.Env.close_conn ();
      shutdown env)

(* ... and a wall-clock jump (NTP step) mid-run neither expires nor
   immortalizes a deadline — the regression test for clock.jump chaos
   against the frontdoor's admission deadlines. *)
let test_clock_jump_does_not_expire_deadlines () =
  let ir = main_ir () in
  run_sim
    ~faults:[ { F.seed = 0; site = F.Clock_jump; hit = 1; fn = None } ]
    (fun env ->
      let c = connect env "/fd" in
      (* Spans the +1h wall step at virtual second 1: on a wall-clock
         deadline this would expire instantly; on mono it completes. *)
      match
        SC.compile ~deadline_ms:8000 ~delay_ms:2500 ~config ~fn:"main" ~ir c
      with
      | Ok (SB.Done _) ->
          SC.close c;
          shutdown env
      | Ok o -> Alcotest.failf "clock jump: %s" (SB.outcome_label o)
      | Error e -> Alcotest.failf "clock jump: %s" e)

(* Garbage hardening at the event loop: junk bytes get a structured
   protocol-error reply and a connection close — and the server keeps
   serving fresh connections afterwards. *)
let test_garbage_gets_structured_error () =
  run_sim (fun env ->
      (* Text garbage. *)
      let conn = raw_connect env "/fd" and rd = SP.reader () in
      conn.Env.send "total garbage\n";
      let deadline = env.Env.mono () +. 10.0 in
      (match SP.receive ~deadline rd conn with
      | Ok r ->
          Alcotest.(check (option string)) "structured rejection"
            (Some "rejected") (SP.field r "status");
          Alcotest.(check bool) "names the protocol error" true
            (match SP.field r "message" with
            | Some m ->
                String.length m >= 14 && String.sub m 0 14 = "protocol error"
            | None -> false)
      | Error e -> Alcotest.failf "garbage reply: %s" e);
      (* The server hangs up after answering. *)
      (match SP.receive ~deadline rd conn with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "connection survived a desynchronized stream");
      conn.Env.close_conn ();
      (* A half-open client (partial message, then close) is culled
         silently without wedging the loop. *)
      let half = raw_connect env "/fd" in
      half.Env.send "dbds/1 compile 2\nfn 4\nmai";
      half.Env.close_conn ();
      (* Fresh connections still served. *)
      let c = connect env "/fd" in
      Alcotest.(check bool) "server still alive" true (SC.ping c);
      SC.close c;
      shutdown env)

(* Replies leave in request order.  Two compiles pipelined on one
   connection, the first stretched by delay-ms: the second finishes
   first on the other dispatcher, yet the first reply must still carry
   the first request's IR. *)
let test_replies_in_request_order () =
  let main = main_ir () and f = fn_ir "f" in
  run_sim (fun env ->
      let conn = raw_connect env "/fd" and rd = SP.reader () in
      send conn
        (SC.compile_msg ~delay_ms:300 ~config ~fn:"main" ~ir:main ());
      send conn (SC.compile_msg ~config ~fn:"f" ~ir:f ());
      let deadline = env.Env.mono () +. 30.0 in
      let read () =
        match SP.receive ~deadline rd conn with
        | Ok r -> SP.field r "ir"
        | Error e -> Alcotest.failf "reply: %s" e
      in
      let first = read () in
      let second = read () in
      Alcotest.(check (option string)) "the first reply answers main"
        (Some (direct_compile main)) first;
      Alcotest.(check (option string)) "the second reply answers f"
        (Some (direct_compile ~fn:"f" f)) second;
      conn.Env.close_conn ();
      shutdown env)

(* The counters a request moves: the broker's from the stats reply's
   [counts] line, the front door's from its [frontdoor] line (prefixed
   [fd.]). *)
let counters c =
  match SC.roundtrip c { SP.verb = "stats"; fields = [] } with
  | Error e -> Alcotest.failf "stats: %s" e
  | Ok r ->
      let pairs prefix line =
        List.filter_map
          (fun kv ->
            match String.index_opt kv '=' with
            | Some i ->
                Option.map
                  (fun v -> (prefix ^ String.sub kv 0 i, v))
                  (int_of_string_opt
                     (String.sub kv (i + 1) (String.length kv - i - 1)))
            | None -> None)
          (String.split_on_char ' ' line)
      in
      pairs "" (SP.field_or r "counts" "")
      @ pairs "fd." (SP.field_or r "frontdoor" "")

let moved ~before ~after =
  List.map
    (fun k -> (k, List.assoc k after - List.assoc k before))
    [ "requests"; "cache_hits"; "fd.admitted"; "fd.completed" ]

(* A warm hit is answered on the event loop: with the only dispatcher
   held by a five-second compile it still comes back at once — and it
   moves the broker and front-door counters exactly as a hit
   that goes through a dispatcher does (a copy of the same text with a
   trailing newline misses the digest memo, so it is dispatched, and
   then hits the store's memo). *)
let test_warm_hit_on_loop_accounts_like_dispatch () =
  let ir = main_ir () in
  run_sim ~workers:1
    (fun env ->
      let c = connect env "/fd" in
      ignore (compile_ok c ~ir);
      let hit ir =
        match SC.compile ~config ~fn:"main" ~ir c with
        | Ok (SB.Done { from_cache = true; _ }) -> ()
        | Ok o -> Alcotest.failf "warm request: %s" (SB.outcome_label o)
        | Error e -> Alcotest.failf "warm request: %s" e
      in
      (* The first hit reads the artifact back from disk; from then on
         the store's memo holds it. *)
      hit ir;
      let slow = raw_connect env "/fd" and slow_rd = SP.reader () in
      send slow
        (SC.compile_msg ~delay_ms:5000 ~config ~fn:"f" ~ir:(fn_ir "f") ());
      env.Env.sleep 0.1;
      let before = counters c in
      let t0 = env.Env.mono () in
      hit ir;
      Alcotest.(check bool) "answered while the dispatcher is busy" true
        (env.Env.mono () -. t0 < 1.0);
      let on_loop = moved ~before ~after:(counters c) in
      (match SP.receive ~deadline:(env.Env.mono () +. 30.0) slow_rd slow with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "slow compile: %s" e);
      let before = counters c in
      hit (ir ^ "\n");
      let dispatched = moved ~before ~after:(counters c) in
      Alcotest.(check (list (pair string int)))
        "a dispatched hit moves the same counters" dispatched on_loop;
      Alcotest.(check (list (pair string int)))
        "each by one"
        (List.map (fun (k, _) -> (k, 1)) on_loop)
        on_loop;
      slow.Env.close_conn ();
      SC.close c;
      shutdown env)

(* A client that hangs up before its reply must not take a real server
   down: the reply's write meets a closed socket, and the real
   environment turns that into a [Reset] on the connection instead of a
   fatal SIGPIPE.  A fresh connection is still answered afterwards. *)
let test_abandoned_request_real_env () =
  let dir = Filename.temp_dir "dbds-test-fd" "" in
  let sock = Filename.concat dir "fd.sock" in
  let broker = SB.create ~workers:1 ~store:None () in
  let srv = Thread.create (fun () -> FD.serve ~sock ~broker ()) () in
  Fun.protect
    ~finally:(fun () ->
      Thread.join srv;
      Sys.rmdir dir)
    (fun () ->
      let conn = raw_connect Env.real sock in
      send conn
        (SC.compile_msg ~delay_ms:300 ~config ~fn:"main" ~ir:(main_ir ()) ());
      conn.Env.close_conn ();
      (* Past the compile's delay: the reply has met the closed socket. *)
      Unix.sleepf 0.6;
      let c = SC.connect ~deadline_s:5.0 ~io_deadline_s:10.0 ~sock () in
      Alcotest.(check bool) "a fresh connection is answered" true (SC.ping c);
      ignore (SC.shutdown_server c);
      SC.close c)

(* ------------------------------------------------------------------ *)
(* Harness integration                                                 *)
(* ------------------------------------------------------------------ *)

module H = Simtest.Harness

(* Front-door runs are deterministic — same seed, same trace — and a
   rendered bundle replays the same schedule. *)
let test_harness_frontdoor_deterministic () =
  let spec = H.builder ~seed:77 () in
  let a = H.run spec in
  let b = H.run spec in
  Alcotest.(check string) "same trace hash" a.H.r_trace_hash b.H.r_trace_hash;
  Alcotest.(check bool) "same outcomes" true (a.H.r_outcomes = b.H.r_outcomes);
  let replayed = H.run (H.parse_bundle (H.render_bundle a)) in
  Alcotest.(check string) "the bundle replays the schedule" a.H.r_trace_hash
    replayed.H.r_trace_hash

(* A bundle written when the single server had two serving modes
   carries a [frontdoor: true] line.  It still parses, and replays the
   trace hash recorded in it: that mode's schedule is the one every
   run now takes. *)
let test_harness_two_mode_bundle_replays () =
  let bundle =
    String.concat "\n"
      [
        "dbds-sim-bundle: v1";
        "seed: 77";
        "clients: 3";
        "requests-per-client: 4";
        "workers: 2";
        "queue-limit: 16";
        "chaos: 3";
        "vm-warm: false";
        "compile-delay-ms: 20";
        "deadline-ms: none";
        "faults: none";
        "frontdoor: true";
        "trace-hash: e8429d5c2784b2c2";
        "";
      ]
  in
  let r = H.run (H.parse_bundle bundle) in
  Alcotest.(check string) "replays the recorded trace" "e8429d5c2784b2c2"
    r.H.r_trace_hash;
  Alcotest.(check (list string)) "clean" []
    (List.map (fun v -> v.H.vio_kind) r.H.r_violations)

(* Chaos sweep with the frontdoor in front: garbage + slow-loris
   fibers, seeded net/disk/clock faults —
   and still zero invariant violations, every request accounted for. *)
let test_harness_frontdoor_chaos_sweep () =
  let results =
    H.run_seeds ~seeds:3 (H.builder ~seed:500 ())
  in
  List.iter
    (fun (r : H.result) ->
      Alcotest.(check (list string))
        (Printf.sprintf "seed %d clean" r.H.r_spec.H.seed)
        []
        (List.map
           (fun v -> v.H.vio_kind ^ ": " ^ v.H.vio_detail)
           r.H.r_violations);
      Alcotest.(check bool) "every request accounted for" true
        (List.fold_left (fun acc (_, n) -> acc + n) 0 r.H.r_counts
        = r.H.r_spec.H.clients * r.H.r_spec.H.requests_per_client))
    results

(* ---- the overload sweep ------------------------------------------- *)

(* Distinct single-function requests (their own generator seeds, away
   from the sim harness's pool) so neither broker coalescing nor the
   artifact store can flatter the measured capacity, each with the
   offline oracle its served artifact must match byte for byte.  The
   pool sends no context. *)
let sweep_pool =
  lazy
    (List.init 16 (fun p ->
         Workloads.Progen.generate ~n_helpers:3 ~seed:(3000 + p) ())
    |> List.concat_map (fun src ->
           List.map
             (fun (fn, ir) -> (fn, ir, direct_compile ~fn ir))
             (snd (SC.units (Lang.Frontend.compile src))))
    |> Array.of_list)

(* Exact client-observed percentile of [samples]. *)
let percentile q samples =
  match List.sort compare samples with
  | [] -> 0.0
  | l ->
      let arr = Array.of_list l in
      let n = Array.length arr in
      arr.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

type load_point = {
  n_done : int;  (** answered with an artifact *)
  goodput_rps : float;  (** completed artifacts per virtual second *)
  p99_ms : float;  (** client-observed latency of completed requests *)
}

(* One offered load of the sweep: a broker whose compile stretch fixes
   its capacity at 100 rps (2 workers, 20 ms each) behind the front
   door, queue limit 2, and 32 open-loop arrivals at [mult] times that
   capacity, scheduler seed [9000 + idx].  Checks what holds at every
   load: each request is accounted for, each shed carries a retry-after
   hint, each served artifact matches its oracle and the schedule runs
   clean. *)
let load_point idx mult =
  let capacity_rps = 100. and workers = 2 and requests = 32 in
  let offered = mult *. capacity_rps in
  let pool = Lazy.force sweep_pool in
  let latencies = ref [] in
  let n_done = ref 0 and n_shed = ref 0 and n_failed = ref 0 in
  let hints_ok = ref true and identical = ref true in
  let finish_t = ref 0.0 in
  let out =
    Simtest.Harness.serve_frontdoor ~workers ~queue_limit:2
      ~delay_s:(float_of_int workers /. capacity_rps) ~seed:(9000 + idx)
      (fun env ->
        (* Open-loop arrivals: request [j] fires at j/offered seconds
           regardless of how its predecessors fared, so overload does
           not self-throttle. *)
        let fibers =
          List.init requests (fun j ->
              env.Env.spawn (Printf.sprintf "load-%d" j) (fun () ->
                  let at = float_of_int j /. offered in
                  let now = env.Env.mono () in
                  if at > now then env.Env.sleep (at -. now);
                  let fn, ir, expected = pool.(j mod Array.length pool) in
                  match
                    SC.connect ~env ~deadline_s:5.0 ~io_deadline_s:600.
                      ~sock:"/fd" ()
                  with
                  | exception _ -> incr n_failed
                  | c ->
                      let t0 = env.Env.mono () in
                      (match SC.compile_ex ~config ~fn ~ir c with
                      | Ok (SB.Done { ir = got; _ }, _) ->
                          incr n_done;
                          if got <> expected then identical := false;
                          let t1 = env.Env.mono () in
                          if t1 > !finish_t then finish_t := t1;
                          latencies := ((t1 -. t0) *. 1000.) :: !latencies
                      | Ok (SB.Shed, hint) ->
                          incr n_shed;
                          if hint = None then hints_ok := false
                      | Ok _ | Error _ -> incr n_failed);
                      SC.close c))
        in
        List.iter (fun (t : Env.thread) -> t.Env.join ()) fibers;
        match
          SC.connect ~env ~deadline_s:5.0 ~io_deadline_s:60. ~sock:"/fd" ()
        with
        | c ->
            ignore (SC.shutdown_server c);
            SC.close c
        | exception _ -> ())
  in
  Alcotest.(check int)
    (Printf.sprintf "%.1fx: every request accounted for" mult)
    requests
    (!n_done + !n_shed + !n_failed);
  Alcotest.(check bool) "sheds hinted" true !hints_ok;
  Alcotest.(check bool) "artifacts identical" true !identical;
  Alcotest.(check bool) "schedules clean" true out.Sim.ok;
  {
    n_done = !n_done;
    goodput_rps =
      (if !finish_t > 0.0 then float_of_int !n_done /. !finish_t else 0.0);
    p99_ms = percentile 0.99 !latencies;
  }

(* The front door's overload gate, in the simulator's virtual time (so
   deterministic and host-independent): open-loop load at 0.5x, 1x and
   2x of a 100 rps capacity.  At 2x, admission control must keep
   goodput within 80% of the sweep's peak and the p99 of completed
   requests within 3x of uncontended, shedding the surplus instead of
   queueing it into latency. *)
let test_load_sweep_reduced () =
  let uncontended = load_point 0 0.5 in
  let at1x = load_point 1 1.0 in
  let at2x = load_point 2 2.0 in
  let peak =
    List.fold_left
      (fun acc p -> Float.max acc p.goodput_rps)
      0.0 [ uncontended; at1x; at2x ]
  in
  Alcotest.(check bool) "overload still completes work" true (at2x.n_done > 0);
  if at2x.goodput_rps < 0.8 *. peak then
    Alcotest.failf "goodput at 2x load %.1f rps < 80%% of peak %.1f"
      at2x.goodput_rps peak;
  if at2x.p99_ms > 3.0 *. uncontended.p99_ms then
    Alcotest.failf "p99 at 2x load %.1f ms > 3x uncontended %.1f ms"
      at2x.p99_ms uncontended.p99_ms

let suite =
  [
    test "hist: log2 bucket math" test_hist_buckets;
    test "hist: quantiles" test_hist_quantiles;
    test "text decoder is incremental" test_text_decoder_incremental;
    test "frontdoor matches a direct compile"
      test_end_to_end_matches_direct_compile;
    test "malformed wire config rejected" test_malformed_config_rejected;
    test "queue shed under a pipelined burst"
      test_queue_shed_under_pipelined_burst;
    test "deadlines count lane-queue wait" test_deadline_counts_queue_wait;
    test "clock.jump cannot expire a deadline"
      test_clock_jump_does_not_expire_deadlines;
    test "garbage frames get structured errors"
      test_garbage_gets_structured_error;
    test "an abandoned request does not kill a real server"
      test_abandoned_request_real_env;
    test "harness: frontdoor runs are deterministic"
      test_harness_frontdoor_deterministic;
    test "harness: frontdoor chaos sweep stays clean"
      test_harness_frontdoor_chaos_sweep;
    test "harness: a two-mode bundle replays"
      test_harness_two_mode_bundle_replays;
    test "bench: reduced load sweep" test_load_sweep_reduced;
    test "replies leave in request order" test_replies_in_request_order;
    test "warm hit on the loop counts like a dispatched one"
      test_warm_hit_on_loop_accounts_like_dispatch;
    test "malformed numeric headers are refused"
      test_malformed_numeric_headers_refused;
    test "hello is an unknown verb" test_hello_is_unknown_verb;
    test "a malformed context is refused" test_malformed_context_refused;
    test "retired fleet verbs are unknown" test_fleet_verbs_are_unknown;
  ]
