(** The compilation service: digest stability, the content-addressed
    artifact store (atomicity, checksum degradation, LRU GC, fault
    containment, the parsed-artifact memo), the request's context, VM
    warm-start hooks, broker coalescing / backpressure / deadlines and
    its warm path, and the wire protocol. *)

open Helpers
module F = Dbds.Faults
module SD = Service.Digest
module SS = Service.Store
module SB = Service.Broker
module SP = Service.Protocol

let ir_hash_of_text text = SD.ir_hash_of_graph (Ir.Parse.parse_graph text)

let figure1 =
  {|
  int main(int x) {
    int phi;
    if (x > 0) { phi = x; } else { phi = 0; }
    return 2 + phi;
  }
|}

let trio =
  {|
  int f(int x) { int a; if (x > 0) { a = x; } else { a = 1; } return a * 2; }
  int g(int x) { int b; if (x > 3) { b = x + 1; } else { b = 2; } return b + b; }
  int main(int x) { return f(x) + g(x); }
|}

let main_of prog = Option.get (Ir.Program.find_function prog "main")
let config = Dbds.Config.default

(* A scratch store directory, removed when [f] finishes. *)
let with_store ?capacity f =
  Harness.Fuzz.with_scratch_dir "dbds-test-service" (fun dir ->
      f (SS.create ?capacity ~dir ()))

let plan ?fn site hit = { F.seed = 0; site; hit; fn }
let armed plan f = F.armed (Some plan) ~fn:"main" f

(* A small canonical artifact payload to publish. *)
let canonical_main src = SD.canonical_of_graph (main_of (compile src))

(* ------------------------------------------------------------------ *)
(* Digest                                                              *)
(* ------------------------------------------------------------------ *)

(* The streaming hash must agree with the print -> parse round-trip:
   both normalize ids the same way. *)
let test_digest_roundtrip () =
  List.iter
    (fun src ->
      let prog = compile src in
      Ir.Program.iter_functions prog (fun g ->
          let direct = SD.ir_hash_of_graph g in
          let through_text = ir_hash_of_text (Ir.Printer.graph_to_string g) in
          Alcotest.(check string)
            (Ir.Graph.name g ^ ": hash survives print/parse")
            direct through_text))
    [ figure1; trio ]

(* Renumber every value and block id injectively in the printed text;
   the hash must not move (ids are representation, not content). *)
let renumber text =
  let buf = Buffer.create (String.length text * 2) in
  let n = String.length text in
  let is_digit c = c >= '0' && c <= '9' in
  let is_word c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || is_digit c || c = '_'
  in
  let i = ref 0 in
  while !i < n do
    let c = text.[!i] in
    if
      (c = 'v' || c = 'b')
      && (!i = 0 || not (is_word text.[!i - 1]))
      && !i + 1 < n
      && is_digit text.[!i + 1]
    then begin
      let j = ref (!i + 1) in
      while !j < n && is_digit text.[!j] do incr j done;
      let id = int_of_string (String.sub text (!i + 1) (!j - !i - 1)) in
      let id' = if c = 'v' then (2 * id) + 5 else (3 * id) + 1 in
      Buffer.add_char buf c;
      Buffer.add_string buf (string_of_int id');
      i := !j
    end
    else begin
      Buffer.add_char buf c;
      incr i
    end
  done;
  Buffer.contents buf

let test_digest_renumbering_invariant () =
  let text = Ir.Printer.graph_to_string (main_of (compile trio)) in
  let renumbered = renumber text in
  Alcotest.(check bool) "renumbering changed the text" true (text <> renumbered);
  Alcotest.(check string) "hash invariant under id renumbering"
    (ir_hash_of_text text)
    (ir_hash_of_text renumbered)

let test_digest_sensitivity () =
  let g = main_of (compile figure1) in
  let rq = SD.request_of_graph ~config g in
  let base = SD.of_request rq in
  let differs what rq' =
    Alcotest.(check bool) (what ^ " changes the digest") true
      (SD.of_request rq' <> base)
  in
  differs "config"
    (SD.request_of_graph
       ~config:{ config with Dbds.Config.passes = Dbds.Config.dupalot.passes }
       g);
  differs "context" (SD.request_of_graph ~context:"other" ~config g);
  differs "cost revision"
    { rq with SD.rq_cost_revision = rq.SD.rq_cost_revision + 1 };
  differs "ir" { rq with SD.rq_ir_hash = SD.fnv64 "something else" };
  (* And the body actually feeds the hash. *)
  let other = main_of (compile trio) in
  Alcotest.(check bool) "different bodies hash differently" true
    (SD.ir_hash_of_graph g <> SD.ir_hash_of_graph other)

(* A key without a pipeline effect must not shape the digest: a
   request carrying an [inject] fault plan (the protocol re-attaches it
   outside the config line) and one without must collide in the cache —
   the fault plan changes what the worker *does*, never what a correct
   artifact *is*.  Guards [Config.to_line]'s exclusion of it. *)
let test_digest_ignores_fault_plan () =
  let g = main_of (compile figure1) in
  let base = SD.of_request (SD.request_of_graph ~config g) in
  let armed =
    {
      config with
      Dbds.Config.fault_plan = Some (plan ~fn:"main" F.Store_corrupt 1);
    }
  in
  Alcotest.(check string) "fault plan: same digest"
    base
    (SD.of_request (SD.request_of_graph ~config:armed g));
  (* The default line is pinned: every cached digest and crash bundle is
     keyed on it, so any change to it must be deliberate. *)
  Alcotest.(check string) "the default wire line"
    "benefit_scale=256 size_budget=1.5 max_unit_size=65536 paranoid=false \
     passes=inline,fix{rounds=8}(fix{rounds=8}(canon,simplify,gvn,condelim,readelim,pea,dce),sccp),dbds{iters=3,paths=1,threshold=20}"
    (Dbds.Config.to_line Dbds.Config.default);
  (* Every key the line renders parses back, [passes=] included, and a
     crash bundle's line in the form written before options were
     checked still replays as today's default. *)
  let custom =
    {
      armed with
      Dbds.Config.passes =
        Result.get_ok (Opt.Spec.of_string "fix(canon,dce),dbds{iters=2,paths=3}");
    }
  in
  let line c = Dbds.Config.to_line c in
  List.iter
    (fun (given, rendered) ->
      match Dbds.Config.of_line given with
      | Ok c ->
          Alcotest.(check string) "and round-trips through the wire line"
            rendered (line c)
      | Error e -> Alcotest.failf "%s does not parse back: %s" given e)
    [
      (line armed, line armed);
      (line custom, line custom);
      ( "benefit_scale=256 size_budget=1.5 max_unit_size=65536 \
         paranoid=false \
         passes=inline,fix(fix(canon,simplify,gvn,condelim,readelim,pea,dce),sccp),dbds{iters=3}",
        line Dbds.Config.default );
    ];
  (* Keys a later version removed are refused, not ignored: the
     request would otherwise get a pipeline it did not ask for. *)
  List.iter
    (fun token ->
      match Dbds.Config.of_line token with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "the removed %s is accepted" token)
    [
      "licm=false";
      "loop_factor=10";
      "iteration_benefit_threshold=20";
      "mode=dbds";
      "max_iterations=3";
      "path_duplication=false";
      "max_path_length=3";
    ];
  (* So is a retired pass: a bundle or a compile request that names it
     is refused, not replayed without it. *)
  let retired = "passes=inline,fix(canon,licm),dbds" in
  List.iter
    (fun (what, parsed) ->
      match parsed with
      | Error e when contains ~sub:"unknown pass \"licm\"" e -> ()
      | Error e -> Alcotest.failf "%s: the refusal %S does not name licm" what e
      | Ok _ -> Alcotest.failf "%s: a pipeline naming licm is accepted" what)
    [
      ("Config.of_line", Dbds.Config.of_line retired);
      ( "a compile request",
        SP.compile_config
          { SP.verb = "compile"; fields = [ ("config", retired) ] } );
    ]

(* The pipeline spec is the one description of what a compile runs:
   the named DBDS configuration, the baseline configuration given the
   DBDS pipeline, a round trip through the wire line, and every
   spelling of the DBDS pipeline — defaults left out or written out,
   options in any order, long pass names, another spelling of a
   number — are one request: one line, one digest, one cache entry. *)
let test_digest_one_pipeline_one_request () =
  let g = main_of (compile figure1) in
  let line c = Dbds.Config.to_line c in
  let digest c = SD.of_request (SD.request_of_graph ~config:c g) in
  let spelled s =
    match Opt.Spec.of_string s with
    | Ok passes -> (s, { Dbds.Config.dbds with Dbds.Config.passes })
    | Error e -> Alcotest.failf "%s: %s" s e
  in
  let group = "(canon,simplify,gvn,condelim,readelim,pea,dce),sccp)" in
  List.iter
    (fun (what, c) ->
      Alcotest.(check string) (what ^ ": one wire line") (line Dbds.Config.dbds)
        (line c);
      Alcotest.(check string) (what ^ ": one digest") (digest Dbds.Config.dbds)
        (digest c))
    ([
       ( "off with the dbds pipeline",
         { Dbds.Config.off with Dbds.Config.passes = Dbds.Config.dbds.passes } );
       ( "the wire round trip",
         Result.get_ok (Dbds.Config.of_line (line Dbds.Config.dbds)) );
     ]
    @ List.map spelled
        [
          "inline,fix(fix" ^ group ^ ",dbds{iters=3}";
          "inline,fix(fix" ^ group ^ ",dbds";
          "inline,fix(fix" ^ group ^ ",dbds{iters=3,paths=1,threshold=20}";
          "inline,fix{rounds=8}(fix{rounds=8}" ^ group ^ ",dbds{iters=3}";
          "inline,fix(fix(canonicalize,simplify-cfg,gvn,condelim,readelim,pea,dce),sccp),dbds";
          "inline,fix(fix" ^ group ^ ",dbds{threshold=2e1}";
        ])

(* The digest keys every artifact already on disk, so its values are
   pinned: a faster hash must be bit-identical, not merely stable.
   Three paper functions as the frontend emits them, plus one graph
   with detached blocks (the hash's unreachable-block tail). *)
let test_digest_pinned () =
  let paper suite bench fn =
    let b = Option.get (Workloads.Suite.find_benchmark suite bench) in
    Option.get (Ir.Program.find_function (Workloads.Suite.compile b) fn)
  in
  let detached =
    let g = Ir.Graph.copy (main_of (compile figure1)) in
    let b1 = Ir.Graph.add_block g in
    let c = Ir.Graph.append g b1 (Ir.Types.Const (-42)) in
    Ir.Graph.set_term g b1 (Ir.Types.Return (Some c));
    let b2 = Ir.Graph.add_block g in
    Ir.Graph.set_term g b2 (Ir.Types.Jump b1);
    g
  in
  List.iter
    (fun (what, g, expected) ->
      Alcotest.(check string) what expected
        (SD.of_request (SD.request_of_graph ~config g)))
    [
      ("dacapo/avrora main", paper Workloads.Dacapo.suite "avrora" "main",
        "286bb8269f938197");
      ("octane/raytrace main", paper Workloads.Octane.suite "raytrace" "main",
        "85aaf9f1bac6c604");
      ("micro/akkaPP main", paper Workloads.Micro.suite "akkaPP" "main",
        "31411406d32266fa");
      ("detached blocks", detached, "a1ba713cdac58e45");
    ]

(* ------------------------------------------------------------------ *)
(* Canonical reply IR                                                  *)
(* ------------------------------------------------------------------ *)

(* The round trip the canonical writer replaces: its oracle. *)
let round_trip g =
  Ir.Printer.graph_to_string (Ir.Parse.parse_graph (Ir.Printer.graph_to_string g))

let check_canonical ?(hash = true) what g =
  let canonical = SD.canonical_of_graph g in
  Alcotest.(check string) what (round_trip g) canonical;
  if hash then
    Alcotest.(check string) (what ^ ": hash of the canonical text")
      (SD.ir_hash_of_graph g) (ir_hash_of_text canonical)

(* Every function of the paper programs, the generated shapes at seeds
   0-19 and progen 0-199 plain and irreducible, as the front end builds
   it and after a dbds compile. *)
let test_canonical_corpora () =
  let paper =
    List.concat_map
      (fun (s : Workloads.Suite.t) ->
        List.map
          (fun b () -> Workloads.Suite.compile b)
          s.Workloads.Suite.benchmarks)
      Workloads.Registry.all
  in
  let generated =
    List.concat_map
      (fun shape ->
        List.init 20 (fun seed () ->
            compile (Workloads.Generated.source shape ~seed)))
      Workloads.Generated.shapes
  in
  let progen irreducible =
    List.init 200 (fun seed () ->
        Workloads.Progen.generate_program ~irreducible ~seed ())
  in
  List.iter
    (fun (corpus, programs) ->
      List.iteri
        (fun i build ->
          let prog = build () in
          let check stage =
            Ir.Program.iter_functions prog (fun g ->
                check_canonical
                  (Printf.sprintf "%s/%d %s %s" corpus i (Ir.Graph.name g) stage)
                  g)
          in
          check "before";
          ignore
            (Dbds.Driver.optimize_program_report ~config:Dbds.Config.dbds
               ~jobs:1 prog);
          check "after dbds")
        programs)
    [
      ("paper", paper);
      ("generated", generated);
      ("progen", progen false);
      ("progen-irr", progen true);
    ]

(* Graphs the corpora rarely or never hold. *)
let test_canonical_hand_built () =
  let module G = Ir.Graph in
  let open Ir.Types in
  (* Blocks no path reaches, one of them holding a phi. *)
  let unreachable =
    let g = G.copy (main_of (compile figure1)) in
    let b1 = G.add_block g in
    let b2 = G.add_block g in
    let c = G.append g b1 (Const (-42)) in
    G.set_term g b1 (Return (Some c));
    G.set_term g b2 (Jump b1);
    let b3 = G.add_block g in
    G.set_term g b3 (Jump b1);
    ignore (G.append g b1 (Phi [| c; c |]));
    g
  in
  check_canonical "unreachable blocks" unreachable;
  (* A branch whose arms were both redirected to one block: the merge
     lists the branch twice, and the parser reads a jump. *)
  let both_arms =
    let g = G.create ~name:"arms" ~n_params:1 () in
    let b0 = G.add_block g and b1 = G.add_block g and b2 = G.add_block g in
    let x = G.append g b0 (Param 0) in
    let one = G.append g b0 (Const 1) in
    G.set_term g b0 (Branch { cond = x; if_true = b1; if_false = b2; prob = 0.3 });
    let two = G.append g b1 (Const 2) in
    G.set_term g b1 (Jump b2);
    let phi = G.append g b2 (Phi [| one; two |]) in
    G.set_term g b2 (Return (Some phi));
    G.redirect_edge g ~from_block:b0 ~old_target:b1 ~new_target:b2;
    G.set_kind g phi (Phi [| one; two; x |]);
    g
  in
  Alcotest.(check (list int)) "the merge lists the branch twice" [ 0; 1; 0 ]
    (G.preds both_arms 2);
  (* The round trip rewrites this graph (a jump for the branch, one
     input for the predecessor listed twice), which the hash of the
     graph as it is does not: compare the text only. *)
  check_canonical ~hash:false "both arms to one block" both_arms;
  (* Predecessors out of print order, as a duplication leaves them: the
     phi's inputs follow the parser's order. *)
  let reordered =
    let g = G.create ~name:"reordered" ~n_params:1 () in
    let b0 = G.add_block g and b1 = G.add_block g and b2 = G.add_block g in
    let b3 = G.add_block g in
    let x = G.append g b0 (Param 0) in
    G.set_term g b0 (Branch { cond = x; if_true = b1; if_false = b2; prob = 0.125 });
    let one = G.append g b1 (Const 1) in
    let two = G.append g b2 (Const 2) in
    G.set_term g b2 (Jump b3);
    G.set_term g b1 (Jump b3);
    let phi = G.append g b3 (Phi [| two; one |]) in
    G.set_term g b3 (Return (Some phi));
    g
  in
  Alcotest.(check (list int)) "predecessors out of print order" [ 2; 1 ]
    (G.preds reordered 3);
  check_canonical "reordered predecessors" reordered;
  Alcotest.(check bool) "inputs permuted" true
    (contains ~sub:"preds: b1, b2\n  v3 = phi [v1, v2]"
       (SD.canonical_of_graph reordered));
  (* One block, no predecessors. *)
  let single =
    let g = G.create ~name:"single" ~n_params:0 () in
    let b0 = G.add_block g in
    G.set_term g b0 (Return (Some (G.append g b0 (Const 7))));
    g
  in
  check_canonical "single block" single;
  Alcotest.(check string) "single block text"
    "fn single(0 params) entry=b0\nb0:\n  v0 = const 7\n  return v0\n"
    (SD.canonical_of_graph single)

(* ------------------------------------------------------------------ *)
(* Store                                                               *)
(* ------------------------------------------------------------------ *)

let test_store_roundtrip () =
  with_store (fun st ->
      let ir = canonical_main figure1 in
      SS.put st ~digest:"d1" ~fn:"main" ~ir ~work:42;
      (match SS.get st ~digest:"d1" with
      | Some e ->
          Alcotest.(check string) "fn" "main" e.SS.ar_fn;
          Alcotest.(check string) "ir" ir e.SS.ar_ir;
          Alcotest.(check int) "work" 42 e.SS.ar_work
      | None -> Alcotest.fail "published artifact not found");
      Alcotest.(check bool) "miss on unknown digest" true
        (SS.get st ~digest:"nope" = None);
      let s = SS.stats st in
      Alcotest.(check int) "one write" 1 s.SS.writes;
      Alcotest.(check int) "one hit" 1 s.SS.hits;
      Alcotest.(check int) "one miss" 1 s.SS.misses)

let test_store_corruption_degrades () =
  with_store (fun st ->
      SS.put st ~digest:"d1" ~fn:"main" ~ir:(canonical_main figure1) ~work:1;
      (* Rot the artifact on disk behind the store's back. *)
      let path = Filename.concat (SS.dir st) "d1.art" in
      let oc = open_out_bin path in
      output_string oc "garbage, not an artifact";
      close_out oc;
      Alcotest.(check bool) "corrupt entry reads as a miss" true
        (SS.get st ~digest:"d1" = None);
      Alcotest.(check int) "corruption counted" 1 (SS.stats st).SS.corrupt;
      Alcotest.(check bool) "corrupt file evicted" false (Sys.file_exists path))

let test_store_work_digits_only () =
  with_store (fun st ->
      SS.put st ~digest:"d1" ~fn:"main" ~ir:(canonical_main figure1) ~work:3;
      (* Re-sign the work header behind the store's back; the checksum
         covers only the IR, so only the header check can refuse it. *)
      let path = Filename.concat (SS.dir st) "d1.art" in
      let ic = open_in_bin path in
      let content = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let resigned =
        String.split_on_char '\n' content
        |> List.map (fun l -> if l = "work: 3" then "work: +3" else l)
        |> String.concat "\n"
      in
      let oc = open_out_bin path in
      output_string oc resigned;
      close_out oc;
      Alcotest.(check bool) "a signed work header reads as a miss" true
        (SS.get st ~digest:"d1" = None))

let test_store_lru_eviction () =
  let ir = canonical_main figure1 in
  (* Room for roughly two artifacts. *)
  with_store ~capacity:((String.length ir + 128) * 2) (fun st ->
      List.iter
        (fun d -> SS.put st ~digest:d ~fn:"main" ~ir ~work:1)
        [ "d1"; "d2"; "d3"; "d4" ];
      let s = SS.stats st in
      Alcotest.(check bool) "evictions happened" true (s.SS.evictions > 0);
      Alcotest.(check bool) "budget holds" true
        (SS.used st <= (String.length ir + 128) * 2);
      Alcotest.(check bool) "most recent entry survives" true
        (SS.get st ~digest:"d4" <> None);
      Alcotest.(check bool) "oldest entry evicted" true
        (SS.get st ~digest:"d1" = None))

(* Every store fault site fires, is contained as a degraded operation,
   and the store recovers on the next attempt. *)
let test_store_fault_sites () =
  let ir = canonical_main figure1 in
  (* Torn temp write: the publication never happens. *)
  with_store (fun st ->
      armed (plan F.Store_write 1) (fun () ->
          SS.put st ~digest:"d1" ~fn:"main" ~ir ~work:1);
      Alcotest.(check int) "write failure counted" 1
        (SS.stats st).SS.write_failures;
      Alcotest.(check bool) "no file published" false
        (Sys.file_exists (Filename.concat (SS.dir st) "d1.art"));
      SS.put st ~digest:"d1" ~fn:"main" ~ir ~work:1;
      Alcotest.(check bool) "store recovers after torn write" true
        (SS.get st ~digest:"d1" <> None));
  (* Torn publish: a truncated file appears under the final name; the
     next read sees the checksum mismatch and degrades to a miss. *)
  with_store (fun st ->
      armed (plan F.Store_rename 1) (fun () ->
          SS.put st ~digest:"d1" ~fn:"main" ~ir ~work:1);
      Alcotest.(check bool) "torn file exists" true
        (Sys.file_exists (Filename.concat (SS.dir st) "d1.art"));
      Alcotest.(check bool) "torn entry reads as a miss" true
        (SS.get st ~digest:"d1" = None);
      Alcotest.(check int) "corruption counted" 1 (SS.stats st).SS.corrupt;
      SS.put st ~digest:"d1" ~fn:"main" ~ir ~work:1;
      Alcotest.(check bool) "store recovers after torn publish" true
        (SS.get st ~digest:"d1" <> None));
  (* Injected read failure: contained, counted, and transient. *)
  with_store (fun st ->
      SS.put st ~digest:"d1" ~fn:"main" ~ir ~work:1;
      armed (plan F.Store_read 1) (fun () ->
          Alcotest.(check bool) "injected read degrades to a miss" true
            (SS.get st ~digest:"d1" = None));
      Alcotest.(check int) "read failure counted" 1
        (SS.stats st).SS.read_failures;
      Alcotest.(check bool) "entry still readable afterwards" true
        (SS.get st ~digest:"d1" <> None))

let test_store_lookup_memo () =
  let ir = canonical_main figure1 in
  with_store (fun st ->
      SS.put st ~digest:"d1" ~fn:"main" ~ir ~work:3;
      let e1 =
        match SS.lookup st ~digest:"d1" with
        | Some e ->
            Alcotest.(check int) "work carried" 3 e.SS.ar_work;
            e
        | None -> Alcotest.fail "first lookup missed"
      in
      (match SS.lookup st ~digest:"d1" with
      | Some e2 ->
          Alcotest.(check bool) "repeat lookups share one entry" true (e1 == e2)
      | None -> Alcotest.fail "second lookup missed");
      (* Republishing drops the memo: the next lookup reads the new file
         back from disk. *)
      SS.put st ~digest:"d1" ~fn:"main" ~ir ~work:5;
      (match SS.lookup st ~digest:"d1" with
      | Some e3 ->
          Alcotest.(check int) "republished entry re-read" 5 e3.SS.ar_work
      | None -> Alcotest.fail "lookup after republish missed");
      (* Checksummed-but-unparsable IR is semantic corruption: evicted. *)
      SS.put st ~digest:"d2" ~fn:"main" ~ir:"fn broken(" ~work:1;
      Alcotest.(check bool) "unparsable artifact degrades to a miss" true
        (SS.lookup st ~digest:"d2" = None);
      Alcotest.(check bool) "unparsable artifact evicted" false
        (Sys.file_exists (Filename.concat (SS.dir st) "d2.art")));
  (* Evicting the entry drops the memo with it.  Room for roughly two
     artifacts: three more publications push the memoized one out. *)
  with_store ~capacity:((String.length ir + 128) * 2) (fun st ->
      SS.put st ~digest:"d1" ~fn:"main" ~ir ~work:1;
      Alcotest.(check bool) "memoized" true (SS.lookup st ~digest:"d1" <> None);
      List.iter
        (fun d -> SS.put st ~digest:d ~fn:"main" ~ir ~work:1)
        [ "d2"; "d3"; "d4" ];
      Alcotest.(check bool) "memo does not outlive the file" true
        (SS.lookup st ~digest:"d1" = None))

(* ------------------------------------------------------------------ *)
(* Broker                                                              *)
(* ------------------------------------------------------------------ *)

let ir_of_fn src fn =
  Ir.Printer.graph_to_string
    (Option.get (Ir.Program.find_function (compile src) fn))

let test_broker_coalescing () =
  let ir = ir_of_fn figure1 "main" in
  let b = SB.create ~workers:2 ~delay_s:0.3 ~store:None () in
  Fun.protect
    ~finally:(fun () -> SB.shutdown b)
    (fun () ->
      let domains =
        List.init 4 (fun _ ->
            Domain.spawn (fun () -> SB.submit ~config ~fn:"main" ~ir b))
      in
      let outcomes = List.map Domain.join domains in
      let irs =
        List.map
          (function
            | SB.Done { ir; from_cache = false; _ } -> ir
            | o -> Alcotest.failf "unexpected outcome %s" (SB.outcome_label o))
          outcomes
      in
      (match irs with
      | first :: rest ->
          List.iter
            (Alcotest.(check string) "coalesced outcomes identical" first)
            rest
      | [] -> assert false);
      let s = SB.stats b in
      Alcotest.(check int) "exactly one pipeline execution" 1 s.SB.compiles;
      Alcotest.(check int) "three requests coalesced" 3 s.SB.coalesced;
      Alcotest.(check int) "four requests" 4 s.SB.requests)

let test_broker_backpressure () =
  let b = SB.create ~workers:1 ~queue_limit:1 ~delay_s:0.6 ~store:None () in
  Fun.protect
    ~finally:(fun () -> SB.shutdown b)
    (fun () ->
      (* Distinct digests so nothing coalesces: the first occupies the
         single worker, the second the single queue slot. *)
      let submit fn src =
        Domain.spawn (fun () -> SB.submit ~config ~fn ~ir:(ir_of_fn src fn) b)
      in
      let d1 = submit "f" trio in
      Unix.sleepf 0.15;
      let d2 = submit "g" trio in
      Unix.sleepf 0.15;
      let third =
        SB.submit ~config ~fn:"main" ~ir:(ir_of_fn figure1 "main") ~delay_s:0. b
      in
      Alcotest.(check string) "third request shed" "shed"
        (SB.outcome_label third);
      Alcotest.(check int) "shed counted" 1 (SB.stats b).SB.shed;
      List.iter
        (fun d ->
          match Domain.join d with
          | SB.Done _ -> ()
          | o -> Alcotest.failf "queued request %s" (SB.outcome_label o))
        [ d1; d2 ])

let test_broker_deadline () =
  let b = SB.create ~workers:1 ~store:None () in
  Fun.protect
    ~finally:(fun () -> SB.shutdown b)
    (fun () ->
      let o =
        SB.submit ~deadline_s:(-0.1) ~config ~fn:"main"
          ~ir:(ir_of_fn figure1 "main") b
      in
      Alcotest.(check string) "expired deadline times out at admission"
        "timed-out" (SB.outcome_label o);
      Alcotest.(check int) "timeout counted" 1 (SB.stats b).SB.timeouts)

let test_broker_bad_request () =
  let b = SB.create ~workers:1 ~store:None () in
  Fun.protect
    ~finally:(fun () -> SB.shutdown b)
    (fun () ->
      match SB.submit ~config ~fn:"main" ~ir:"fn broken(" b with
      | SB.Rejected _ -> ()
      | o -> Alcotest.failf "expected rejection, got %s" (SB.outcome_label o))

(* A malformed branch probability is a parse error like any other: the
   broker answers [Rejected "parse: ..."] and counts the request. *)
let test_broker_bad_probability () =
  let b = SB.create ~workers:1 ~store:None () in
  Fun.protect
    ~finally:(fun () -> SB.shutdown b)
    (fun () ->
      let ir =
        "fn f(0 params) entry=b0\nb0:\n  v0 = const 1\n\
        \  branch v0 ? b1 : b2  @x\nb1:\n  return\nb2:\n  return\n"
      in
      (match SB.submit ~config ~fn:"f" ~ir b with
      | SB.Rejected msg ->
          Alcotest.(check bool)
            (Printf.sprintf "a parse rejection (%S)" msg)
            true
            (String.starts_with ~prefix:"parse: " msg)
      | o -> Alcotest.failf "expected rejection, got %s" (SB.outcome_label o));
      Alcotest.(check int) "the request counted" 1 (SB.stats b).SB.requests)

(* A cold request compiles the graph its digest computation parsed; a
   job created by a digest-memo hit parses the text again.  Both paths,
   and a renumbered copy coalesced onto the first job, must answer the
   bytes an in-process compile canonicalizes. *)
let test_broker_handoff_matches_fallback () =
  let ir = ir_of_fn trio "main" in
  let expected =
    let g = Ir.Parse.parse_graph ir in
    let program = Ir.Program.of_graph g in
    ignore
      (Dbds.Driver.optimize_program_report ~config ~inline:false ~jobs:1
         program);
    SD.canonical_of_graph
      (Option.value (Ir.Program.find_function program "main") ~default:g)
  in
  let b = SB.create ~workers:1 ~store:None () in
  Fun.protect
    ~finally:(fun () -> SB.shutdown b)
    (fun () ->
      let reply what = function
        | SB.Done { ir; from_cache = false; _ } ->
            Alcotest.(check string) what expected ir
        | o -> Alcotest.failf "%s: unexpected outcome %s" what (SB.outcome_label o)
      in
      (* The first job is stretched so the renumbered copy joins it. *)
      let first =
        Domain.spawn (fun () -> SB.submit ~delay_s:0.3 ~config ~fn:"main" ~ir b)
      in
      Unix.sleepf 0.1;
      let renumbered = SB.submit ~config ~fn:"main" ~ir:(renumber ir) b in
      reply "handed-over graph" (Domain.join first);
      reply "coalesced renumbered copy" renumbered;
      reply "memo hit parses again" (SB.submit ~config ~fn:"main" ~ir b);
      let s = SB.stats b in
      Alcotest.(check int) "two compiles" 2 s.SB.compiles;
      Alcotest.(check int) "one coalesced" 1 s.SB.coalesced)

(* Arm [plan] for every thread at once: broker workers are domains, and
   the fault registry is thread-local by default.  One hit counter then
   spans every request [f] submits. *)
let armed_everywhere plan f =
  let state = ref None in
  F.set_state_provider ~get:(fun () -> !state) ~set:(fun v -> state := v);
  Fun.protect ~finally:F.default_state_provider (fun () ->
      F.armed (Some plan) ~fn:"main" f)

let with_broker st f =
  let b = SB.create ~workers:1 ~store:(Some st) () in
  Fun.protect ~finally:(fun () -> SB.shutdown b) (fun () -> f b)

(* A warm hit is served from memory: the first request misses and
   compiles, the second reads the artifact back from disk once, and the
   third must not touch the disk at all — its read would be the faulted
   one, and a failed read recompiles. *)
let test_broker_memo_hits_skip_disk () =
  with_store (fun st ->
      with_broker st (fun b ->
          let ir = ir_of_fn figure1 "main" in
          armed_everywhere (plan F.Store_read 3) (fun () ->
              for _ = 1 to 3 do
                match SB.submit ~config ~fn:"main" ~ir b with
                | SB.Done _ -> ()
                | o ->
                    Alcotest.failf "unexpected outcome %s" (SB.outcome_label o)
              done);
          let s = SB.stats b in
          Alcotest.(check int) "one compile" 1 s.SB.compiles;
          Alcotest.(check int) "two cache hits" 2 s.SB.cache_hits;
          Alcotest.(check int) "no read failed" 0
            (SS.stats st).SS.read_failures))

(* The digest memo is keyed on exact text, the store on the canonical
   digest: the same function with renumbered ids misses the memo but
   must still be served from the artifact the first request published. *)
let test_broker_renumbered_shares_artifact () =
  with_store (fun st ->
      with_broker st (fun b ->
          let ir = ir_of_fn figure1 "main" in
          let first = SB.submit ~config ~fn:"main" ~ir b in
          let second = SB.submit ~config ~fn:"main" ~ir:(renumber ir) b in
          (match (first, second) with
          | ( SB.Done { ir = a; from_cache = false; _ },
              SB.Done { ir = a'; from_cache = true; _ } ) ->
              Alcotest.(check string) "same artifact" a a'
          | _ ->
              Alcotest.failf "outcomes %s, %s" (SB.outcome_label first)
                (SB.outcome_label second));
          let s = SB.stats b in
          Alcotest.(check int) "one compile" 1 s.SB.compiles;
          Alcotest.(check int) "one cache hit" 1 s.SB.cache_hits;
          Alcotest.(check int) "one publication" 1 (SS.stats st).SS.writes))

(* An artifact on disk under the request's digest has an intact
   checksum but IR that does not parse.  The store must count it
   corrupt and never serve it; the request compiles cold and publishes
   the real artifact over the bad one. *)
let test_broker_disk_bad_artifact () =
  with_store (fun st ->
      let ir = ir_of_fn figure1 "main" in
      let digest = SD.of_request (SD.request_of_text ~config ~fn:"main" ir) in
      SS.put st ~digest ~fn:"main" ~ir:"fn broken(" ~work:1;
      with_broker st (fun b ->
          let compiled =
            match SB.submit ~config ~fn:"main" ~ir b with
            | SB.Done { ir; from_cache = false; _ } -> ir
            | o ->
                Alcotest.failf "expected a cold compile, got %s"
                  (SB.outcome_label o)
          in
          Alcotest.(check int) "counted corrupt" 1 (SS.stats st).SS.corrupt;
          Alcotest.(check int) "compiled cold" 1 (SB.stats b).SB.compiles;
          match SS.get st ~digest with
          | Some e ->
              Alcotest.(check string) "the compiled artifact published"
                compiled e.SS.ar_ir
          | None -> Alcotest.fail "nothing published"))

(* Store hits never queue.  With the only worker held by a slow cold
   compile, a request the store can answer — from disk here: a fresh
   broker and store over a warm directory — is answered on the calling
   thread before that compile finishes. *)
let test_broker_store_hit_skips_queue () =
  with_store (fun st ->
      let ir = ir_of_fn figure1 "main" in
      with_broker st (fun b -> ignore (SB.submit ~config ~fn:"main" ~ir b));
      with_broker (SS.create ~dir:(SS.dir st) ()) (fun b ->
          let slow =
            Domain.spawn (fun () ->
                SB.submit ~delay_s:1.0 ~config ~fn:"f"
                  ~ir:(ir_of_fn trio "f") b)
          in
          Unix.sleepf 0.1;
          (match SB.submit ~config ~fn:"main" ~ir b with
          | SB.Done { from_cache = true; _ } -> ()
          | o -> Alcotest.failf "store hit: %s" (SB.outcome_label o));
          Alcotest.(check int) "answered before the compile finished" 0
            (SB.stats b).SB.compiles;
          match Domain.join slow with
          | SB.Done { from_cache = false; _ } -> ()
          | o -> Alcotest.failf "slow compile: %s" (SB.outcome_label o)))

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)
(* ------------------------------------------------------------------ *)

(* Messages rendered back to back, fed to one reader, read out in
   order. *)
let via_wire msgs =
  let rd = SP.reader () in
  SP.feed rd (String.concat "" (List.map SP.render msgs));
  List.map
    (fun _ ->
      match SP.next rd with
      | SP.Msg (m, _) -> Ok m
      | SP.More -> Error "truncated"
      | SP.Err e -> Error e)
    msgs

let test_protocol_roundtrip () =
  let m1 =
    {
      SP.verb = "compile";
      fields =
        [
          ("fn", "main");
          ("ir", "fn main(1 params) entry=b0\nb0:\n  return v0\n");
          ("config", Dbds.Config.to_line config);
        ];
    }
  in
  let m2 = { SP.verb = "ping"; fields = [] } in
  (match via_wire [ m1; m2 ] with
  | [ Ok r1; Ok r2 ] ->
      Alcotest.(check bool) "multi-line payload survives" true (r1 = m1);
      Alcotest.(check bool) "empty message survives" true (r2 = m2);
      Alcotest.(check (option string)) "field access" (Some "main")
        (SP.field r1 "fn");
      Alcotest.(check string) "field default" "none"
        (SP.field_or r1 "missing" "none")
  | rs ->
      Alcotest.failf "round-trip failed: %s"
        (String.concat "; "
           (List.map (function Ok _ -> "ok" | Error e -> e) rs)));
  (* Garbage input is an [Err], never an exception. *)
  match SP.decode "nonsense without a header\n" with
  | SP.Err _ -> ()
  | _ -> Alcotest.fail "garbage parsed as a message"

let test_protocol_outcomes () =
  List.iter
    (fun o ->
      match SP.outcome_of_reply (SP.reply_of_outcome o) with
      | Ok o' ->
          Alcotest.(check bool)
            (SB.outcome_label o ^ " survives the wire")
            true (o = o')
      | Error e -> Alcotest.failf "%s: %s" (SB.outcome_label o) e)
    [
      SB.Done { ir = "fn f(0 params) entry=b0\nb0:\n  return\n"; work = 7; from_cache = false };
      SB.Done { ir = "multi\nline"; work = 0; from_cache = true };
      SB.Failed "transform.apply: Injected";
      SB.Timed_out;
      SB.Shed;
      SB.Rejected "parse: bad input";
    ]

let test_protocol_work_digits_only () =
  let done_reply work =
    {
      SP.verb = "reply";
      fields = [ ("status", "done"); ("ir", "x"); ("work", work) ];
    }
  in
  (match SP.outcome_of_reply (done_reply "16") with
  | Ok (SB.Done { work = 16; _ }) -> ()
  | _ -> Alcotest.fail "a digits-only work count must parse");
  List.iter
    (fun w ->
      match SP.outcome_of_reply (done_reply w) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "work %S must be refused" w)
    [ "0x10"; "+3"; "1_000"; "-0"; "" ]

(* ------------------------------------------------------------------ *)
(* Crash-mid-publication on the simulated disk                         *)
(* ------------------------------------------------------------------ *)

module Sim = Simtest.Sched
module Simio = Simtest.Simio

(* Run [f] against a simulated-disk environment with [faults] armed.
   The schedule itself must stay clean: a crashed or hung fiber here
   means the test body leaked an exception it claimed to contain. *)
let on_sim_disk ~faults f =
  let sched = Sim.create ~seed:0 () in
  let io = Simio.create ~faults sched in
  let out = Sim.run sched (fun () -> f (Simio.env io)) in
  Alcotest.(check (list (pair string string)))
    "no fiber crashed" [] out.Sim.crashed;
  Alcotest.(check (list string)) "no fiber hung" [] out.Sim.hung

let sim_plan site hit = { F.seed = 0; site; hit; fn = None }

(* A power cut at the publication point: the rename never happens and
   control never returns.  The final name must not appear — not now,
   not after a restart — and the temp file is the only debris. *)
let test_store_sim_crash_mid_publication () =
  on_sim_disk ~faults:[ sim_plan F.Disk_crash 1 ] (fun env ->
      let ir = canonical_main figure1 in
      let digest = SD.fnv64 ir in
      let st = SS.create ~env ~dir:"/store" () in
      (match SS.put st ~digest ~fn:"main" ~ir ~work:7 with
      | () -> Alcotest.fail "publication should have crashed"
      | exception Simio.Crashed _ -> ());
      Alcotest.(check bool) "no visible artifact" true
        (SS.get st ~digest = None);
      let names = Array.to_list (env.Service.Env.readdir "/store") in
      Alcotest.(check bool) "temp debris remains" true
        (List.exists
           (fun n -> String.length n > 4 && String.sub n 0 4 = ".tmp")
           names);
      (* Restart: a fresh store over the surviving disk must scan the
         debris away from sight and accept a clean republication. *)
      let st2 = SS.create ~env ~dir:"/store" () in
      Alcotest.(check bool) "restart: still a miss" true
        (SS.get st2 ~digest = None);
      SS.put st2 ~digest ~fn:"main" ~ir ~work:7;
      match SS.get st2 ~digest with
      | Some e -> Alcotest.(check string) "republished ir" ir e.SS.ar_ir
      | None -> Alcotest.fail "republication after restart failed")

(* A torn disk write under the temp name: the store contains it as an
   ordinary write failure (Sys_error), nothing becomes visible, and
   the next attempt succeeds — the fault is one-shot. *)
let test_store_sim_torn_write_contained () =
  on_sim_disk ~faults:[ sim_plan F.Disk_torn 1 ] (fun env ->
      let ir = canonical_main figure1 in
      let digest = SD.fnv64 ir in
      let st = SS.create ~env ~dir:"/store" () in
      SS.put st ~digest ~fn:"main" ~ir ~work:7;
      Alcotest.(check int) "write failure counted" 1
        (SS.stats st).SS.write_failures;
      Alcotest.(check bool) "nothing published" true (SS.get st ~digest = None);
      SS.put st ~digest ~fn:"main" ~ir ~work:7;
      Alcotest.(check bool) "retry publishes" true (SS.get st ~digest <> None))

(* Slow IO delays the publication but changes nothing else; the sim
   clock records exactly how slow it was. *)
let test_store_sim_slow_io () =
  on_sim_disk ~faults:[ sim_plan F.Disk_slow 1 ] (fun env ->
      let ir = canonical_main figure1 in
      let digest = SD.fnv64 ir in
      let st = SS.create ~env ~dir:"/store" () in
      let before = env.Service.Env.mono () in
      SS.put st ~digest ~fn:"main" ~ir ~work:7;
      let elapsed = env.Service.Env.mono () -. before in
      Alcotest.(check bool) "the slow fault cost virtual seconds" true
        (elapsed >= 2.0);
      Alcotest.(check bool) "published regardless" true
        (SS.get st ~digest <> None))

(* ------------------------------------------------------------------ *)
(* The request's context                                               *)
(* ------------------------------------------------------------------ *)

(* The paper's Listings 3-4 (examples/escape_analysis.ml): the
   allocations go only with class [A]'s layout in view. *)
let escape =
  {|
  class A { int x; }
  int foo(A a) {
    A p;
    if (a == null) { p = new A(0); } else { p = a; }
    return p.x;
  }
  int main(int k) {
    if (k > 0) { return foo(new A(k)); }
    return foo(null);
  }
|}

(* A program's post-inline units as a client sends them — [(fn, IR
   text)] — with the program's context, and each unit's canonical IR
   under a direct class-aware compile of the same text. *)
let units_and_direct src =
  let context, units = Service.Client.units (compile src) in
  let direct fn ir =
    Simtest.Harness.reference ~context ~config:Dbds.Config.dbds ~fn ir
  in
  (context, List.map (fun (fn, ir) -> (fn, ir, direct fn ir)) units)

(* Given the context, the broker replies with exactly the direct
   class-aware compile, cold and then warm from the store; without it,
   the escape program keeps the allocations that need class [A]. *)
let test_broker_context_is_direct () =
  with_store (fun st ->
      with_broker st (fun b ->
          let serve ?context fn ir =
            match SB.submit ?context ~config:Dbds.Config.dbds ~fn ~ir b with
            | SB.Done { ir; from_cache; _ } -> (ir, from_cache)
            | o -> Alcotest.failf "%s: %s" fn (SB.outcome_label o)
          in
          List.iter
            (fun src ->
              let context, units = units_and_direct src in
              Alcotest.(check bool) "the program has classes" true
                (String.starts_with ~prefix:"class " context);
              List.iter
                (fun (fn, ir, direct) ->
                  let cold, hit = serve ~context fn ir in
                  Alcotest.(check string) (fn ^ ": served = direct") direct cold;
                  Alcotest.(check bool) (fn ^ ": cold compiles") false hit;
                  let warm, hit = serve ~context fn ir in
                  Alcotest.(check string) (fn ^ ": warm = cold") cold warm;
                  Alcotest.(check bool) (fn ^ ": warm is a store hit") true hit)
                units)
            (escape
            :: List.map (fun seed -> Workloads.Progen.generate ~seed ()) [ 0; 1; 2 ]);
          let _, units = units_and_direct escape in
          List.iter
            (fun (fn, ir, direct) ->
              Alcotest.(check bool) (fn ^ ": no allocation left") false
                (contains ~sub:"new A" direct);
              let lone, _ = serve fn ir in
              if fn = "foo" then
                Alcotest.(check bool) "foo: without the context, one stays" true
                  (contains ~sub:"new A" lone))
            units))

let suite =
  [
    test "digest: hash survives print/parse round-trip" test_digest_roundtrip;
    test "digest: invariant under id renumbering"
      test_digest_renumbering_invariant;
    test "digest: sensitive to every request component" test_digest_sensitivity;
    test "digest: blind to fault plans and the default line pinned"
      test_digest_ignores_fault_plan;
    test "digest: one pipeline, one request"
      test_digest_one_pipeline_one_request;
    test "digest: values pinned" test_digest_pinned;
    test "canonical: equals print/parse/print on four corpora"
      test_canonical_corpora;
    test "canonical: hand-built graphs" test_canonical_hand_built;
    test "store: publish and read back" test_store_roundtrip;
    test "store: corruption degrades to a miss" test_store_corruption_degrades;
    test "store: LRU eviction bounds the budget" test_store_lru_eviction;
    test "store: every fault site contained" test_store_fault_sites;
    test "store: parsed-artifact memo" test_store_lookup_memo;
    test "store: sim-disk crash mid-publication"
      test_store_sim_crash_mid_publication;
    test "store: sim-disk torn write contained"
      test_store_sim_torn_write_contained;
    test "store: sim-disk slow IO delays, nothing else"
      test_store_sim_slow_io;
    test "broker: context replies equal direct"
      test_broker_context_is_direct;
    test "broker: identical requests coalesce" test_broker_coalescing;
    test "broker: full queue sheds" test_broker_backpressure;
    test "broker: expired deadline" test_broker_deadline;
    test "broker: malformed request rejected" test_broker_bad_request;
    test "broker: malformed probability rejected and counted"
      test_broker_bad_probability;
    test "broker: handed-over graph matches the re-parse"
      test_broker_handoff_matches_fallback;
    test "broker: memo hits never touch the disk"
      test_broker_memo_hits_skip_disk;
    test "broker: a renumbered copy shares the artifact"
      test_broker_renumbered_shares_artifact;
    test "broker: an unparsable disk artifact is never served"
      test_broker_disk_bad_artifact;
    test "protocol: message round-trip" test_protocol_roundtrip;
    test "protocol: outcome round-trip" test_protocol_outcomes;
    test "broker: a store hit skips the worker queue"
      test_broker_store_hit_skips_queue;
    test "protocol: a reply's work is digits only"
      test_protocol_work_digits_only;
    test "store: an artifact's work header is digits only"
      test_store_work_digits_only;
  ]
