(** Profile collection tests: recorded branch frequencies match the
    program's actual behaviour, and profile-guided DBDS reproduces the
    decisions made with hand annotations. *)

open Helpers
module P = Interp.Profile

let profile_run ?fuel src args =
  let prog = compile src in
  let profile = P.create () in
  let _ = Interp.Machine.run ?fuel ~profile prog ~args:(Array.of_list args) in
  (prog, profile)

let test_counts_match_behaviour () =
  (* 100 iterations; i % 4 == 0 is true 25 times. *)
  let src =
    {|
    global int hits;
    int main(int n) {
      int i = 0;
      while (i < n) {
        if (i % 4 == 0) { hits = hits + 1; }
        i = i + 1;
      }
      return hits;
    }
    |}
  in
  let prog, profile = profile_run src [ 100 ] in
  let g = Option.get (Ir.Program.find_function prog "main") in
  (* Find the i%4 branch: the one with observed probability 0.25. *)
  let probs = ref [] in
  Ir.Graph.iter_blocks g (fun bid ->
      match Ir.Graph.term g bid with
      | Ir.Types.Branch _ -> (
          match P.observed profile ~fn:"main" ~bid with
          | Some p -> probs := p :: !probs
          | None -> ())
      | _ -> ());
  Alcotest.(check bool) "loop branch ~0.99 observed" true
    (List.exists (fun p -> p > 0.95) !probs);
  Alcotest.(check bool) "mod-4 branch ~0.25 observed" true
    (List.exists (fun p -> Float.abs (p -. 0.25) < 0.02) !probs)

let test_apply_rewrites_probabilities () =
  let src =
    "int main(int n) { int acc = 0; int i = 0; while (i < n) { if (i % 10 == 0) { acc = acc + 1; } i = i + 1; } return acc; }"
  in
  let prog, profile = profile_run src [ 200 ] in
  P.apply profile prog;
  let g = Option.get (Ir.Program.find_function prog "main") in
  let found = ref false in
  Ir.Graph.iter_blocks g (fun bid ->
      match Ir.Graph.term g bid with
      | Ir.Types.Branch { prob; _ } ->
          if Float.abs (prob -. 0.1) < 0.02 then found := true
      | _ -> ());
  Alcotest.(check bool) "a branch carries the observed 0.1" true !found

let test_min_samples_threshold () =
  let profile = P.create () in
  P.record profile ~fn:"f" ~bid:3 ~taken_true:true;
  Alcotest.(check (option (float 1e-9))) "below threshold" None
    (P.observed profile ~fn:"f" ~bid:3);
  for _ = 1 to 10 do
    P.record profile ~fn:"f" ~bid:3 ~taken_true:true
  done;
  Alcotest.(check (option (float 1e-9))) "above threshold" (Some 1.0)
    (P.observed profile ~fn:"f" ~bid:3);
  Alcotest.(check int) "samples counted" 11 (P.samples profile)

let test_apply_clamps () =
  (* An always-taken branch must not become probability 1.0 exactly. *)
  let src =
    "int main(int n) { int i = 0; int acc = 0; while (i < n) { if (i >= 0) { acc = acc + 1; } i = i + 1; } return acc; }"
  in
  let prog, profile = profile_run src [ 50 ] in
  P.apply profile prog;
  Ir.Program.iter_functions prog (fun g ->
      Ir.Graph.iter_blocks g (fun bid ->
          match Ir.Graph.term g bid with
          | Ir.Types.Branch { prob; _ } ->
              Alcotest.(check bool) "clamped" true (prob > 0.0 && prob < 1.0)
          | _ -> ()))

let test_profile_guided_dbds_matches_annotated () =
  (* The same program, once with hand annotations and once profiled:
     DBDS should duplicate in both and preserve semantics. *)
  let body annotated =
    Printf.sprintf
      {|
      int main(int n) {
        int acc = 0;
        int i = 0;
        while (i < n) %s {
          int divisor;
          if (i %% 8 != 0) %s { divisor = 2; } else { divisor = i %% 7 + 3; }
          acc = (acc + (i * 3 + 1) / divisor) & 16777215;
          i = i + 1;
        }
        return acc;
      }
      |}
      (if annotated then "@0.99" else "")
      (if annotated then "@0.87" else "")
  in
  (* Annotated run. *)
  let annotated = compile (body true) in
  let s1 =
    (Dbds.Driver.optimize_program_report annotated).Dbds.Driver.rep_stats
  in
  let d1 = (Dbds.Driver.total_stats s1).Dbds.Driver.duplications_performed in
  (* Profile-guided run: interpret, apply, compile. *)
  let profiled = compile (body false) in
  let profile = P.create () in
  let _ = Interp.Machine.run ~profile profiled ~args:[| 500 |] in
  P.apply profile profiled;
  let s2 =
    (Dbds.Driver.optimize_program_report profiled).Dbds.Driver.rep_stats
  in
  let d2 = (Dbds.Driver.total_stats s2).Dbds.Driver.duplications_performed in
  Alcotest.(check bool) "annotated duplicates" true (d1 > 0);
  Alcotest.(check int) "profiled matches annotated" d1 d2;
  check_program_verifies profiled;
  Alcotest.(check int) "same results" (run_int annotated [ 300 ])
    (run_int profiled [ 300 ])

(* A one-branch graph whose probability we can inspect after apply. *)
let one_branch_prog () =
  compile
    "int main(int n) { int acc = 0; if (n > 0) { acc = 1; } else { acc = 2; } return acc; }"

let branch_probs prog =
  let probs = ref [] in
  Ir.Program.iter_functions prog (fun g ->
      Ir.Graph.iter_blocks g (fun bid ->
          match Ir.Graph.term g bid with
          | Ir.Types.Branch { prob; _ } ->
              probs := (bid, prob) :: !probs
          | _ -> ()));
  List.sort compare !probs

let record_n profile ~bid ~taken ~total =
  for i = 1 to total do
    P.record profile ~fn:"main" ~bid ~taken_true:(i <= taken)
  done

let test_min_samples_boundary () =
  (* Exactly 7 samples: below the default threshold of 8 — apply must
     leave the static estimate.  The 8th sample flips it. *)
  let prog = one_branch_prog () in
  let bid, static_prob =
    match branch_probs prog with
    | [ (bid, p) ] -> (bid, p)
    | l -> Alcotest.failf "expected one branch, got %d" (List.length l)
  in
  let profile = P.create () in
  record_n profile ~bid ~taken:7 ~total:7;
  Alcotest.(check (option (float 1e-9))) "7 samples: observed is None" None
    (P.observed profile ~fn:"main" ~bid);
  P.apply profile prog;
  Alcotest.(check (float 1e-9)) "7 samples: static estimate kept" static_prob
    (List.assoc bid (branch_probs prog));
  P.record profile ~fn:"main" ~bid ~taken_true:true;
  Alcotest.(check (option (float 1e-9))) "8 samples: observed fires"
    (Some 1.0)
    (P.observed profile ~fn:"main" ~bid);
  P.apply profile prog;
  Alcotest.(check bool) "8 samples: probability rewritten" true
    (List.assoc bid (branch_probs prog) <> static_prob)

let test_clamp_at_exact_extremes () =
  (* Observed frequencies of exactly 0.0 and 1.0 must clamp to the
     epsilon, never to the extremes themselves. *)
  let check_extreme ~taken ~expect_near =
    let prog = one_branch_prog () in
    let bid =
      match branch_probs prog with
      | [ (bid, _) ] -> bid
      | _ -> Alcotest.fail "expected one branch"
    in
    let profile = P.create () in
    record_n profile ~bid ~taken:(if taken then 20 else 0) ~total:20;
    P.apply profile prog;
    let p = List.assoc bid (branch_probs prog) in
    Alcotest.(check (float 1e-12))
      (Printf.sprintf "observed %.1f clamps to %g"
         (if taken then 1.0 else 0.0)
         expect_near)
      expect_near p;
    Alcotest.(check bool) "strictly inside (0,1)" true (p > 0.0 && p < 1.0)
  in
  check_extreme ~taken:true ~expect_near:0.9999;
  check_extreme ~taken:false ~expect_near:0.0001

let test_unreached_branch_keeps_static () =
  (* Two branches, only one executed: the unreached one keeps its
     annotation even with plenty of global samples. *)
  let src =
    {|
    int main(int n) {
      int acc = 0;
      if (n > 1000000) @0.125 { acc = 7; } else { acc = 3; }
      int i = 0;
      while (i < n) @0.9 { acc = acc + 1; i = i + 1; }
      return acc;
    }
    |}
  in
  let prog = compile src in
  let before = branch_probs prog in
  let profile = P.create () in
  let _ = Interp.Machine.run ~profile prog ~args:[| 100 |] in
  P.apply profile prog;
  let after = branch_probs prog in
  (* The @0.125 branch executed once (below min_samples) — kept; the
     loop branch executed 101 times — rewritten. *)
  let changed =
    List.filter
      (fun (bid, p) -> List.assoc bid before <> p)
      after
  in
  Alcotest.(check int) "exactly one branch rewritten" 1 (List.length changed);
  Alcotest.(check bool) "the 0.125 estimate survives" true
    (List.exists (fun (_, p) -> Float.abs (p -. 0.125) < 1e-9) after)

let test_record_apply_deterministic () =
  (* Identical runs record identical profiles; applying each to a fresh
     program yields identical IR. *)
  let src =
    "int main(int n) { int acc = 0; int i = 0; while (i < n) { if (i % 3 == 0) { acc = acc + 2; } i = i + 1; } return acc; }"
  in
  let round () =
    let prog = compile src in
    let profile = P.create () in
    let _ = Interp.Machine.run ~profile prog ~args:[| 157 |] in
    P.apply profile prog;
    ( P.fold profile ~init:[] ~f:(fun acc ~fn ~bid ~taken ~total ->
          (fn, bid, taken, total) :: acc),
      Ir.Printer.graph_to_string
        (Option.get (Ir.Program.find_function prog "main")) )
  in
  let p1, ir1 = round () in
  let p2, ir2 = round () in
  Alcotest.(check bool) "profiles identical" true (p1 = p2);
  Alcotest.(check string) "applied IR identical" ir1 ir2

let suite =
  [
    test "counts match behaviour" test_counts_match_behaviour;
    test "apply rewrites probabilities" test_apply_rewrites_probabilities;
    test "min samples threshold" test_min_samples_threshold;
    test "apply clamps" test_apply_clamps;
    test "min samples boundary (7 vs 8)" test_min_samples_boundary;
    test "clamp at exact 0.0/1.0" test_clamp_at_exact_extremes;
    test "unreached branch keeps static estimate" test_unreached_branch_keeps_static;
    test "record/apply determinism" test_record_apply_deterministic;
    test "profile-guided DBDS matches annotated" test_profile_guided_dbds_matches_annotated;
  ]
