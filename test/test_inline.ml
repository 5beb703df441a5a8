(** Inliner tests: splicing correctness, recursion handling, limits,
    and semantic preservation. *)

open Helpers
module G = Ir.Graph

let inline_all prog =
  let ctx = Opt.Phase.create ~program:prog () in
  ignore (Opt.Inline.inline_program ctx prog);
  check_program_verifies prog;
  prog

let call_count g =
  G.fold_instrs g
    (fun n id -> match G.kind g id with Ir.Types.Call _ -> n + 1 | _ -> n)
    0

let test_simple_inline () =
  let prog =
    compile
      "int add1(int x) { return x + 1; } int main(int n) { return add1(add1(n)); }"
  in
  let prog = inline_all prog in
  let main = Option.get (Ir.Program.find_function prog "main") in
  Alcotest.(check int) "no calls left" 0 (call_count main);
  Alcotest.(check int) "result" 7 (run_int prog [ 5 ])

let test_inline_multi_return () =
  let src =
    {|
    int sign(int x) {
      if (x > 0) { return 1; }
      if (x < 0) { return -1; }
      return 0;
    }
    int main(int n) { return sign(n) * 100 + sign(-n); }
    |}
  in
  let prog = inline_all (compile src) in
  let main = Option.get (Ir.Program.find_function prog "main") in
  Alcotest.(check int) "no calls left" 0 (call_count main);
  Alcotest.(check int) "pos" 99 (run_int prog [ 5 ]);
  Alcotest.(check int) "neg" (-99) (run_int prog [ -5 ]);
  Alcotest.(check int) "zero" 0 (run_int prog [ 0 ])

let test_inline_void_callee () =
  let src =
    {|
    global int s;
    void bump(int k) { s = s + k; }
    int main(int n) { bump(n); bump(2 * n); return s; }
    |}
  in
  let prog = inline_all (compile src) in
  Alcotest.(check int) "effects preserved" 9 (run_int prog [ 3 ])

let test_inline_in_loop () =
  let src =
    {|
    int step(int acc, int i) {
      if (i % 2 == 0) { return acc + i; }
      return acc - 1;
    }
    int main(int n) {
      int acc = 0;
      int i = 0;
      while (i < n) { acc = step(acc, i); i = i + 1; }
      return acc;
    }
    |}
  in
  let prog = inline_all (compile src) in
  let main = Option.get (Ir.Program.find_function prog "main") in
  Alcotest.(check int) "no calls left" 0 (call_count main);
  (* 0+0 -1 +2 -1 +4 -1 +6 -1 = 8 for n = 8 *)
  Alcotest.(check int) "loop semantics" 8 (run_int prog [ 8 ])

let test_recursion_not_inlined () =
  let src = "int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); } int main(int n) { return fact(n); }" in
  let prog = inline_all (compile src) in
  let fact = Option.get (Ir.Program.find_function prog "fact") in
  Alcotest.(check bool) "self-call survives" true (call_count fact >= 1);
  Alcotest.(check int) "5! = 120" 120 (run_int prog [ 5 ])

let test_mutual_recursion_safe () =
  let src =
    {|
    int is_even(int n) { if (n == 0) { return 1; } return is_odd(n - 1); }
    int is_odd(int n) { if (n == 0) { return 0; } return is_even(n - 1); }
    int main(int n) { return is_even(n); }
    |}
  in
  let prog = inline_all (compile src) in
  Alcotest.(check int) "10 even" 1 (run_int prog [ 10 ]);
  Alcotest.(check int) "7 odd" 0 (run_int prog [ 7 ])

let test_caller_size_limit () =
  let limits =
    { Opt.Inline.default_limits with Opt.Inline.max_caller_size = 10 }
  in
  let prog =
    compile
      "int add1(int x) { return x + 1; } int main(int n) { return add1(n) + add1(n) + add1(n) + add1(n); }"
  in
  let ctx = Opt.Phase.create ~program:prog () in
  ignore (Opt.Inline.inline_program ~limits ctx prog);
  check_program_verifies prog;
  let main = Option.get (Ir.Program.find_function prog "main") in
  Alcotest.(check bool) "limit left calls in place" true (call_count main > 0);
  Alcotest.(check int) "still correct" 24 (run_int prog [ 5 ])

let test_inline_phis_in_callee () =
  (* Callee with internal control flow and phis; inlined mid-block. *)
  let src =
    {|
    int clamp(int x) {
      int r;
      if (x > 100) { r = 100; } else {
        if (x < 0) { r = 0; } else { r = x; }
      }
      return r;
    }
    int main(int n) {
      int a = clamp(n) * 2;
      int b = clamp(n - 50);
      return a + b;
    }
    |}
  in
  let prog = inline_all (compile src) in
  Alcotest.(check int) "over" 300 (run_int prog [ 200 ]);
  Alcotest.(check int) "mid" 130 (run_int prog [ 60 ]);
  Alcotest.(check int) "under" 0 (run_int prog [ -4 ])

let test_inline_argument_expressions () =
  (* Arguments with side effects must be evaluated exactly once. *)
  let src =
    {|
    global int calls;
    int id(int x) { return x; }
    int next() { calls = calls + 1; return calls; }
    int main(int n) { return id(next()) + id(next()) * 10; }
    |}
  in
  let prog = inline_all (compile src) in
  Alcotest.(check int) "args evaluated once each" 21 (run_int prog [ 0 ])

let test_inline_work_charged () =
  let prog =
    compile "int f(int x) { return x * 2; } int main(int n) { return f(n); }"
  in
  let ctx = Opt.Phase.create ~program:prog () in
  ignore (Opt.Inline.inline_program ctx prog);
  Alcotest.(check bool) "work charged" true (ctx.Opt.Phase.work > 0)

let main_of prog = Option.get (Ir.Program.find_function prog "main")

(* The constants of [g] with value [n], as instruction ids. *)
let consts g n =
  G.fold_instrs g
    (fun acc id ->
      match G.kind g id with Ir.Types.Const k when k = n -> id :: acc | _ -> acc)
    []

(* Sites are spliced in increasing id order: [b]'s call comes first in
   [main], so its copy (and its marker constant) gets the lower ids. *)
let test_sites_in_id_order () =
  let prog =
    compile
      {|
      int a(int x) { return x + 111; }
      int b(int x) { return x + 222; }
      int main(int n) { int u = b(n); int v = a(n); return u * v; }
      |}
  in
  let prog = inline_all prog in
  let main = main_of prog in
  match (consts main 111, consts main 222) with
  | [ c111 ], [ c222 ] ->
      Alcotest.(check bool) "b's copy first" true (c222 < c111);
      Alcotest.(check int) "result" (227 * 116) (run_int prog [ 5 ])
  | _ -> Alcotest.fail "expected one copy of each marker"

(* The reference search: rescan the caller from id 0 after every
   splice, programs in the inliner's leaf-first order.  The resumed
   search must splice exactly the same sites. *)
let rescan_inline_program (limits : Opt.Inline.limits) prog =
  let size = G.live_instr_count in
  let inline_graph g =
    let sites = ref 0 and progress = ref true in
    while !progress && !sites < limits.Opt.Inline.max_sites_per_caller do
      let site =
        G.fold_instrs g
          (fun acc id ->
            match (acc, G.kind g id) with
            | None, Ir.Types.Call (name, _) -> (
                match Ir.Program.find_function prog name with
                | Some callee
                  when callee != g && name <> G.name g
                       && size callee <= limits.Opt.Inline.max_callee_size
                       && size g + size callee
                          <= limits.Opt.Inline.max_caller_size ->
                    Some (id, callee)
                | _ -> None)
            | _ -> acc)
          None
      in
      match site with
      | Some (id, callee) ->
          Opt.Inline.inline_site g id callee;
          incr sites
      | None -> progress := false
    done
  in
  Ir.Program.function_names prog
  |> List.map (fun name ->
         (call_count (Option.get (Ir.Program.find_function prog name)), name))
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun (_, name) ->
         inline_graph (Option.get (Ir.Program.find_function prog name)))

let printed prog =
  String.concat ""
    (List.map
       (fun name ->
         Ir.Printer.graph_to_string
           (Option.get (Ir.Program.find_function prog name)))
       (Ir.Program.function_names prog))

(* Both algorithms on fresh copies of [src] under [limits]. *)
let check_same_as_rescan ?(limits = Opt.Inline.default_limits) src =
  let resumed = compile src and rescanned = compile src in
  ignore (Opt.Inline.inline_program ~limits (Opt.Phase.create ~program:resumed ()) resumed);
  rescan_inline_program limits rescanned;
  check_program_verifies resumed;
  Alcotest.(check string) "same IR as a full rescan" (printed rescanned)
    (printed resumed);
  resumed

let big_and_small =
  {|
  int big(int x) { int s = x; s = s * 3 + 1; s = s * 5 + 2; s = s * 7 + 3; return s; }
  int small(int x) { return x + 4242; }
  int main(int n) { int r = big(n); int t = small(n); return r + t; }
  |}

(* [big]'s call is skipped for [max_caller_size]; the later [small]
   fits, and its splice grows [main], so [big] stays skipped. *)
let test_capped_site_stays_skipped () =
  let sizes = compile big_and_small in
  let size name = G.live_instr_count (Option.get (Ir.Program.find_function sizes name)) in
  let limits =
    {
      Opt.Inline.default_limits with
      Opt.Inline.max_caller_size = size "main" + size "big" - 1;
    }
  in
  let prog = check_same_as_rescan ~limits big_and_small in
  let main = main_of prog in
  Alcotest.(check int) "only big's call is left" 1 (call_count main);
  Alcotest.(check int) "small was spliced" 1 (List.length (consts main 4242));
  Alcotest.(check int) "result" (577 + 4247) (run_int prog [ 5 ])

(* A call to an empty void callee: splicing it removes the call and
   copies nothing, so [main] shrinks by one and [big], skipped by one
   instruction before, now fits. *)
let test_shrinking_site_rescans () =
  let src =
    {|
    global int g;
    void nop() { }
    int big(int x) { int s = x; s = s * 3 + 1; s = s * 5 + 2; s = s * 7 + 3; return s; }
    int main(int n) { int r = big(n); nop(); g = r; return r; }
    |}
  in
  let sizes = compile src in
  let size name = G.live_instr_count (Option.get (Ir.Program.find_function sizes name)) in
  Alcotest.(check int) "nop is empty" 0 (size "nop");
  let limits =
    {
      Opt.Inline.default_limits with
      Opt.Inline.max_caller_size = size "main" + size "big" - 1;
    }
  in
  let prog = check_same_as_rescan ~limits src in
  Alcotest.(check int) "both calls spliced" 0 (call_count (main_of prog));
  Alcotest.(check int) "result" 577 (run_int prog [ 5 ])

(* The resumed search against the full rescan on generated programs,
   under the default limits and under tight caller caps. *)
let test_same_as_rescan_progen () =
  for seed = 0 to 11 do
    let src =
      Workloads.Progen.generate ~n_helpers:(1 + (seed mod 4)) ~depth:(1 + (seed mod 3)) ~seed ()
    in
    List.iter
      (fun cap ->
        ignore
          (check_same_as_rescan
             ~limits:{ Opt.Inline.default_limits with Opt.Inline.max_caller_size = cap }
             src))
      [ 4000; 300; 120; 60 ]
  done

let suite =
  [
    test "simple inline" test_simple_inline;
    test "multi-return callee" test_inline_multi_return;
    test "void callee" test_inline_void_callee;
    test "inline inside loop" test_inline_in_loop;
    test "recursion not inlined" test_recursion_not_inlined;
    test "mutual recursion safe" test_mutual_recursion_safe;
    test "caller size limit" test_caller_size_limit;
    test "callee with phis" test_inline_phis_in_callee;
    test "argument side effects" test_inline_argument_expressions;
    test "work charged" test_inline_work_charged;
    test "sites in increasing id order" test_sites_in_id_order;
    test "a capped site stays skipped" test_capped_site_stays_skipped;
    test "a shrinking splice rescans" test_shrinking_site_rescans;
    test "resumed search = full rescan (progen)" test_same_as_rescan_progen;
  ]
