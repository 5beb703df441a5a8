(** Optimization phase tests: targeted unit tests per phase plus
    semantics-preservation checks, including the paper's Listings 1–6. *)

open Ir.Types
module G = Ir.Graph
open Helpers

let ctx_for prog = Opt.Phase.create ~program:prog ()

let optimize_copy prog =
  let prog' = Ir.Program.copy prog in
  ignore
    (Dbds.Driver.optimize_program_report ~config:Dbds.Config.off
       ~inline:false prog');
  check_program_verifies prog';
  prog'

(** Differential check: baseline optimization must not change results. *)
let check_same_results ?(inputs = [ [ 0 ]; [ 1 ]; [ -7 ]; [ 13 ]; [ 100 ] ]) src =
  let prog = compile src in
  let prog' = optimize_copy prog in
  List.iter
    (fun args ->
      let run p =
        match
          Interp.Machine.run ~icache:Interp.Machine.no_icache p
            ~args:(Array.of_list args)
        with
        | r, _ -> Interp.Machine.result_to_string r
        | exception Interp.Machine.Runtime_error m -> "fault: " ^ m
      in
      Alcotest.(check string)
        (Printf.sprintf "args %s" (String.concat "," (List.map string_of_int args)))
        (run prog) (run prog'))
    inputs;
  prog'

let count_kind prog fn pred =
  let g = Option.get (Ir.Program.find_function prog fn) in
  G.fold_instrs g (fun n id -> if pred (G.kind g id) then n + 1 else n) 0

let main_graph prog = Option.get (Ir.Program.find_function prog "main")

(* ---- canonicalize ---- *)

let test_constant_folding () =
  let prog = check_same_results "int main(int x) { return 2 + 3 * 4; }" in
  let g = main_graph prog in
  (* The whole body folds to `return 14`. *)
  match G.term g (G.entry g) with
  | Return (Some v) -> (
      match G.kind g v with
      | Const 14 -> ()
      | k -> Alcotest.failf "expected const 14, got %s" (Fmt.str "%a" Ir.Printer.pp_kind k))
  | _ -> Alcotest.fail "expected return"

let test_algebraic_identities () =
  let cases =
    [
      ("int main(int x) { return x + 0; }", [ 5 ], 5);
      ("int main(int x) { return x * 1; }", [ 5 ], 5);
      ("int main(int x) { return x - x; }", [ 9 ], 0);
      ("int main(int x) { return x ^ x; }", [ 9 ], 0);
      ("int main(int x) { return 0 - x; }", [ 9 ], -9);
      ("int main(int x) { return x % 1; }", [ 9 ], 0);
    ]
  in
  List.iter
    (fun (src, args, expected) ->
      let prog = check_same_results src in
      Alcotest.(check int) src expected (run_int prog args);
      (* No binop survives. *)
      Alcotest.(check int)
        (src ^ " simplified")
        0
        (count_kind prog "main" (function Binop _ -> true | _ -> false)))
    cases

let test_strength_reduction_div () =
  let prog = check_same_results "int main(int x) { return x / 8; }" in
  Alcotest.(check int) "div gone" 0
    (count_kind prog "main" (function Binop (Div, _, _) -> true | _ -> false));
  Alcotest.(check int) "shift introduced" 1
    (count_kind prog "main" (function Binop (Shr, _, _) -> true | _ -> false));
  (* Exactness on negatives (floor semantics). *)
  Alcotest.(check int) "negative" (-2) (run_int prog [ -9 ])

let test_strength_reduction_mul_rem () =
  let prog = check_same_results "int main(int x) { return x * 16 + x % 4; }" in
  Alcotest.(check int) "mul gone" 0
    (count_kind prog "main" (function Binop (Mul, _, _) -> true | _ -> false));
  Alcotest.(check int) "rem gone" 0
    (count_kind prog "main" (function Binop (Rem, _, _) -> true | _ -> false))

let test_not_of_cmp () =
  let prog = check_same_results "bool main(int x) { return !(x < 3); }" in
  Alcotest.(check int) "not gone" 0
    (count_kind prog "main" (function Not _ -> true | _ -> false));
  Alcotest.(check int) "ge 3" 1 (run_int prog [ 3 ])

let test_new_never_null () =
  let prog =
    check_same_results ~inputs:[ [] ]
      "class A { int x; } int main() { A a = new A(5); if (a == null) { return 1; } return 2; }"
  in
  (* The null compare folds, the branch folds, one block remains. *)
  let g = main_graph prog in
  Alcotest.(check int) "single block" 1 (G.live_block_count g);
  Alcotest.(check int) "result" 2 (run_int prog [])

(* A phi over two [Const] instructions of one value, defined in arms
   that do not dominate each other (the shape DBDS leaves on kiama):
   GVN cannot merge the constants, so canonicalize must fold the phi to
   one entry-block constant.  [arm b x] builds each arm's phi input. *)
let const_phi_graph arm_t arm_f =
  let b = Ir.Builder.create ~name:"const_phi" ~n_params:1 () in
  let x = Ir.Builder.param b 0 in
  let c = Ir.Builder.cmp b Gt x (Ir.Builder.const b 0) in
  let bt = Ir.Builder.new_block b in
  let bf = Ir.Builder.new_block b in
  let merge = Ir.Builder.new_block b in
  Ir.Builder.branch b c ~if_true:bt ~if_false:bf;
  Ir.Builder.switch b bt;
  let vt = arm_t b x in
  Ir.Builder.jump b merge;
  Ir.Builder.switch b bf;
  let vf = arm_f b x in
  Ir.Builder.jump b merge;
  let phi = Ir.Builder.phi b merge [ vt; vf ] in
  Ir.Builder.switch b merge;
  Ir.Builder.ret b phi;
  Ir.Builder.finish b

let count_phis g =
  G.fold_instrs g (fun n id -> match G.kind g id with Phi _ -> n + 1 | _ -> n) 0

let returned g =
  G.fold_blocks g
    (fun acc bid -> match G.term g bid with Return (Some v) -> Some v | _ -> acc)
    None
  |> Option.get

let test_phi_of_equal_consts () =
  let one b _ = Ir.Builder.const b 1 in
  let g = const_phi_graph one one in
  Alcotest.(check bool) "fires" true (Opt.Canonicalize.run (Opt.Phase.create ()) g);
  Ir.Verifier.verify g;
  Alcotest.(check int) "phi gone" 0 (count_phis g);
  let v = returned g in
  Alcotest.(check bool) "returns const 1" true (G.kind g v = Const 1);
  Alcotest.(check int) "from the entry block" (G.entry g) (G.block_of g v);
  (* Negative cases: the phi stays. *)
  List.iter
    (fun (what, arm_t, arm_f) ->
      let g = const_phi_graph arm_t arm_f in
      ignore (Opt.Canonicalize.run (Opt.Phase.create ()) g);
      Alcotest.(check int) what 1 (count_phis g))
    [
      ("different constants", one, (fun b _ -> Ir.Builder.const b 2));
      ("a param input", one, (fun _ x -> x));
    ]

(* [phi(const 2, self, const 2)] on a loop header: the self input is
   ignored, so the phi folds. *)
let test_phi_of_equal_consts_ignores_self () =
  let b = Ir.Builder.create ~name:"const_phi_loop" ~n_params:1 () in
  let x = Ir.Builder.param b 0 in
  let c = Ir.Builder.cmp b Gt x (Ir.Builder.const b 0) in
  let bt = Ir.Builder.new_block b in
  let bf = Ir.Builder.new_block b in
  let header = Ir.Builder.new_block b in
  let latch = Ir.Builder.new_block b in
  let exit = Ir.Builder.new_block b in
  Ir.Builder.branch b c ~if_true:bt ~if_false:bf;
  Ir.Builder.switch b bt;
  let k1 = Ir.Builder.const b 2 in
  Ir.Builder.jump b header;
  Ir.Builder.switch b latch;
  Ir.Builder.jump b header;
  Ir.Builder.switch b bf;
  let k2 = Ir.Builder.const b 2 in
  Ir.Builder.jump b header;
  let g = Ir.Builder.graph b in
  Alcotest.(check (list int)) "header preds" [ bt; latch; bf ] (G.preds g header);
  let phi = Ir.Builder.phi b header [ k1; k1; k2 ] in
  G.set_kind g phi (Phi [| k1; phi; k2 |]);
  Ir.Builder.switch b header;
  let again = Ir.Builder.cmp b Lt phi x in
  Ir.Builder.branch b again ~if_true:latch ~if_false:exit;
  Ir.Builder.switch b exit;
  Ir.Builder.ret b phi;
  let g = Ir.Builder.finish b in
  ignore (Opt.Canonicalize.run (Opt.Phase.create ()) g);
  Ir.Verifier.verify g;
  Alcotest.(check int) "phi gone" 0 (count_phis g);
  Alcotest.(check bool) "returns const 2" true (G.kind g (returned g) = Const 2)

(* ---- simplify-cfg ---- *)

let test_branch_folding_merges_blocks () =
  let prog =
    check_same_results ~inputs:[ [ 1 ]; [ 0 ] ]
      "int main(int x) { if (1 < 2) { return x + 1; } else { return x - 1; } }"
  in
  let g = main_graph prog in
  Alcotest.(check int) "collapsed to one block" 1 (G.live_block_count g)

let test_straightline_merging () =
  let prog = check_same_results "int main(int x) { int a = x + 1; { int b = a * 2; return b; } }" in
  let g = main_graph prog in
  Alcotest.(check int) "one block" 1 (G.live_block_count g)

(* ---- gvn ---- *)

let test_gvn_dedupes () =
  let prog =
    check_same_results "int main(int x) { int a = x * 3 + 1; int b = x * 3 + 1; return a + b; }"
  in
  Alcotest.(check int) "one multiply" 1
    (count_kind prog "main" (function Binop (Mul, _, _) | Binop (Shl, _, _) -> true | _ -> false))

let test_gvn_commutative () =
  let prog = check_same_results "int main(int x, int y) { return x + y + (y + x); }" in
  (* x+y and y+x share one node; one more add combines them. *)
  Alcotest.(check int) "two adds" 2
    (count_kind prog "main" (function Binop (Add, _, _) -> true | _ -> false))

let test_gvn_respects_dominance () =
  (* The same expression in two sibling branches must NOT be deduped. *)
  let src =
    "int main(int x) { if (x > 0) { return x * 7; } else { return x * 7 - 1; } }"
  in
  let prog = check_same_results src in
  Alcotest.(check int) "both multiplies survive" 2
    (count_kind prog "main" (function Binop (Mul, _, _) -> true | _ -> false))

(* ---- conditional elimination ---- *)

let test_condelim_dominating_condition () =
  let src =
    "int main(int x) { if (x > 10) { if (x > 5) { return 1; } return 2; } return 3; }"
  in
  let prog = check_same_results ~inputs:[ [ 11 ]; [ 7 ]; [ 0 ] ] src in
  (* The inner compare is implied: only the outer compare remains. *)
  Alcotest.(check int) "one compare" 1
    (count_kind prog "main" (function Cmp _ -> true | _ -> false))

let test_condelim_contradiction () =
  let src =
    "int main(int x) { if (x < 0) { if (x > 0) { return 1; } return 2; } return 3; }"
  in
  let prog = check_same_results ~inputs:[ [ -1 ]; [ 1 ]; [ 0 ] ] src in
  Alcotest.(check int) "one compare" 1
    (count_kind prog "main" (function Cmp _ -> true | _ -> false))

let test_condelim_same_condition_reuse () =
  let src =
    "int main(int x) { int r = 0; if (x > 3) { r = 1; } if (x > 3) { r = r + 1; } return r; }"
  in
  (* After GVN the second compare is the same node; condelim cannot fold
     it (the merge kills the fact), but results must be preserved. *)
  let prog = check_same_results ~inputs:[ [ 4 ]; [ 2 ] ] src in
  Alcotest.(check int) "r=2 when both taken" 2 (run_int prog [ 10 ])

let test_condelim_null_check () =
  let src =
    {|
    class A { int x; }
    int main(int k) {
      A a = null;
      if (k > 0) { a = new A(k); }
      if (a != null) {
        if (a == null) { return -1; }
        return a.x;
      }
      return 0;
    }
    |}
  in
  let prog = check_same_results ~inputs:[ [ 5 ]; [ 0 ] ] src in
  Alcotest.(check int) "non-null path" 5 (run_int prog [ 5 ])

(* ---- read elimination ---- *)

let test_readelim_same_block () =
  let src =
    "class A { int x; } int main(int k) { A a = new A(k); int s = a.x + a.x; return s; }"
  in
  let prog = check_same_results ~inputs:[ [ 3 ] ] src in
  (* Scalar replacement (or read elim) removes all loads. *)
  Alcotest.(check int) "loads gone" 0
    (count_kind prog "main" (function Load _ -> true | _ -> false))

let test_readelim_store_forwarding () =
  let src =
    {|
    class A { int x; }
    global A shared;
    int main(int k) {
      shared.x = k * 2;
      return shared.x;
    }
    void init() { shared = new A(0); }
    int run(int k) { init(); return main(k); }
    |}
  in
  (* main loads global `shared` twice; the second load and the field read
     after the store are both eliminable. *)
  let prog = compile src in
  let prog' = optimize_copy prog in
  Alcotest.(check int) "field load forwarded" 0
    (count_kind prog' "main" (function Load _ -> true | _ -> false));
  Alcotest.(check int) "one global load" 1
    (count_kind prog' "main" (function Load_global _ -> true | _ -> false))

let test_readelim_call_kills () =
  let src =
    {|
    class A { int x; }
    global A shared;
    void mutate() { shared.x = 99; }
    int main(int k) {
      shared = new A(k);
      int a = shared.x;
      mutate();
      int b = shared.x;
      return a + b;
    }
    |}
  in
  let prog = compile src in
  let prog' = optimize_copy prog in
  let before =
    match Interp.Machine.run prog ~args:[| 1 |] with
    | Some (Interp.Machine.VInt n), _ -> n
    | _ -> Alcotest.fail "expected int"
  in
  Alcotest.(check int) "call invalidates availability" before
    (run_int prog' [ 1 ]);
  Alcotest.(check int) "result is 1 + 99" 100 (run_int prog' [ 1 ])

let test_readelim_store_kills_aliases () =
  let src =
    {|
    class A { int x; }
    int pick(A p, A q, int k) {
      int a = p.x;
      q.x = k;
      return a + p.x;
    }
    int main(int k) {
      A o = new A(7);
      return pick(o, o, k);
    }
    |}
  in
  (* p and q alias: the second p.x must reload after q.x = k. *)
  let prog = compile src in
  let prog' = optimize_copy prog in
  Alcotest.(check int) "aliased store respected" (7 + 5) (run_int prog' [ 5 ]);
  Alcotest.(check bool) "second load survives" true
    (count_kind prog' "pick" (function Load _ -> true | _ -> false) >= 2)

(* ---- escape analysis / scalar replacement ---- *)

let test_pea_scalar_replacement () =
  let src =
    "class Pair { int a; int b; } int main(int x) { Pair p = new Pair(x, 2 * x); p.a = p.a + 1; return p.a + p.b; }"
  in
  let prog = check_same_results ~inputs:[ [ 4 ] ] src in
  Alcotest.(check int) "allocation removed" 0
    (count_kind prog "main" (function New _ -> true | _ -> false));
  Alcotest.(check int) "loads removed" 0
    (count_kind prog "main" (function Load _ -> true | _ -> false));
  Alcotest.(check int) "stores removed" 0
    (count_kind prog "main" (function Store _ -> true | _ -> false))

let test_pea_loop_carried_field () =
  let src =
    {|
    class Box { int v; }
    int main(int n) {
      Box b = new Box(0);
      int i = 0;
      while (i < n) { b.v = b.v + i; i = i + 1; }
      return b.v;
    }
    |}
  in
  let prog = check_same_results ~inputs:[ [ 0 ]; [ 5 ]; [ 10 ] ] src in
  Alcotest.(check int) "allocation removed" 0
    (count_kind prog "main" (function New _ -> true | _ -> false));
  Alcotest.(check int) "sum" 45 (run_int prog [ 10 ])

let test_pea_escape_through_call () =
  let src =
    {|
    class Box { int v; }
    int read(Box b) { return b.v; }
    int main(int x) { Box b = new Box(x); return read(b); }
    |}
  in
  let prog = check_same_results ~inputs:[ [ 3 ] ] src in
  Alcotest.(check int) "escaping allocation kept" 1
    (count_kind prog "main" (function New _ -> true | _ -> false))

let test_pea_escape_through_return () =
  let src =
    {|
    class Box { int v; }
    Box make(int x) { return new Box(x); }
    int main(int x) { Box b = make(x); return b.v; }
    |}
  in
  let prog = check_same_results ~inputs:[ [ 3 ] ] src in
  Alcotest.(check int) "returned allocation kept" 1
    (count_kind prog "make" (function New _ -> true | _ -> false))

let test_pea_escape_through_phi_detected () =
  (* Listing 3's shape: the allocation only escapes through a phi — the
     exact situation duplication resolves. *)
  let src =
    {|
    class A { int x; }
    int main(int k) {
      A a = null;
      A p;
      if (k > 0) { p = new A(0); } else { p = new A(k); }
      return p.x;
    }
    |}
  in
  let prog = compile src in
  let g = main_graph prog in
  let allocs =
    G.fold_instrs g
      (fun acc id ->
        match G.kind g id with New _ -> id :: acc | _ -> acc)
      []
  in
  Alcotest.(check int) "two allocations" 2 (List.length allocs);
  List.iter
    (fun a ->
      match Opt.Pea.escape_state g a with
      | Opt.Pea.Through_phi_only -> ()
      | _ -> Alcotest.fail "expected phi-only escape")
    allocs

(* Run PEA alone on [main], so no other pass folds what it leaves. *)
let pea_only prog =
  let g = main_graph prog in
  ignore (Opt.Phase.run_pass (ctx_for prog) Opt.Pea.phase g);
  check_verifies g;
  g

let is_new = function New _ -> true | _ -> false

let test_pea_nested_chain_one_run () =
  (* pmd's shape: a recursive tree builder inlined into a loop, and a
     walker testing every child against null.  Replacing a node exposes
     its children, each still pinned by its null test; one PEA run must
     take the whole tree. *)
  let src =
    {|
    class Node { int kind; Node left; Node right; }
    Node build(int depth, int seed) {
      if (depth <= 0) { return null; }
      return new Node(seed % 11, build(depth - 1, seed * 31 + 1),
                      build(depth - 1, seed * 17 + 3));
    }
    int check(Node t) {
      if (t == null) { return 0; }
      int k = t.kind;
      int w = 0;
      if (k == 3) { w = 5; }
      return k + w + check(t.left) + check(t.right);
    }
    int main(int n) {
      int total = 0;
      int i = 0;
      while (i < n) {
        Node t = build(3, i * 7 + 1);
        total = total + check(t);
        i = i + 1;
      }
      return total;
    }
    |}
  in
  let reference = compile src in
  let prog = compile src in
  let ctx = ctx_for prog in
  ignore (Opt.Inline.inline_program ctx prog);
  Alcotest.(check bool) "the tree is inlined into main" true
    (count_kind prog "main" is_new > 1);
  ignore (Opt.Pipeline.optimize ctx (main_graph prog));
  check_program_verifies prog;
  List.iter
    (fun n ->
      Alcotest.(check int)
        (Printf.sprintf "main(%d)" n)
        (run_int reference [ n ]) (run_int prog [ n ]))
    [ 0; 1; 4 ];
  Alcotest.(check int) "no allocation left" 0 (count_kind prog "main" is_new);
  let pea = List.assoc "pea" (Opt.Phase.pass_table ctx) in
  Alcotest.(check int) "pea fires once" 1 pea.Opt.Phase.fired;
  Alcotest.(check bool)
    (Printf.sprintf "pea does not grow the graph (size delta %d)"
       pea.Opt.Phase.size_delta)
    true
    (pea.Opt.Phase.size_delta <= 0)

let test_pea_field_lookups () =
  (* A field defined only by the allocation resolves straight to its
     value ([direct]: PEA adds no phi); a field stored elsewhere takes the
     phi lookup. *)
  let cases =
    [
      ( "stored on one branch",
        false,
        {|
        class Box { int v; int w; }
        int main(int x) {
          Box b = new Box(x, 7);
          if (x > 3) { b.v = x * 2; }
          return b.v * 10 + b.w;
        }
        |} );
      ( "stored in a loop",
        false,
        {|
        class Box { int v; int w; }
        int main(int n) {
          Box b = new Box(1, n + 3);
          int i = 0;
          while (i < n) {
            if (i % 2 == 0) { b.v = b.v + b.w; }
            i = i + 1;
          }
          return b.v + b.w;
        }
        |} );
      ( "written only by the allocation",
        true,
        {|
        class Box { int v; int w; }
        int main(int x) {
          Box b = new Box(x, x * 3);
          int s = 0;
          int i = 0;
          while (i < x) {
            if (i > 2) { s = s + b.v; } else { s = s - b.w; }
            i = i + 1;
          }
          return s + b.w;
        }
        |} );
      ( "a pending load stored into another field",
        false,
        {|
        class P { int x; int y; }
        int main(int n) {
          P p = new P(1, 2);
          int i = 0;
          while (p.x < n) { p.x = p.y; p.y = p.y + 3; i = i + 1; }
          return p.x + i;
        }
        |} );
    ]
  in
  let phis prog =
    count_kind prog "main" (function Phi _ -> true | _ -> false)
  in
  List.iter
    (fun (name, direct, src) ->
      let reference = compile src in
      let prog = compile src in
      let phis_before = phis prog in
      ignore (pea_only prog);
      Alcotest.(check int) (name ^ ": allocation removed") 0
        (count_kind prog "main" is_new);
      if direct then
        Alcotest.(check int) (name ^ ": no phi inserted") phis_before
          (phis prog);
      Alcotest.(check int) (name ^ ": loads removed") 0
        (count_kind prog "main" (function Load _ -> true | _ -> false));
      List.iter
        (fun x ->
          Alcotest.(check int)
            (Printf.sprintf "%s: main(%d)" name x)
            (run_int reference [ x ]) (run_int prog [ x ]))
        [ 0; 2; 5; 9 ])
    cases

let test_pea_lookup_phis_do_not_pin_a_child () =
  (* The child is stored outside the parent's block, so loading it back
     after a later merge goes through the phi lookup, which builds a
     trivial phi of the child.  PEA deletes that phi itself; left for
     canonicalize, it would pin the child until the next run. *)
  let src =
    {|
    class C { int x; }
    class P { int y; C c; }
    int main(int k) {
      P p = new P(k, null);
      int s = 0;
      if (k > 0) { s = 1; } else { s = 2; }
      p.c = new C(k + s);
      if (k > 5) { s = s + 3; } else { s = s + 4; }
      C c = p.c;
      if (c == null) { return 0; }
      return c.x + s + p.y;
    }
    |}
  in
  let reference = compile src in
  let prog = compile src in
  ignore (pea_only prog);
  Alcotest.(check int) "both allocations removed" 0
    (count_kind prog "main" is_new);
  List.iter
    (fun k ->
      Alcotest.(check int)
        (Printf.sprintf "main(%d)" k)
        (run_int reference [ k ]) (run_int prog [ k ]))
    [ -1; 3; 8 ]

let test_pea_folds_null_compares () =
  let src =
    {|
    class A { int x; }
    int main(int k) {
      A a = new A(k);
      int r = 0;
      if (a == null) { r = 1; }
      if (a != null) { r = r + 2; }
      return r + a.x;
    }
    |}
  in
  let reference = compile src in
  let prog = compile src in
  let g = pea_only prog in
  Alcotest.(check int) "allocation removed" 0 (count_kind prog "main" is_new);
  Alcotest.(check int) "no compare left" 0
    (count_kind prog "main" (function Cmp _ -> true | _ -> false));
  (* Each branch now tests a constant: [== null] is 0, [!= null] is 1. *)
  let conds =
    G.fold_blocks g
      (fun acc b ->
        match G.term g b with
        | Branch br -> (
            match G.kind g br.cond with Const n -> n :: acc | _ -> acc)
        | _ -> acc)
      []
  in
  Alcotest.(check (list int))
    "folded conditions" [ 0; 1 ] (List.sort compare conds);
  Alcotest.(check int) "result" (run_int reference [ 4 ]) (run_int prog [ 4 ])

let test_pea_null_compare_keeps_phi_escape () =
  (* The simulation tier asks for exactly this state: a null compare
     must not turn a phi-only escape into a full escape. *)
  let src =
    {|
    class A { int x; }
    int main(int k) {
      A a = new A(k);
      A p;
      if (k > 0) { p = a; } else { p = new A(0); }
      if (a == null) { return 7; }
      return p.x;
    }
    |}
  in
  let prog = compile src in
  let g = main_graph prog in
  let a =
    G.fold_instrs g
      (fun acc id ->
        match G.kind g id with
        | New (_, [| arg |]) when G.kind g arg = Param 0 -> Some id
        | _ -> acc)
      None
    |> Option.get
  in
  match Opt.Pea.escape_state g a with
  | Opt.Pea.Through_phi_only -> ()
  | Opt.Pea.No_escape -> Alcotest.fail "expected phi-only escape, got none"
  | Opt.Pea.Escapes -> Alcotest.fail "expected phi-only escape, got escapes"

(* ---- dce ---- *)

let test_dce_removes_dead_cycle () =
  let src =
    {|
    int main(int n) {
      int dead = 0;
      int live = 0;
      int i = 0;
      while (i < n) {
        dead = dead + 2;
        live = live + 1;
        i = i + 1;
      }
      return live;
    }
    |}
  in
  let prog = check_same_results ~inputs:[ [ 5 ] ] src in
  let g = main_graph prog in
  (* Only two phis survive: i and live. *)
  let phis =
    G.fold_instrs g
      (fun n id -> match G.kind g id with Phi _ -> n + 1 | _ -> n)
      0
  in
  Alcotest.(check int) "dead induction variable removed" 2 phis

let test_dce_keeps_side_effects () =
  let src =
    {|
    global int s;
    int main(int x) { s = x; int unused = x * 99; return s; }
    |}
  in
  let prog = check_same_results ~inputs:[ [ 4 ] ] src in
  Alcotest.(check int) "store survives" 1
    (count_kind prog "main" (function Store_global _ -> true | _ -> false))

(* ---- paper listings as end-to-end baselines ---- *)

let listing1 =
  {|
  int foo(int i) {
    int p;
    if (i > 0) { p = i; } else { p = 13; }
    if (p > 12) { return 12; }
    return i;
  }
  int main(int i) { return foo(i); }
  |}

let test_listing1_semantics_preserved () =
  let prog = check_same_results ~inputs:[ [ 1 ]; [ 14 ]; [ 0 ]; [ -3 ] ] listing1 in
  Alcotest.(check int) "i=14 -> 12" 12 (run_int prog [ 14 ]);
  Alcotest.(check int) "i=1 -> 1" 1 (run_int prog [ 1 ]);
  Alcotest.(check int) "i=0 -> 12 (p=13)" 12 (run_int prog [ 0 ])

let listing5 =
  {|
  class A { int x; }
  global int s;
  int foo(A a, int i) {
    if (i > 0) { s = a.x; } else { s = 0; }
    return a.x;
  }
  int main(int i) { A a = new A(41); return foo(a, i); }
  |}

let test_listing5_partial_redundancy_survives_baseline () =
  (* Without duplication the second read is only partially redundant:
     baseline read elimination must NOT remove it. *)
  let prog = compile listing5 in
  let prog' = optimize_copy prog in
  Alcotest.(check int) "both reads survive baseline" 2
    (count_kind prog' "foo" (function Load _ -> true | _ -> false));
  Alcotest.(check int) "result" 41 (run_int prog' [ 1 ])

let test_work_units_charged () =
  let prog = compile listing1 in
  let ctx = ctx_for prog in
  Ir.Program.iter_functions prog (fun g -> ignore (Opt.Pipeline.optimize ctx g));
  Alcotest.(check bool) "work units accumulated" true (ctx.Opt.Phase.work > 0)

let suite =
  [
    test "constant folding" test_constant_folding;
    test "algebraic identities" test_algebraic_identities;
    test "strength reduction: div" test_strength_reduction_div;
    test "strength reduction: mul/rem" test_strength_reduction_mul_rem;
    test "not of cmp" test_not_of_cmp;
    test "new is never null" test_new_never_null;
    test "branch folding merges blocks" test_branch_folding_merges_blocks;
    test "straight-line merging" test_straightline_merging;
    test "gvn dedupes" test_gvn_dedupes;
    test "gvn commutative" test_gvn_commutative;
    test "gvn respects dominance" test_gvn_respects_dominance;
    test "condelim: dominating condition" test_condelim_dominating_condition;
    test "condelim: contradiction" test_condelim_contradiction;
    test "condelim: merge kills fact" test_condelim_same_condition_reuse;
    test "condelim: null check" test_condelim_null_check;
    test "readelim: same block" test_readelim_same_block;
    test "readelim: store forwarding" test_readelim_store_forwarding;
    test "readelim: call kills" test_readelim_call_kills;
    test "readelim: aliased store kills" test_readelim_store_kills_aliases;
    test "pea: scalar replacement" test_pea_scalar_replacement;
    test "pea: loop-carried field" test_pea_loop_carried_field;
    test "pea: escape through call" test_pea_escape_through_call;
    test "pea: escape through return" test_pea_escape_through_return;
    test "pea: phi-only escape detected" test_pea_escape_through_phi_detected;
    test "dce: dead cycle" test_dce_removes_dead_cycle;
    test "dce: keeps side effects" test_dce_keeps_side_effects;
    test "listing 1 semantics" test_listing1_semantics_preserved;
    test "listing 5 partial redundancy" test_listing5_partial_redundancy_survives_baseline;
    test "work units charged" test_work_units_charged;
    test "pea: nested chain in one run" test_pea_nested_chain_one_run;
    test "pea: field lookups" test_pea_field_lookups;
    test "pea: lookup phis do not pin a child"
      test_pea_lookup_phis_do_not_pin_a_child;
    test "pea: folds null compares" test_pea_folds_null_compares;
    test "pea: null compare keeps phi-only escape"
      test_pea_null_compare_keeps_phi_escape;
    test "phi of equal constants" test_phi_of_equal_consts;
    test "phi of equal constants ignores self" test_phi_of_equal_consts_ignores_self;
  ]
