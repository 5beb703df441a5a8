(** Tests for dominators, loops and frequencies. *)

open Ir.Types
module G = Ir.Graph
module B = Ir.Builder
open Helpers

(* A diamond with a loop around it:
   entry -> header; header -> (body | exit); body -> (bt | bf);
   bt -> latch; bf -> latch; latch -> header *)
let loop_diamond () =
  let b = B.create ~n_params:1 () in
  let x = B.param b 0 in
  let header = B.new_block b in
  let body = B.new_block b in
  let exit_b = B.new_block b in
  let bt = B.new_block b in
  let bf = B.new_block b in
  let latch = B.new_block b in
  B.jump b header;
  B.switch b header;
  let zero = B.const b 0 in
  let c = B.cmp b Gt x zero in
  B.branch ~prob:0.9 b c ~if_true:body ~if_false:exit_b;
  B.switch b body;
  let c2 = B.cmp b Lt x zero in
  B.branch b c2 ~if_true:bt ~if_false:bf;
  B.switch b bt;
  B.jump b latch;
  B.switch b bf;
  B.jump b latch;
  B.switch b latch;
  B.jump b header;
  B.switch b exit_b;
  B.ret b x;
  (B.finish b, header, body, bt, bf, latch, exit_b)

let test_idom_chain () =
  let g, header, body, bt, bf, latch, exit_b = loop_diamond () in
  let dom = Ir.Dom.compute g in
  let idom b = Option.get (Ir.Dom.idom dom b) in
  Alcotest.(check int) "idom(header) = entry" (G.entry g) (idom header);
  Alcotest.(check int) "idom(body) = header" header (idom body);
  Alcotest.(check int) "idom(exit) = header" header (idom exit_b);
  Alcotest.(check int) "idom(bt) = body" body (idom bt);
  Alcotest.(check int) "idom(bf) = body" body (idom bf);
  Alcotest.(check int) "idom(latch) = body" body (idom latch)

let test_dominates () =
  let g, header, body, bt, _, latch, exit_b = loop_diamond () in
  let dom = Ir.Dom.compute g in
  Alcotest.(check bool) "entry dominates all" true
    (Ir.Dom.dominates dom (G.entry g) latch);
  Alcotest.(check bool) "header dominates exit" true
    (Ir.Dom.dominates dom header exit_b);
  Alcotest.(check bool) "bt does not dominate latch" false
    (Ir.Dom.dominates dom bt latch);
  Alcotest.(check bool) "body dominates latch" true
    (Ir.Dom.dominates dom body latch);
  Alcotest.(check bool) "reflexive" true (Ir.Dom.dominates dom body body);
  Alcotest.(check bool) "not strict reflexive" false
    (Ir.Dom.strictly_dominates dom body body)

let test_children_partition () =
  let g, _, _, _, _, _, _ = loop_diamond () in
  let dom = Ir.Dom.compute g in
  (* Every non-entry reachable block appears exactly once as a child. *)
  let count = Hashtbl.create 8 in
  List.iter
    (fun b ->
      List.iter
        (fun c ->
          Hashtbl.replace count c (1 + Option.value ~default:0 (Hashtbl.find_opt count c)))
        (Ir.Dom.children dom b))
    (G.rpo g);
  List.iter
    (fun b ->
      if b <> G.entry g then
        Alcotest.(check int)
          (Printf.sprintf "b%d has one tree parent" b)
          1
          (Option.value ~default:0 (Hashtbl.find_opt count b)))
    (G.rpo g)

(* The natural-loop headers of [g], in reverse postorder. *)
let headers g =
  let loops = Ir.Loops.compute (Ir.Dom.compute g) in
  List.filter (Ir.Loops.is_header loops) (G.rpo g)

let test_loops () =
  let g, header, _, _, _, _, _ = loop_diamond () in
  Alcotest.(check (list int)) "one header" [ header ] (headers g)

let test_nested_loop_headers () =
  let prog =
    compile
      {|
      int main(int n) {
        int acc = 0;
        int i = 0;
        while (i < n) {
          int j = 0;
          while (j < n) {
            acc = acc + 1;
            j = j + 1;
          }
          i = i + 1;
        }
        return acc;
      }
    |}
  in
  let g = Option.get (Ir.Program.find_function prog "main") in
  match headers g with
  | [ outer; inner ] ->
      Alcotest.(check bool) "outer dominates inner" true
        (Ir.Dom.strictly_dominates (Ir.Dom.compute g) outer inner)
  | hs -> Alcotest.failf "%d loop headers, not two" (List.length hs)

let test_frequency_loop_scaling () =
  let g, header, _, _, _, _, exit_b = loop_diamond () in
  let dom = Ir.Dom.compute g in
  let loops = Ir.Loops.compute dom in
  let freq = Ir.Frequency.compute dom loops in
  Alcotest.(check bool) "header hotter than entry" true
    (Ir.Frequency.frequency freq header > Ir.Frequency.frequency freq (G.entry g));
  Alcotest.(check bool) "exit colder than header" true
    (Ir.Frequency.frequency freq exit_b < Ir.Frequency.frequency freq header);
  (* Relative frequency is in (0, 1]. *)
  List.iter
    (fun b ->
      let r = Ir.Frequency.relative freq b in
      Alcotest.(check bool) "relative in range" true (r >= 0.0 && r <= 1.0))
    (G.rpo g)

let test_frequency_branch_split () =
  let b = B.create ~n_params:1 () in
  let x = B.param b 0 in
  let zero = B.const b 0 in
  let c = B.cmp b Gt x zero in
  let bt = B.new_block b in
  let bf = B.new_block b in
  B.branch ~prob:0.9 b c ~if_true:bt ~if_false:bf;
  B.switch b bt;
  B.ret b x;
  B.switch b bf;
  B.ret b zero;
  let g = B.finish b in
  let dom = Ir.Dom.compute g in
  let loops = Ir.Loops.compute dom in
  let freq = Ir.Frequency.compute dom loops in
  Alcotest.(check (float 1e-9)) "true branch 0.9" 0.9
    (Ir.Frequency.frequency freq bt);
  Alcotest.(check (float 1e-9)) "false branch 0.1" 0.1
    (Ir.Frequency.frequency freq bf)

(* Does [a] dominate [b]?  Climbs [b]'s immediate-dominator chain. *)
let dominates_by_climb dom a b =
  let rec climb x =
    x = a || match Ir.Dom.idom dom x with Some p -> climb p | None -> false
  in
  Ir.Dom.is_reachable dom a && Ir.Dom.is_reachable dom b && climb b

let check_dominates_by_climb name g =
  let dom = Ir.Dom.compute g in
  let n = G.n_blocks g in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      if Ir.Dom.dominates dom a b <> dominates_by_climb dom a b then
        Alcotest.failf "%s/%s: dominates b%d b%d is %b" name (G.name g) a b
          (Ir.Dom.dominates dom a b)
    done
  done

(* [Dom.dominates] agrees with the idom chains on every block pair, on
   progen programs plain and irreducible and on the generated shapes,
   as compiled and after a dbds compile has duplicated into them. *)
let test_dominates_matches_climb () =
  let programs =
    List.concat_map
      (fun irreducible ->
        List.init 8 (fun seed ->
            ( Printf.sprintf "progen%s/%d"
                (if irreducible then "-irr" else "")
                seed,
              fun () -> Workloads.Progen.generate_program ~irreducible ~seed () )))
      [ false; true ]
    @ List.map
        (fun shape ->
          ( Workloads.Generated.name shape,
            fun () -> compile (Workloads.Generated.source shape ~seed:0) ))
        Workloads.Generated.shapes
  in
  List.iter
    (fun (name, make) ->
      let prog = make () in
      Ir.Program.iter_functions prog (check_dominates_by_climb name);
      ignore
        (Dbds.Driver.optimize_program_report ~config:Dbds.Config.dbds ~jobs:1
           prog);
      Ir.Program.iter_functions prog (check_dominates_by_climb (name ^ "@dbds")))
    programs

let suite =
  [
    test "idom chain" test_idom_chain;
    test "dominates" test_dominates;
    test "dominates agrees with the idom chains" test_dominates_matches_climb;
    test "dom-tree children partition" test_children_partition;
    test "loop detection" test_loops;
    test "nested loop headers" test_nested_loop_headers;
    test "frequency: loop scaling" test_frequency_loop_scaling;
    test "frequency: branch split" test_frequency_branch_split;
  ]
