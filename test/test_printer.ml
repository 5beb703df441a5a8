(** Printer and Graphviz-export tests: the dumps must mention every
    instruction and survive special characters; dot output must be
    structurally well-formed. *)

open Helpers
module G = Ir.Graph

let sample () =
  compile
    {|
    class A { int x; }
    global int gs;
    int main(int n) {
      A a = new A(n);
      int acc = 0;
      int i = 0;
      while (i < n) @0.9 {
        if (i % 2 == 0) { acc = acc + a.x; } else { gs = gs + 1; }
        i = i + 1;
      }
      return acc;
    }
    |}

let test_printer_mentions_everything () =
  let prog = sample () in
  let g = Option.get (Ir.Program.find_function prog "main") in
  let text = Ir.Printer.graph_to_string g in
  G.iter_instrs g (fun id ->
      let needle = Printf.sprintf "v%d = " id in
      if not (contains ~sub:needle text) then
        Alcotest.failf "dump is missing %s" needle);
  G.iter_blocks g (fun bid ->
      let needle = Printf.sprintf "b%d:" bid in
      if not (contains ~sub:needle text) then
        Alcotest.failf "dump is missing %s" needle);
  Alcotest.(check bool) "mentions the branch probability" true
    (contains ~sub:"@0.90" text)

let test_printer_kinds () =
  let prog = sample () in
  let g = Option.get (Ir.Program.find_function prog "main") in
  let text = Ir.Printer.graph_to_string g in
  List.iter
    (fun sub ->
      Alcotest.(check bool) ("contains " ^ sub) true (contains ~sub text))
    [ "new A("; "load "; "gstore gs"; "phi ["; "cmp.lt"; "branch "; "return " ]

let test_dot_well_formed () =
  let prog = sample () in
  let g = Option.get (Ir.Program.find_function prog "main") in
  let dot = Ir.Dot.to_string g in
  Alcotest.(check bool) "digraph header" true (contains ~sub:"digraph" dot);
  Alcotest.(check bool) "closing brace" true
    (String.length dot > 0 && String.get dot (String.length dot - 2) = '}'
    || contains ~sub:"}" dot);
  (* Every reachable block appears as a node, and branch edges carry
     true/false labels. *)
  List.iter
    (fun bid ->
      Alcotest.(check bool)
        (Printf.sprintf "node b%d present" bid)
        true
        (contains ~sub:(Printf.sprintf "b%d [label=" bid) dot))
    (G.rpo g);
  Alcotest.(check bool) "true edge labelled" true (contains ~sub:"T 0.90" dot)

let test_dot_labels_balanced () =
  (* Every label string must keep its quotes balanced (escaping). *)
  let prog = sample () in
  let g = Option.get (Ir.Program.find_function prog "main") in
  let dot = Ir.Dot.to_string g in
  let quotes = String.fold_left (fun n c -> if c = '"' then n + 1 else n) 0 dot in
  Alcotest.(check int) "even number of quotes" 0 (quotes mod 2)

let test_dot_write_file () =
  let prog = sample () in
  let g = Option.get (Ir.Program.find_function prog "main") in
  let path = Filename.temp_file "dbds" ".dot" in
  Ir.Dot.write_file path g;
  let ic = open_in path in
  let len = in_channel_length ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check bool) "non-empty file" true (len > 100)

let suite =
  [
    test "dump mentions everything" test_printer_mentions_everything;
    test "dump kinds" test_printer_kinds;
    test "dot well-formed" test_dot_well_formed;
    test "dot labels balanced" test_dot_labels_balanced;
    test "dot write_file" test_dot_write_file;
  ]
