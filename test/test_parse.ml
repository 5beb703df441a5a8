(** IR text parser tests: hand-written fixtures, error reporting, and the
    print→parse round-trip property over random programs. *)

open Helpers
module G = Ir.Graph

let run_graph g args =
  match Interp.Machine.run_graph ~icache:Interp.Machine.no_icache g ~args with
  | Some (Interp.Machine.VInt n), _ -> Some n
  | None, _ -> None
  | Some _, _ -> Alcotest.fail "int expected"

let test_parse_fixture () =
  (* The Figure 1 diamond, written by hand. *)
  let text =
    {|fn foo(1 params) entry=b0
b0:
  v0 = param 0
  v1 = const 0
  v2 = cmp.gt v0, v1
  branch v2 ? b1 : b2  @0.50
b1:  ; preds: b0
  jump b3
b2:  ; preds: b0
  jump b3
b3:  ; preds: b1, b2
  v3 = phi [v0, v1]
  v4 = const 2
  v5 = add v4, v3
  return v5
|}
  in
  let g = Ir.Parse.parse_graph text in
  check_verifies g;
  Alcotest.(check string) "name" "foo" (G.name g);
  Alcotest.(check int) "params" 1 (G.n_params g);
  Alcotest.(check int) "blocks" 4 (G.live_block_count g);
  Alcotest.(check (option int)) "foo(5)" (Some 7) (run_graph g [| 5 |]);
  Alcotest.(check (option int)) "foo(-1)" (Some 2) (run_graph g [| -1 |])

let test_parse_all_kinds () =
  let text =
    {|fn k(2 params) entry=b0
b0:
  v0 = param 0
  v1 = param 1
  v2 = null
  v3 = new Box(v0, v1)
  v4 = load v3.a
  v5 = store v3.b <- v4
  v6 = gload counter
  v7 = gstore counter <- v4
  v8 = cmp.eq v3, v2
  v9 = not v8
  v10 = neg v0
  v11 = xor v10, v1
  v12 = call helper(v11)
  return v11
|}
  in
  let g = Ir.Parse.parse_graph text in
  (* All 13 instructions survive with their kinds. *)
  Alcotest.(check int) "instruction count" 13 (G.live_instr_count g);
  let kinds =
    G.fold_instrs g (fun acc id -> G.kind g id :: acc) [] |> List.rev_map (fun k ->
        Fmt.str "%a" Ir.Printer.pp_kind k)
  in
  Alcotest.(check bool) "has the store" true
    (List.exists (fun s -> String.length s >= 5 && String.sub s 0 5 = "store") kinds)

let test_parse_errors () =
  let expect_error text =
    match Ir.Parse.parse_graph text with
    | exception Ir.Parse.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected a parse error for %S" text
  in
  expect_error "b0:\n  return";
  (* no header *)
  expect_error "fn f(0 params) entry=b0\nb0:\n  v0 = bogus v1\n  return";
  expect_error "fn f(0 params) entry=b0\nb0:\n  v0 = const 1\n";
  (* missing terminator *)
  expect_error "fn f(0 params) entry=b0\nb0:\n  jump b9";
  (* undefined block *)
  expect_error
    "fn f(0 params) entry=b0\nb0:\n  v0 = const 1\n  v0 = const 2\n  return";
  (* duplicate value *)
  expect_error
    "fn f(0 params) entry=b0\nb0:\n  v0 = const 1\n\
    \  branch v0 ? b1 : b2  @x\nb1:\n  return\nb2:\n  return"
  (* malformed branch probability *)

let test_roundtrip_random_programs () =
  List.iter
    (fun seed ->
      let src = Workloads.Progen.generate ~seed () in
      let prog = compile src in
      let g = Option.get (Ir.Program.find_function prog "main") in
      let text = Ir.Printer.graph_to_string g in
      let g' =
        try Ir.Parse.parse_graph text
        with Ir.Parse.Parse_error m ->
          Alcotest.failf "seed %d: roundtrip parse failed: %s\n%s" seed m text
      in
      check_verifies g';
      Alcotest.(check int)
        (Printf.sprintf "seed %d: block count" seed)
        (G.live_block_count g) (G.live_block_count g');
      Alcotest.(check int)
        (Printf.sprintf "seed %d: instr count" seed)
        (G.live_instr_count g) (G.live_instr_count g');
      (* Calls reference helpers we did not parse, so compare only graphs
         that are call-free. *)
      let has_call =
        G.fold_instrs g
          (fun acc id ->
            acc || match G.kind g id with Ir.Types.Call _ -> true | _ -> false)
          false
      in
      if not has_call then
        List.iter
          (fun args ->
            Alcotest.(check (option int))
              (Printf.sprintf "seed %d: semantics" seed)
              (run_graph g args) (run_graph g' args))
          [ [| 0; 0 |]; [| 9; -4 |] ])
    [ 0; 1; 2; 3; 4; 5; 10; 42; 345; 777 ]

let test_roundtrip_after_duplication () =
  (* Round-trip a graph that went through DBDS (stresses phis inserted by
     SSA repair and dense/loopy shapes). *)
  let src = Workloads.Progen.generate ~seed:7 () in
  let prog = compile src in
  let _ = Dbds.Driver.optimize_program_report prog in
  Ir.Program.iter_functions prog (fun g ->
      let text = Ir.Printer.graph_to_string g in
      let g' = Ir.Parse.parse_graph text in
      check_verifies g';
      Alcotest.(check int) "instr count"
        (G.live_instr_count g) (G.live_instr_count g'))

(* The parser's errors, message for message: which one a text raises
   is part of the format (tests and the service report it).  Binary
   operands are checked right to left, and all terminators before any
   instruction. *)
let test_parse_error_messages () =
  let expect_message text msg =
    match Ir.Parse.parse_graph text with
    | exception Ir.Parse.Parse_error m -> Alcotest.(check string) text msg m
    | _ -> Alcotest.failf "expected %S for %S" msg text
  in
  let fn = "fn f(1 params) entry=b0\n" in
  expect_message (fn ^ "b0:\n  v0 = const 1\n  v0 = const 2\n  return v7")
    "duplicate value v0";
  expect_message (fn ^ "b0:\n  v0 = const 1\n  return v7")
    "reference to undefined value v7";
  expect_message (fn ^ "b0:\n  v0 = add v8, v9\n  return v0")
    "reference to undefined value v9";
  expect_message (fn ^ "b0:\n  v0 = add v1, v9\n  return v8")
    "reference to undefined value v8";
  expect_message (fn ^ "b0:\n  jump b4\nb0:\n  return") "duplicate block b0";
  expect_message "fn f(0 params) entry=b3\nb0:\n  return"
    "reference to undefined block b3";
  expect_message (fn ^ "b0:\n  v1 = const 1\n  jump b5\nb1:\n  v1 = const 2\n  return")
    "duplicate value v1";
  let diamond preds =
    fn ^ "b0:\n  v0 = param 0\n  branch v0 ? b1 : b2\nb1:  ; preds: b0\n  jump b3\n\
          b2:  ; preds: b0\n  jump b3\nb3:  ; preds: " ^ preds
    ^ "\n  v1 = phi [v0, v0]\n  return v1"
  in
  expect_message (diamond "b1, b2, b0") "phi arity mismatch in b3";
  expect_message (diamond "b1, b0") "predecessor mismatch in b3";
  expect_message (diamond "b1, b9") "reference to undefined block b9"

(* A value's terminator reads are its oldest uses, then its instruction
   reads in text order, newest first: the order the passes see. *)
let test_parse_use_order () =
  let g =
    Ir.Parse.parse_graph
      "fn f(1 params) entry=b0\nb0:\n  v0 = param 0\n  v1 = add v0, v0\n\
       \  branch v0 ? b1 : b2\nb1:  ; preds: b0\n  return v1\n\
       b2:  ; preds: b0\n  v2 = neg v0\n  return v0"
  in
  Alcotest.(check (list string)) "uses of v0"
    [ "i2"; "i1"; "i1"; "t2"; "t0" ]
    (List.map
       (function G.U_instr i -> Printf.sprintf "i%d" i | G.U_term b -> Printf.sprintf "t%d" b)
       (G.uses g 0))

(* A sparse or huge textual id maps through a table: parsing it costs
   what a dense one does, not an array as long as the id. *)
let test_parse_sparse_ids () =
  let bytes f =
    let a0 = Gc.allocated_bytes () in
    let g = f () in
    (g, Gc.allocated_bytes () -. a0)
  in
  let g, huge =
    bytes (fun () ->
        Ir.Parse.parse_graph
          "fn f(0 params) entry=b999999999\nb999999999:\n  v999999999999 = const 1\n\
          \  return v999999999999")
  in
  Alcotest.(check int) "one instruction" 1 (G.live_instr_count g);
  Alcotest.(check bool) "under 64 KiB" true (huge < 65536.);
  let sparse =
    let b = Buffer.create 4096 in
    Buffer.add_string b "fn f(0 params) entry=b7000000\nb7000000:\n";
    for i = 1 to 200 do
      Printf.bprintf b "  v%d = const %d\n" (i * 1_000_003) i
    done;
    Buffer.add_string b "  return v200000600\n";
    Buffer.contents b
  in
  let g, cost = bytes (fun () -> Ir.Parse.parse_graph sparse) in
  Alcotest.(check int) "200 instructions" 200 (G.live_instr_count g);
  Alcotest.(check bool) "under 1 MiB" true (cost < 1048576.)

let suite =
  [
    test "hand-written fixture" test_parse_fixture;
    test "all instruction kinds" test_parse_all_kinds;
    test "parse errors" test_parse_errors;
    test "parse error messages" test_parse_error_messages;
    test "use order" test_parse_use_order;
    test "sparse and huge ids stay cheap" test_parse_sparse_ids;
    test "roundtrip random programs" test_roundtrip_random_programs;
    test "roundtrip after duplication" test_roundtrip_after_duplication;
  ]
