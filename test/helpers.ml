(** Shared helpers for the test suites. *)

let check_verifies g =
  match Ir.Verifier.verify_result g with
  | Ok () -> ()
  | Error msg ->
      Alcotest.failf "IR verification failed: %s\n%s" msg
        (Ir.Printer.graph_to_string g)

let check_program_verifies prog =
  Ir.Program.iter_functions prog check_verifies

(** Compile source text, failing the test on frontend errors. *)
let compile src =
  match Lang.Frontend.compile src with
  | prog -> prog
  | exception Lang.Frontend.Error msg -> Alcotest.failf "frontend: %s" msg

(** A [main] whose loop sits behind the constant guard [1 > 2]. *)
let stranded_loop_src =
  "int main(int x) { int s = 0; if (1 > 2) { while (s < x) { s = s + 1; } \
   } return s + x; }"

(** Fold [stranded_loop_src]'s constant guard in [g] (its [main]) to the
    false edge: the loop behind it is stranded, although its header
    keeps a predecessor (the back edge). *)
let fold_constant_guard g =
  let module G = Ir.Graph in
  let const v = match G.kind g v with Ir.Types.Const _ -> true | _ -> false in
  let guard =
    List.find
      (fun b ->
        match G.term g b with
        | Ir.Types.Branch { cond; _ } -> (
            match G.kind g cond with
            | Ir.Types.Cmp (Gt, a, c) -> const a && const c
            | _ -> false)
        | _ -> false)
      (G.rpo g)
  in
  match G.term g guard with
  | Ir.Types.Branch { if_false; _ } -> G.set_term g guard (Jump if_false)
  | _ -> assert false

(** Run a program's main on integer args, expecting an integer result. *)
let run_int ?icache ?fuel prog args =
  match Interp.Machine.run ?icache ?fuel prog ~args:(Array.of_list args) with
  | Some (Interp.Machine.VInt n), _ -> n
  | r, _ ->
      Alcotest.failf "expected int result, got %s"
        (Interp.Machine.result_to_string r)

(** Run and also return the stats. *)
let run_int_stats ?icache ?fuel prog args =
  match Interp.Machine.run ?icache ?fuel prog ~args:(Array.of_list args) with
  | Some (Interp.Machine.VInt n), stats -> (n, stats)
  | r, _ ->
      Alcotest.failf "expected int result, got %s"
        (Interp.Machine.result_to_string r)

(** Compile and run source on args. *)
let eval ?icache ?fuel src args = run_int ?icache ?fuel (compile src) args

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test name f = Alcotest.test_case name `Quick f

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count gen prop)

(** Send compile requests for [ir] that the service must refuse rather
    than compile as the mode's default pipeline — an unparseable
    [passes=] spec, a spec naming an option no pass takes, a bare
    token, a key this version no longer knows, and a bad fault plan —
    and check that every reply is [rejected]. *)
let check_malformed_compiles_rejected ~roundtrip ~ir =
  let config = Dbds.Config.default in
  let line = Dbds.Config.to_line config in
  let base = Service.Client.compile_msg ~config ~fn:"main" ~ir () in
  let with_field k v =
    {
      base with
      Service.Protocol.fields =
        (k, v) :: List.remove_assoc k base.Service.Protocol.fields;
    }
  in
  List.iter
    (fun (what, m) ->
      match roundtrip m with
      | Ok reply ->
          Alcotest.(check (option string))
            (what ^ " is rejected") (Some "rejected")
            (Service.Protocol.field reply "status")
      | Error e -> Alcotest.failf "%s: %s" what e)
    [
      ("passes=fix(canon", with_field "config" (line ^ " passes=fix(canon"));
      ( "passes=fix(pea{max_rounds=2})",
        with_field "config" (line ^ " passes=fix(pea{max_rounds=2})") );
      ("a bare config token", with_field "config" (line ^ " junk"));
      ( "the removed preserve_analyses key",
        with_field "config" (line ^ " preserve_analyses=true") );
      ("inject=bogus:1", with_field "inject" "bogus:1");
    ]
