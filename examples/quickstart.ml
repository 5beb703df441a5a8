(** Quickstart: build the paper's Figure 1 program directly with the IR
    builder API, run DBDS on it, and watch constant folding fire on the
    duplicated path.

    Run with: [dune exec examples/quickstart.exe] *)

open Ir.Types
module B = Ir.Builder

let () =
  (* int foo(int x) { int phi; if (x > 0) phi = x; else phi = 0;
                      return 2 + phi; } *)
  let b = B.create ~name:"foo" ~n_params:1 () in
  let x = B.param b 0 in
  let zero = B.const b 0 in
  let cond = B.cmp b Gt x zero in
  let bt = B.new_block b in
  let bf = B.new_block b in
  let merge = B.new_block b in
  B.branch b cond ~if_true:bt ~if_false:bf;
  B.switch b bt;
  B.jump b merge;
  B.switch b bf;
  B.jump b merge;
  let phi = B.phi b merge [ x; zero ] in
  B.switch b merge;
  let two = B.const b 2 in
  let sum = B.binop b Add two phi in
  B.ret b sum;
  let g = B.finish b in

  Format.printf "=== Figure 1: before ===@.%s@." (Ir.Printer.graph_to_string g);

  (* Simulate: the false predecessor (phi = 0) enables folding 2 + 0. *)
  let prog = Ir.Program.of_graph g in
  let ctx = Opt.Phase.create ~program:prog () in
  let candidates = Dbds.Simulation.simulate ctx Dbds.Config.default g in
  Format.printf "=== simulation tier found %d candidate(s) ===@."
    (List.length candidates);
  List.iter (fun c -> Format.printf "  %a@." Dbds.Candidate.pp c) candidates;

  (* Full DBDS: simulate -> trade-off -> optimize. *)
  let stats = Dbds.Driver.optimize_graph ctx g in
  Format.printf "@.=== after DBDS (%a) ===@.%s@." Dbds.Driver.pp_stats stats
    (Ir.Printer.graph_to_string g);

  (* The optimized program still computes the same function. *)
  List.iter
    (fun n ->
      let result, _ = Interp.Machine.run_graph g ~args:[| n |] in
      Format.printf "foo(%d) = %s@." n (Interp.Machine.result_to_string result))
    [ 5; -3; 0 ]
