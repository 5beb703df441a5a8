(** The paper's Listings 5 and 6: read elimination enabled by duplication.

    [Read2] ([return a.x]) is only {e partially} redundant: it repeats
    [Read1] on the then-path but not on the else-path, so baseline read
    elimination cannot touch it.  Duplicating the return block promotes it
    to fully redundant on the hot path — Listing 6's residual program.

    Run with: [dune exec examples/read_elimination.exe] *)

let source =
  {|
  class A { int x; }
  global int s;
  global A cache;
  int foo(A a, int i) {
    if (i > 0) @0.9 { s = a.x; } else { s = 0; }
    return a.x;
  }
  int main(int i) {
    A a = new A(41);
    cache = a;  /* the object escapes: scalar replacement cannot elide it */
    return foo(a, i);
  }
  |}

let count_loads g =
  Ir.Graph.fold_instrs g
    (fun n id ->
      match Ir.Graph.kind g id with Ir.Types.Load _ -> n + 1 | _ -> n)
    0

let dynamic_instrs prog i =
  let _, stats =
    Interp.Machine.run ~icache:Interp.Machine.no_icache prog ~args:[| i |]
  in
  stats.Interp.Machine.instrs_executed

let () =
  let prog = Lang.Frontend.compile source in
  let baseline = Ir.Program.copy prog in
  ignore
    (Dbds.Driver.optimize_program_report ~config:Dbds.Config.off baseline);

  let g = Option.get (Ir.Program.find_function prog "foo") in
  Format.printf "=== Listing 5 ===@.%s@." (Ir.Printer.graph_to_string g);

  let ctx = Opt.Phase.create ~program:prog () in
  let candidates = Dbds.Simulation.simulate ctx Dbds.Config.default g in
  Format.printf "=== simulation results ===@.";
  List.iter (fun c -> Format.printf "  %a@." Dbds.Candidate.pp c) candidates;

  ignore (Dbds.Driver.optimize_program_report prog);
  let g = Option.get (Ir.Program.find_function prog "foo") in
  Format.printf "@.=== after DBDS (Listing 6's shape) ===@.%s@."
    (Ir.Printer.graph_to_string g);
  Format.printf "static loads in foo: %d (one per path)@." (count_loads g);

  (* On the hot path the duplicated read is gone: fewer dynamic
     instructions than baseline. *)
  Format.printf "dynamic instructions, hot path: baseline %d vs DBDS %d@."
    (dynamic_instrs baseline 5) (dynamic_instrs prog 5);
  List.iter
    (fun i ->
      let result, _ = Interp.Machine.run prog ~args:[| i |] in
      Format.printf "main(%d) = %s@." i (Interp.Machine.result_to_string result))
    [ 5; -5 ]
