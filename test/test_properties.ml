(** Property-based tests (qcheck): random programs from {!Workloads.Progen}
    are pushed through every configuration, checking that the IR verifies
    and that observable behaviour is bit-identical to the unoptimized
    program.  A divergence in results, a verifier failure, or an
    unexpected exception fails with the generating seed, which reproduces
    the program deterministically. *)

open Helpers

let input_vectors = [ [| 0; 0 |]; [| 1; 7 |]; [| -9; 3 |]; [| 64; -2 |]; [| 5; 5 |] ]

(* Observable behaviour: the returned value plus the final globals. *)
let observe prog args =
  match
    Interp.Machine.run_full ~icache:Interp.Machine.no_icache ~fuel:2_000_000
      prog ~args
  with
  | r, _, globals ->
      Printf.sprintf "%s | %s"
        (Interp.Machine.result_to_string r)
        (String.concat ";"
           (List.map
              (fun (name, v) ->
                name ^ "=" ^ Interp.Machine.value_to_string v)
              globals))
  | exception Interp.Machine.Runtime_error m -> "fault: " ^ m
  | exception Interp.Machine.Out_of_fuel -> "fuel"

let compile_seed seed =
  let src = Workloads.Progen.generate ~seed () in
  match Lang.Frontend.compile src with
  | prog -> (src, prog)
  | exception Lang.Frontend.Error msg ->
      QCheck2.Test.fail_reportf "seed %d: frontend failed: %s\n%s" seed msg src

let check_config name config seed =
  let src, prog = compile_seed seed in
  let prog' = Ir.Program.copy prog in
  (try ignore (Dbds.Driver.optimize_program_report ~config prog')
   with e ->
     QCheck2.Test.fail_reportf "seed %d: %s optimization raised %s\n%s" seed
       name (Printexc.to_string e) src);
  Ir.Program.iter_functions prog' (fun g ->
      match Ir.Verifier.verify_result g with
      | Ok () -> ()
      | Error m ->
          QCheck2.Test.fail_reportf "seed %d: %s produced invalid IR (%s): %s"
            seed name (Ir.Graph.name g) m);
  List.iter
    (fun args ->
      let a = observe prog args and b = observe prog' args in
      if a <> b then
        QCheck2.Test.fail_reportf
          "seed %d: %s diverged on %s: %s vs %s\n%s" seed name
          (String.concat "," (Array.to_list (Array.map string_of_int args)))
          a b src)
    input_vectors;
  true

let seed_gen = QCheck2.Gen.int_bound 1_000_000

let prop_frontend_verifies =
  qtest ~count:150 "random programs compile and verify" seed_gen (fun seed ->
      let _, prog = compile_seed seed in
      Ir.Program.iter_functions prog (fun g ->
          match Ir.Verifier.verify_result g with
          | Ok () -> ()
          | Error m ->
              QCheck2.Test.fail_reportf "seed %d: invalid IR: %s" seed m);
      true)

let prop_baseline_preserves =
  qtest ~count:120 "baseline optimization preserves semantics" seed_gen
    (check_config "baseline" Dbds.Config.off)

let prop_dbds_preserves =
  qtest ~count:120 "dbds preserves semantics" seed_gen
    (check_config "dbds" Dbds.Config.dbds)

let prop_dupalot_preserves =
  qtest ~count:80 "dupalot preserves semantics" seed_gen
    (check_config "dupalot" Dbds.Config.dupalot)

let prop_paths_preserves =
  qtest ~count:80 "path duplication preserves semantics" seed_gen
    (check_config "dbds-paths" Dbds.Config.dbds_paths)

let prop_backtracking_preserves =
  qtest ~count:25 "backtracking preserves semantics" seed_gen
    (check_config "backtracking" Dbds.Config.backtracking)

(* Duplicating an arbitrary (merge, pred) pair — even ones the trade-off
   would reject — must preserve semantics and SSA form. *)
let prop_any_duplication_sound =
  qtest ~count:120 "arbitrary duplication is sound" seed_gen (fun seed ->
      let src, prog = compile_seed seed in
      let prog' = Ir.Program.copy prog in
      let rng = Random.State.make [| seed + 17 |] in
      Ir.Program.iter_functions prog' (fun g ->
          let merges =
            Ir.Graph.fold_blocks g
              (fun acc bid ->
                if
                  Ir.Graph.pred_count g bid >= 2
                  && not (List.mem bid (Ir.Graph.succs g bid))
                then bid :: acc
                else acc)
              []
          in
          List.iter
            (fun m ->
              if
                Ir.Graph.block_exists g m
                && List.length (Ir.Graph.preds g m) >= 2
                && Random.State.bool rng
              then begin
                let preds = Ir.Graph.preds g m in
                let p = List.nth preds (Random.State.int rng (List.length preds)) in
                (try ignore (Dbds.Transform.duplicate g ~merge:m ~pred:p)
                 with Dbds.Transform.Not_applicable _ -> ());
                match Ir.Verifier.verify_result g with
                | Ok () -> ()
                | Error msg ->
                    QCheck2.Test.fail_reportf
                      "seed %d: invalid IR after duplicating b%d->b%d: %s\n%s"
                      seed p m msg src
              end)
            merges);
      List.iter
        (fun args ->
          let a = observe prog args and b = observe prog' args in
          if a <> b then
            QCheck2.Test.fail_reportf "seed %d: duplication diverged: %s vs %s\n%s"
              seed a b src)
        input_vectors;
      true)

(* Loop-aware frequencies and cost estimates stay finite and sane. *)
let prop_estimates_sane =
  qtest ~count:100 "cost estimates are finite and non-negative" seed_gen
    (fun seed ->
      let _, prog = compile_seed seed in
      Ir.Program.iter_functions prog (fun g ->
          let s = Costmodel.Estimate.graph_size g in
          let c = Costmodel.Estimate.weighted_cycles g in
          if s < 0 then QCheck2.Test.fail_reportf "negative size %d" s;
          if not (Float.is_finite c) || c < 0.0 then
            QCheck2.Test.fail_reportf "bad cycles %f" c);
      true)

(* Dominator-tree invariants on random CFGs. *)
let prop_dominators_sane =
  qtest ~count:100 "dominator invariants" seed_gen (fun seed ->
      let _, prog = compile_seed seed in
      Ir.Program.iter_functions prog (fun g ->
          let dom = Ir.Dom.compute g in
          List.iter
            (fun b ->
              (match Ir.Dom.idom dom b with
              | Some p ->
                  if not (Ir.Dom.strictly_dominates dom p b) then
                    QCheck2.Test.fail_reportf
                      "idom b%d = b%d does not strictly dominate" b p
              | None ->
                  if b <> Ir.Graph.entry g then
                    QCheck2.Test.fail_reportf "non-entry b%d has no idom" b);
              (* every predecessor is dominated by.. no: every block is
                 dominated by the entry. *)
              if not (Ir.Dom.dominates dom (Ir.Graph.entry g) b) then
                QCheck2.Test.fail_reportf "entry does not dominate b%d" b)
            (Ir.Graph.rpo g));
      true)

(* The simulation tier never mutates observable behaviour. *)
let prop_simulation_is_pure =
  qtest ~count:80 "simulation does not change behaviour" seed_gen (fun seed ->
      let src, prog = compile_seed seed in
      let prog' = Ir.Program.copy prog in
      let ctx = Opt.Phase.create ~program:prog' () in
      Ir.Program.iter_functions prog' (fun g ->
          ignore (Dbds.Simulation.simulate ctx Dbds.Config.default g);
          match Ir.Verifier.verify_result g with
          | Ok () -> ()
          | Error m ->
              QCheck2.Test.fail_reportf "seed %d: simulation broke IR: %s" seed m);
      List.iter
        (fun args ->
          let a = observe prog args and b = observe prog' args in
          if a <> b then
            QCheck2.Test.fail_reportf "seed %d: simulation diverged\n%s" seed src)
        input_vectors;
      true)

let suite =
  [
    prop_frontend_verifies;
    prop_baseline_preserves;
    prop_dbds_preserves;
    prop_dupalot_preserves;
    prop_paths_preserves;
    prop_backtracking_preserves;
    prop_any_duplication_sound;
    prop_estimates_sane;
    prop_dominators_sane;
    prop_simulation_is_pure;
  ]
