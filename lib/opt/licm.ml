(** Loop-invariant code motion.

    Pure instructions whose operands are all defined outside a loop (or
    already hoisted) move to the loop's unique outside predecessor.  Our
    arithmetic is total (division by zero is defined), so hoisting is
    plain speculation — safe, at worst wasted cycles on the non-loop
    path.  Memory reads stay put (they would need the read-elimination
    machinery to prove stability across iterations).

    This phase is not part of the calibrated default pipeline
    ({!Pipeline.classic_names}): the evaluation's baseline/DBDS/dupalot
    comparison uses a fixed phase plan (as the paper's Graal configuration
    does), and adding a phase would shift every measured ratio.  It runs
    where a pipeline spec names it ([dbdsc --passes '...,licm']) and in
    its own test suite. *)

open Ir.Types
module G = Ir.Graph

let hoistable = function
  | Binop _ | Cmp _ | Neg _ | Not _ | Const _ | Null -> true
  | Param _ | Phi _ | New _ | Load _ | Store _ | Load_global _
  | Store_global _ | Call _ ->
      false

(* The unique predecessor of [header] outside the loop body, if any. *)
let outside_pred g (loop : Ir.Loops.loop) =
  let inside b = List.mem b loop.Ir.Loops.body in
  match List.filter (fun p -> not (inside p)) (G.preds g loop.Ir.Loops.header) with
  | [ p ] -> Some p
  | _ -> None

let run ctx g =
  Phase.charge_graph ctx g;
  let loops = Ir.Analyses.loops g in
  let changed = ref false in
  List.iter
    (fun loop ->
      match outside_pred g loop with
      | None -> ()
      | Some pre ->
          let in_loop = Hashtbl.create 16 in
          List.iter (fun b -> Hashtbl.replace in_loop b ()) loop.Ir.Loops.body;
          (* A value is invariant if defined outside the loop, or defined
             in the loop by a hoistable instruction whose inputs are all
             invariant (resolved iteratively). *)
          let progress = ref true in
          while !progress do
            progress := false;
            List.iter
              (fun bid ->
                List.iter
                  (fun id ->
                    if
                      G.instr_exists g id
                      && G.block_of g id = bid
                      && hoistable (G.kind g id)
                      && List.for_all
                           (fun v -> not (Hashtbl.mem in_loop (G.block_of g v)))
                           (inputs_of_kind (G.kind g id))
                    then begin
                      (* Move to the end of the preheader's body. *)
                      G.detach g id;
                      G.attach g id pre;
                      progress := true;
                      changed := true
                    end)
                  (G.body g bid))
              loop.Ir.Loops.body
          done)
    (Ir.Loops.loops loops);
  !changed

(* Hoisting moves instructions between existing blocks; edges and
   terminators are untouched. *)
let phase = Phase.make ~preserves:Ir.Analyses.all_kinds "licm" run
