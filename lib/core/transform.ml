(** The duplication transformation (the optimization tier's primitive,
    paper §4.3): copy a merge block into one of its predecessors.

    Given merge [bm] and predecessor [bp]:
    + a fresh block [bm'] receives a copy of [bm]'s body, with [bm]'s
      phis resolved to their inputs along the [bp] edge;
    + [bm']'s terminator replicates [bm]'s, so [bm]'s successors gain
      [bm'] as a predecessor (their phis receive the copied values);
    + the [bp → bm] edge is redirected to [bm'];
    + SSA is reconstructed: every value defined in [bm] (including its
      phis) now has an alternate definition on the duplicated path, and
      uses in blocks [bm] no longer dominates are rewritten through
      freshly placed phis ({!Ir.Ssa_repair}).

    If this removed [bm]'s last second predecessor, the CFG simplifier
    will merge the now-straight-line blocks.  No block becomes
    unreachable, so the CFG needs no sweep afterwards. *)

open Ir.Types
module G = Ir.Graph

exception Not_applicable of string

(** [duplicate g ~merge ~pred] performs the transformation and returns the
    id of the duplicate block. *)
let duplicate g ~merge ~pred =
  let bm = merge and bp = pred in
  if not (G.block_exists g bm) then Not_applicable "merge block is gone" |> raise;
  if not (G.block_exists g bp) then Not_applicable "predecessor is gone" |> raise;
  if not (List.mem bp (G.preds g bm)) then
    raise (Not_applicable "edge no longer exists");
  if List.length (G.preds g bm) < 2 then
    raise (Not_applicable "not a merge anymore");
  (match G.term g bp with
  | Jump _ | Branch _ -> ()
  | Return _ | Unreachable -> raise (Not_applicable "predecessor has no edge"));
  (* Loop headers are merges too, but duplicating one is loop
     peeling/rotation, not tail duplication: the copied block represents
     the *next* iteration, so phi inputs that reference values defined in
     the loop (in particular other phis of the same header) are off by one
     iteration under the sequential SSA repair.  The simulation tier never
     proposes loop headers; reject them here as well so the backtracking
     strategy cannot reach them either. *)
  let dom = Ir.Analyses.dom g in
  if List.exists (fun q -> Ir.Dom.dominates dom bm q) (G.preds g bm) then
    raise (Not_applicable "merge is a loop header");
  (* With every block reachable, duplication strands none: [bp] reaches
     [bm'], which has [bm]'s successors, and [bm] keeps a path from
     each other predecessor, which it does not dominate.  So the
     graph's reachability bit stays clear (see {!G.keep_reachability}). *)
  G.keep_reachability g @@ fun () ->
  let pred_idx = G.pred_index g bm bp in
  let phis = G.phis g bm in
  let body = G.body g bm in
  (* Value substitution for the duplicated path. *)
  let mapping : (value, value) Hashtbl.t = Hashtbl.create 16 in
  let subst v =
    match Hashtbl.find_opt mapping v with Some v' -> v' | None -> v
  in
  List.iter
    (fun phi ->
      match G.kind g phi with
      | Phi inputs -> Hashtbl.replace mapping phi inputs.(pred_idx)
      | _ -> assert false)
    phis;
  let bm' = G.add_block g in
  List.iter
    (fun id ->
      let kind' = map_inputs subst (G.kind g id) in
      let id' = G.append g bm' kind' in
      Hashtbl.replace mapping id id')
    body;
  (* Replicate the terminator; successors gain bm' as predecessor with
     placeholder phi inputs that we fill from the substitution. *)
  let term' =
    match G.term g bm with
    | Jump t -> Jump t
    | Branch br -> Branch { br with cond = subst br.cond }
    | Return (Some v) -> Return (Some (subst v))
    | Return None -> Return None
    | Unreachable -> Unreachable
  in
  G.set_term g bm' term';
  (* Fault site: the transform is mid-mutation here (bm' exists, the
     edge is not yet redirected) — an injected crash exercises
     containment's ability to undo a partial duplication. *)
  Faults.hit Faults.Transform_apply;
  List.iter
    (fun s ->
      let idx_bm = G.pred_index g s bm in
      let idx_bm' = G.pred_index g s bm' in
      List.iter
        (fun phi ->
          match G.kind g phi with
          | Phi inputs ->
              let inputs = Array.copy inputs in
              inputs.(idx_bm') <- subst inputs.(idx_bm);
              G.set_kind g phi (Phi inputs)
          | _ -> assert false)
        (G.phis g s))
    (G.succs g bm');
  (* Steer bp into the duplicate. *)
  G.redirect_edge g ~from_block:bp ~old_target:bm ~new_target:bm';
  (* SSA reconstruction for every value bm defines: on the duplicated
     path, the reaching definition at the end of bm' is the copy (for
     body instructions) or the phi's input (for phis). *)
  let classes =
    List.map (fun phi -> (phi, [ (bm', Hashtbl.find mapping phi) ])) phis
    @ List.map (fun id -> (id, [ (bm', Hashtbl.find mapping id) ])) body
  in
  ignore (Ir.Ssa_repair.repair g ~classes);
  bm'
