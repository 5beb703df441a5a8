(** Control-flow simplification: fold branches on constants, remove
    unreachable blocks, merge straight-line block pairs, and skip empty
    forwarding blocks.  Runs after duplication to clean up degenerate
    shapes (a merge block left with one predecessor, dead branches
    revealed by folding). *)

open Ir.Types
module G = Ir.Graph

let fold_constant_branches _ctx g =
  let changed = ref false in
  G.iter_blocks g (fun bid ->
      match G.term g bid with
      | Branch { cond; if_true; if_false; _ } -> (
          match G.kind g cond with
          | Const n ->
              let taken = if n <> 0 then if_true else if_false in
              G.set_term g bid (Jump taken);
              changed := true
          | _ -> ())
      | Jump _ | Return _ | Unreachable -> ());
  !changed

(* A block with a single predecessor keeps no phis: rewrite them to their
   unique input. *)
let collapse_single_pred_phis _ctx g =
  let changed = ref false in
  G.iter_blocks g (fun bid ->
      if G.pred_count g bid = 1 then
        List.iter
          (fun phi ->
            match G.kind g phi with
            | Phi [| v |] ->
                G.replace_uses g phi ~by:v;
                G.remove_instr g phi;
                changed := true
            | _ -> ())
          (G.phis g bid));
  !changed

(* Merge [p -> s] when p jumps to s and s has no other predecessor:
   move s's body into p, take over s's terminator, delete s.  A merge
   strands nothing (s's successors are reached through p, which reached
   s), so it keeps a clear reachability bit clear. *)
let merge_straightline _ctx g =
  G.keep_reachability g @@ fun () ->
  let changed = ref false in
  let progress = ref true in
  while !progress do
    progress := false;
    G.iter_blocks g (fun p ->
        if G.block_exists g p then
          match G.term g p with
          | Jump s
            when s <> G.entry g
                 && G.pred_count g s = 1
                 && G.pred_nth g s 0 = p
                 && s <> p ->
              (* Single-pred phis must be collapsed first. *)
              if not (G.has_phis g s) then begin
                let body = G.body g s in
                List.iter (fun id -> G.detach g id) body;
                let sterm = G.term g s in
                (* Route s's out-edges to p: first disconnect s, then
                   re-terminate p, then restore the phi inputs that s's
                   successors held for s (now coming from p). *)
                let succ_inputs =
                  List.map
                    (fun succ ->
                      let idx = G.pred_index g succ s in
                      ( succ,
                        List.map
                          (fun phi ->
                            match G.kind g phi with
                            | Phi inputs -> (phi, inputs.(idx))
                            | _ -> assert false)
                          (G.phis g succ) ))
                    (G.succs g s)
                in
                G.set_term g s Unreachable;
                G.set_term g p sterm;
                List.iter
                  (fun (succ, phi_inputs) ->
                    let idx = G.pred_index g succ p in
                    List.iter
                      (fun (phi, v) ->
                        match G.kind g phi with
                        | Phi inputs ->
                            let inputs = Array.copy inputs in
                            inputs.(idx) <- v;
                            G.set_kind g phi (Phi inputs)
                        | _ -> assert false)
                      phi_inputs)
                  succ_inputs;
                List.iter (fun id -> G.attach g id p) body;
                G.remove_block g s;
                progress := true;
                changed := true
              end
          | _ -> ())
  done;
  !changed

let remove_unreachable _ctx g = G.remove_unreachable_blocks g

let run ctx g =
  Phase.charge ctx (G.live_block_count g);
  let c1 = fold_constant_branches ctx g in
  let c2 = remove_unreachable ctx g in
  let c3 = collapse_single_pred_phis ctx g in
  let c4 = merge_straightline ctx g in
  c1 || c2 || c3 || c4

(* Whole-graph (it charges blocks, not instructions), except that
   deleting instructions nothing read changes no branch, edge or phi
   it would act on. *)
let run_region ctx g (c : Ir.Analyses.clean) =
  Region.beyond_deletions g ~since:c.Ir.Analyses.at && run ctx g

let phase = Phase.make ~region:run_region "simplify-cfg" run
