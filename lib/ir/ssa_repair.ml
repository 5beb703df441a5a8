(** SSA reconstruction after code duplication.

    When the duplication transform copies a merge block [bm] into a
    predecessor, every value originally defined in [bm] gains a second
    definition (its copy).  Uses of the original value in blocks that [bm]
    no longer dominates must be rewritten to see the correct reaching
    definition, inserting phis where control flow re-joins.  This module
    implements the on-demand value-lookup algorithm (in the style of
    LLVM's SSAUpdater / Braun et al.'s SSA construction): phis are created
    lazily at join points while walking predecessors, then trivial phis
    are cleaned up.

    This is exactly the "complex analysis to generate valid φ instructions
    for usages in dominated blocks" that the paper's Section 3.1 cites as
    the expensive part of the real transformation (and the reason the
    simulation tier avoids it). *)

open Types

type var_state = {
  defs : (block_id, value) Hashtbl.t;  (** reaching def at end of block *)
  live_in : (block_id, value) Hashtbl.t;  (** memoized value live into block *)
  mutable inserted : value list;  (** phis created during repair *)
  mutable visited : int;  (** block lookups made by the two below *)
}

exception No_reaching_def of block_id

let rec value_at_end g st bid =
  match Hashtbl.find_opt st.defs bid with
  | Some v ->
      st.visited <- st.visited + 1;
      v
  | None -> value_live_into g st bid

and value_live_into g st bid =
  st.visited <- st.visited + 1;
  match Hashtbl.find_opt st.live_in bid with
  | Some v -> v
  | None -> (
      match Graph.preds g bid with
      | [] -> raise (No_reaching_def bid)
      | [ p ] ->
          let v = value_at_end g st p in
          Hashtbl.replace st.live_in bid v;
          v
      | preds ->
          (* Create the phi before recursing so loops terminate. *)
          let n = List.length preds in
          let phi =
            Graph.prepend g bid (Phi (Array.make n invalid_value))
          in
          Hashtbl.replace st.live_in bid phi;
          st.inserted <- phi :: st.inserted;
          let inputs =
            Array.of_list (List.map (fun p -> value_at_end g st p) preds)
          in
          Graph.set_kind g phi (Phi inputs);
          phi)

(* Remove phis of the shape  v = phi [x, x, ..., x]  or  v = phi [x, v]. *)
let simplify_inserted_phis g inserted =
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun phi ->
        if Graph.instr_exists g phi then
          match Graph.kind g phi with
          | Phi inputs ->
              let distinct =
                Array.to_list inputs
                |> List.filter (fun v -> v <> phi)
                |> List.sort_uniq compare
              in
              (match distinct with
              | [ v ] ->
                  Graph.replace_uses g phi ~by:v;
                  Graph.remove_instr g phi;
                  changed := true
              | _ -> ())
          | _ -> ())
      inserted
  done

(** [repair g ~classes] fixes uses after duplication.  Each class is
    [(original, copies)]: the original value together with its alternate
    definitions, given as [(block, value)] pairs — the value that acts as
    the reaching definition at the end of [block].  (For a duplicated
    phi, the "copy" is the phi's input on the duplicated path, recorded
    as a definition at the duplicate block even though the value itself
    is defined earlier.)  Uses of [original] that are no longer dominated
    by its definition are rewritten; phis are inserted at join points as
    needed.  Returns the list of inserted phis (after trivial-phi cleanup
    some may already be deleted).  [charge] is told what the repair
    examined: one per class, per use and per block a lookup visited. *)
let repair ?(charge = ignore) g ~classes =
  (* Fault-injection site: SSA reconstruction runs with the graph
     already rewired, so a crash here leaves maximal damage behind. *)
  Probe.fire "ssa.repair";
  let all_inserted = ref [] in
  List.iter
    (fun (original, copies) ->
      let st =
        {
          defs = Hashtbl.create 4;
          live_in = Hashtbl.create 8;
          inserted = [];
          visited = 0;
        }
      in
      Hashtbl.replace st.defs (Graph.block_of g original) original;
      List.iter (fun (blk, c) -> Hashtbl.replace st.defs blk c) copies;
      let def_block = Graph.block_of g original in
      (* Snapshot uses before rewriting. *)
      let users = Graph.uses g original in
      List.iter
        (fun user ->
          match user with
          | Graph.U_instr uid when Graph.instr_exists g uid -> (
              match Graph.kind g uid with
              | Phi inputs ->
                  (* A phi use is a use at the end of the matching
                     predecessor. *)
                  let use_block = Graph.block_of g uid in
                  let preds = Graph.preds g use_block in
                  let inputs' =
                    Array.mapi
                      (fun i v ->
                        if v = original then begin
                          let p = List.nth preds i in
                          if p = def_block then v else value_at_end g st p
                        end
                        else v)
                      inputs
                  in
                  Graph.set_kind g uid (Phi inputs')
              | k ->
                  let use_block = Graph.block_of g uid in
                  if use_block <> def_block then begin
                    let v' = value_live_into g st use_block in
                    if v' <> original then
                      Graph.set_kind g uid
                        (map_inputs
                           (fun v -> if v = original then v' else v)
                           k)
                  end)
          | Graph.U_term bid ->
              if bid <> def_block then begin
                let v' = value_live_into g st bid in
                if v' <> original then
                  match Graph.term g bid with
                  | Return (Some v) when v = original ->
                      Graph.patch_term g bid (Return (Some v'))
                  | Branch br when br.cond = original ->
                      Graph.patch_term g bid (Branch { br with cond = v' })
                  | _ -> ()
              end
          | Graph.U_instr _ -> ())
        users;
      charge (1 + List.length users + st.visited);
      all_inserted := st.inserted @ !all_inserted)
    classes;
  simplify_inserted_phis g !all_inserted;
  List.filter (Graph.instr_exists g) !all_inserted
