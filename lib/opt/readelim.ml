(** Read elimination (paper §2): replace a load that is fully redundant —
    an available load or store of the same location dominates it with no
    intervening kill — by the available value.

    Availability is propagated along the dominator tree, but only into
    children whose sole CFG predecessor is the current block (through a
    merge, facts from one side would be unsound).  Partially redundant
    reads therefore survive this phase — duplication promotes them to
    fully redundant, which is exactly the paper's Listing 5/6 scenario. *)

open Ir.Types
module G = Ir.Graph

let class_fields ctx cls =
  match ctx.Phase.program with
  | None -> None
  | Some p ->
      Option.map
        (fun c -> c.Ir.Program.fields)
        (Ir.Program.find_class p cls)

(** Process one block's effect chain over an incoming state (no other
    instruction reads or writes memory); applies replacements and
    charges 1 for the block plus 1 per chain member.  Returns the
    outgoing state and whether anything changed. *)
let process_block ctx g bid st =
  let changed = ref false in
  let state = ref st in
  Phase.charge ctx 1;
  G.iter_effects g bid (fun id ->
      Phase.charge ctx 1;
      let kind = G.kind g id in
      let st', redundant = Memstate.transfer !state id kind in
      (match redundant with
      | Some v ->
          G.replace_uses g id ~by:v;
          G.remove_instr g id;
          changed := true
      | None -> ());
      let st' =
        match kind with
        | New (cls, args) -> (
            match class_fields ctx cls with
            | Some fields -> Memstate.seed_new st' ~fields id args
            | None -> st')
        | _ -> st'
      in
      state := st');
  (!state, !changed)

let run ctx g =
  let dom = Ir.Analyses.dom g in
  let changed = ref false in
  let rec visit st bid =
    let st_out, c = process_block ctx g bid st in
    if c then changed := true;
    List.iter
      (fun child ->
        let st_in =
          if G.preds g child = [ bid ] then st_out else Memstate.empty
        in
        visit st_in child)
      (Ir.Dom.children dom bid)
  in
  visit Memstate.empty (G.entry g);
  !changed

(* A block can only gain a redundant load where its own instructions
   changed, where it lost a side effect, where its predecessors changed
   (it may now inherit a state), where it may have gained dominators
   (it may have become reachable), or below a block that changed through
   single-predecessor edges (it inherits that block's state).  Those
   blocks run in the whole walk's preorder; a replacement marks the
   blocks of the rewritten users that the walk has yet to reach.  A
   block's incoming state comes from its single-predecessor parent,
   computed on demand up that chain (those blocks hold nothing
   redundant, so computing their state changes nothing). *)
let run_region ctx g (c : Ir.Analyses.clean) =
  let since = c.Ir.Analyses.at in
  if not (Region.beyond_deletions ~effects:true g ~since) then false
  else
    match c.Ir.Analyses.dom with
    | None -> run ctx g
    | Some old ->
        let dom = Ir.Analyses.dom g in
        let order = Array.of_list (Ir.Dom.preorder dom) in
        let pre = Array.make (max 1 (G.n_blocks g)) (-1) in
        Array.iteri (fun i b -> pre.(b) <- i) order;
        (* Preorder positions of the blocks to run. *)
        let queue = Ir.Bitset.create (Array.length order) in
        let mark ~after b =
          if b >= 0 && b < Array.length pre && pre.(b) > after then
            Ir.Bitset.add queue pre.(b)
        in
        let mark_log ~after since =
          G.iter_log g ~since (fun what id ->
              match what with
              | G.Instr when G.instr_exists g id ->
                  mark ~after (G.block_of g id)
              | (G.Cfg | G.Effect_removed) when G.block_exists g id ->
                  mark ~after id
              | _ -> ())
        in
        mark_log ~after:(-1) since;
        if Region.cfg_changed g ~since then
          Region.iter_gained ~old dom (mark ~after:(-1));
        let out = Hashtbl.create 16 and changed = ref false in
        let rec out_state b =
          match Hashtbl.find_opt out b with
          | Some st -> st
          | None -> run_block b
        and in_state b =
          match G.preds g b with
          | [ p ] when b <> G.entry g -> out_state p
          | _ -> Memstate.empty
        and run_block b =
          let st, c = process_block ctx g b (in_state b) in
          Hashtbl.replace out b st;
          if c then changed := true;
          st
        in
        Array.iteri
          (fun i b ->
            if Ir.Bitset.mem queue i then begin
              let mark0 = G.log_length g in
              ignore (run_block b);
              List.iter
                (fun child ->
                  if G.preds g child = [ b ] then mark ~after:i child)
                (Ir.Dom.children dom b);
              mark_log ~after:i mark0
            end)
          order;
        !changed

(* Replaces loads with known values; the CFG is untouched.  One walk
   leaves no redundant load: each block's state is final when the walk
   reaches it, so the pass settles. *)
let phase =
  Phase.make ~preserves:Ir.Analyses.all_kinds ~region:run_region
    ~settles:true "readelim" run
