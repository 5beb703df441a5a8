(** Escape analysis and scalar replacement (paper §2, after Stadler et
    al.'s partial escape analysis).

    An allocation escapes if its reference leaves the function's scalar
    world: stored into another object or a global, passed to a call,
    returned, merged through a phi, or compared against anything but null
    (null compares are folded away by the canonicalizer first, because an
    allocation is never null).  A non-escaping allocation is {e scalar
    replaced}: its fields become SSA values (constructed with the same
    on-demand lookup machinery as post-duplication SSA repair), loads are
    rewritten, and the allocation and its stores are deleted.

    The {e partial} aspect of the paper's PEA arises through duplication:
    an allocation that escapes only through a phi becomes non-escaping on
    a predecessor path once the merge block is duplicated — which is the
    opportunity the DBDS applicability check looks for. *)

open Ir.Types
module G = Ir.Graph

(** Why an allocation escapes (exposed for the simulation tier: an
    allocation escaping only through phis is a duplication candidate). *)
type escape = No_escape | Through_phi_only | Escapes

let escape_state g alloc =
  let state = ref No_escape in
  let note_phi () = if !state = No_escape then state := Through_phi_only in
  let escape () = state := Escapes in
  List.iter
    (fun user ->
      match user with
      | G.U_term _ -> escape () (* returned or branched on *)
      | G.U_instr id -> (
          match G.kind g id with
          | Load (base, _) when base = alloc -> ()
          | Store (base, _, v) when base = alloc && v <> alloc -> ()
          | Phi _ -> note_phi ()
          | _ -> escape ()))
    (G.uses g alloc);
  !state

(* Scalar replacement of one non-escaping allocation. *)
let replace_scalar g alloc cls_fields args =
  let state_of : (string, Ir.Ssa_repair.var_state) Hashtbl.t =
    Hashtbl.create 4
  in
  let state_for f =
    match Hashtbl.find_opt state_of f with
    | Some st -> st
    | None ->
        let st =
          {
            Ir.Ssa_repair.defs = Hashtbl.create 4;
            live_in = Hashtbl.create 4;
            inserted = [];
          }
        in
        Hashtbl.replace state_of f st;
        st
  in
  (* Walk every block in order, tracking the field values as they evolve;
     loads with a known in-block value are rewritten immediately, loads
     whose value flows in from predecessors are resolved afterwards. *)
  let pending_loads = ref [] in
  let dead_stores = ref [] in
  G.iter_blocks g (fun bid ->
      let cur : (string, value) Hashtbl.t = Hashtbl.create 4 in
      List.iter
        (fun id ->
          match G.kind g id with
          | New _ when id = alloc ->
              List.iteri
                (fun i f ->
                  if i < Array.length args then Hashtbl.replace cur f args.(i))
                cls_fields
          | Load (base, f) when base = alloc -> (
              match Hashtbl.find_opt cur f with
              | Some v ->
                  G.replace_uses g id ~by:v;
                  Hashtbl.replace cur f v
              | None -> pending_loads := (id, f, bid) :: !pending_loads)
          | Store (base, f, v) when base = alloc ->
              Hashtbl.replace cur f v;
              dead_stores := id :: !dead_stores
          | _ -> ())
        (G.block_instrs g bid);
      (* Record end-of-block field values as definitions. *)
      Hashtbl.iter
        (fun f v -> Hashtbl.replace (state_for f).Ir.Ssa_repair.defs bid v)
        cur);
  (* Resolve loads whose value lives in from predecessors. *)
  List.iter
    (fun (load, f, bid) ->
      let v = Ir.Ssa_repair.value_live_into g (state_for f) bid in
      G.replace_uses g load ~by:v)
    !pending_loads;
  (* Delete the now-dead loads, stores and the allocation itself. *)
  List.iter (fun (load, _, _) -> G.remove_instr g load) !pending_loads;
  G.iter_blocks g (fun bid ->
      List.iter
        (fun id ->
          if G.instr_exists g id then
            match G.kind g id with
            | Load (base, _) when base = alloc && G.uses g id = [] ->
                G.remove_instr g id
            | _ -> ())
        (G.body g bid));
  List.iter (fun s -> if G.uses g s = [] then G.remove_instr g s) !dead_stores;
  if G.uses g alloc = [] then begin
    G.remove_instr g alloc;
    true
  end
  else false

let run ctx g =
  Phase.charge_graph ctx g;
  match ctx.Phase.program with
  | None -> false
  | Some program ->
      (* Earlier phases in the same round (branch folding in particular)
         may have disconnected blocks; scalar replacement walks every
         block, so drop dead ones first. *)
      let changed = ref (G.remove_unreachable_blocks g) in
      (* Scalarizing an outer object can un-escape the allocation stored
         in its fields (the store that pinned it disappears), so iterate
         until a whole sweep replaces nothing — one run digests a nested
         allocation chain instead of dragging the full pipeline through
         one fixpoint round per nesting level. *)
      let continue_ = ref true in
      while !continue_ do
        continue_ := false;
        let allocs =
          G.fold_instrs g
            (fun acc id ->
              match G.kind g id with
              | New (cls, args) -> (id, cls, args) :: acc
              | _ -> acc)
            []
        in
        List.iter
          (fun (alloc, cls, args) ->
            if G.instr_exists g alloc && escape_state g alloc = No_escape then
              match Ir.Program.find_class program cls with
              | Some c when List.length c.Ir.Program.fields <= Array.length args
                ->
                  if replace_scalar g alloc c.Ir.Program.fields args then begin
                    changed := true;
                    continue_ := true
                  end
              | Some _ | None -> ())
          allocs
      done;
      !changed

(* Scalar replacement rewrites allocations and field accesses.  The
   unreachable-block sweep only deletes blocks no analysis covers (they
   are outside the RPO), so dominators, loops and frequencies of the
   reachable CFG are unchanged. *)
let phase = Phase.make ~preserves:Ir.Analyses.all_kinds "pea" run
