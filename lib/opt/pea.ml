(** Escape analysis and scalar replacement (paper §2, after Stadler et
    al.'s partial escape analysis).

    An allocation escapes if its reference leaves the function's scalar
    world: stored into another object or a global, passed to a call,
    returned, merged through a phi, or compared against anything but null.
    A non-escaping allocation is {e scalar replaced}: its fields become SSA
    values (constructed with the same on-demand lookup machinery as
    post-duplication SSA repair), loads are rewritten, its [==] / [!=]
    null compares fold to constants (an allocation is never null), and
    the allocation and its stores are deleted.  Replacing an object
    exposes the allocations held in its fields to the same treatment in
    the same run, so one run replaces a whole nested allocation chain.

    The {e partial} aspect of the paper's PEA arises through duplication:
    an allocation that escapes only through a phi becomes non-escaping on
    a predecessor path once the merge block is duplicated — which is the
    opportunity the DBDS applicability check looks for. *)

open Ir.Types
module G = Ir.Graph

(** Why an allocation escapes (exposed for the simulation tier: an
    allocation escaping only through phis is a duplication candidate). *)
type escape = No_escape | Through_phi_only | Escapes

(* [Some n] when instruction [id] compares [alloc] against null with
   [==] / [!=]: an allocation is never null (the rule of
   [Canonicalize.never_null]), so the compare folds to the constant [n]. *)
let null_compare g alloc id =
  match G.kind g id with
  | Cmp (((Eq | Ne) as op), a, b)
    when (a = alloc && G.kind g b = Null) || (b = alloc && G.kind g a = Null)
    ->
      Some (if op = Eq then 0 else 1)
  | _ -> None

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
          | Cmp _ when null_compare g alloc id <> None -> ()
          | _ -> escape ()))
    (G.uses g alloc);
  !state

(* Scalar replacement of one non-escaping allocation. *)
let replace_scalar g alloc cls_fields args =
  let home = G.block_of g alloc in
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
            visited = 0;
          }
        in
        Hashtbl.replace state_of f st;
        st
  in
  (* Only the allocation's block and its users' blocks can define or
     read a field; walk their effect chains (the allocation, its loads,
     stores and null compares are all on them) in block order, tracking
     the field values as they evolve.  Loads with a known in-block value
     are rewritten immediately, loads whose value flows in from
     predecessors are resolved afterwards. *)
  let blocks =
    List.sort_uniq compare
      (home
      :: List.filter_map
           (function
             | G.U_instr id -> Some (G.block_of g id) | G.U_term _ -> None)
           (G.uses g alloc))
  in
  let loads = ref [] in
  let pending_loads = ref [] in
  let dead_stores = ref [] in
  List.iter
    (fun bid ->
      let cur : (string, value) Hashtbl.t = Hashtbl.create 4 in
      G.iter_effects g bid (fun id ->
          match G.kind g id with
          | New _ when id = alloc ->
              List.iteri
                (fun i f ->
                  if i < Array.length args then Hashtbl.replace cur f args.(i))
                cls_fields
          | Load (base, f) when base = alloc -> (
              loads := id :: !loads;
              match Hashtbl.find_opt cur f with
              | Some v -> G.replace_uses g id ~by:v
              | None -> pending_loads := (id, f, bid) :: !pending_loads)
          | Store (base, f, v) when base = alloc ->
              Hashtbl.replace cur f v;
              dead_stores := id :: !dead_stores
          | Cmp _ -> (
              match null_compare g alloc id with
              | Some n -> G.set_kind g id (Const n)
              | None -> ())
          | _ -> ());
      (* Record end-of-block field values as definitions. *)
      Hashtbl.iter
        (fun f v -> Hashtbl.replace (state_for f).Ir.Ssa_repair.defs bid v)
        cur)
    blocks;
  (* Resolve loads whose value lives in from predecessors.  A field
     defined only by the allocation's block reads that value everywhere:
     the allocation dominates every load.  Other fields take the on-demand
     phi lookup.  All lookups run before any load is rewritten, and a
     load resolved to another pending load follows it to its final value,
     so no rewritten use is left on a load that is about to be deleted. *)
  let resolved = Hashtbl.create 8 in
  List.iter
    (fun (load, f, bid) ->
      let st = state_for f in
      let v =
        if Hashtbl.length st.Ir.Ssa_repair.defs = 1 then
          Hashtbl.find st.Ir.Ssa_repair.defs home
        else Ir.Ssa_repair.value_live_into g st bid
      in
      Hashtbl.replace resolved load v)
    !pending_loads;
  let rec final v =
    match Hashtbl.find_opt resolved v with Some v' -> final v' | None -> v
  in
  List.iter
    (fun (load, _, _) -> G.replace_uses g load ~by:(final load))
    !pending_loads;
  (* Fold the lookup's trivial phis now rather than leaving them to the
     next canonicalize: they would pin a child allocation stored in this
     one's fields, and they inflate the graph every later pass walks. *)
  Ir.Ssa_repair.simplify_inserted_phis g
    (List.concat_map
       (fun f ->
         match Hashtbl.find_opt state_of f with
         | Some st -> st.Ir.Ssa_repair.inserted
         | None -> [])
       cls_fields);
  (* Delete the now-dead loads, stores and the allocation itself. *)
  List.iter (fun l -> if not (G.has_uses g l) then G.remove_instr g l) !loads;
  List.iter
    (fun s -> if not (G.has_uses g s) then G.remove_instr g s)
    !dead_stores;
  if not (G.has_uses g alloc) then begin
    G.remove_instr g alloc;
    true
  end
  else false

let is_alloc g v =
  v >= 0
  && G.instr_exists g v
  && match G.kind g v with New _ -> true | _ -> false

(* Replace [alloc] if it does not escape and its class is known: the
   body of one visit of [run]'s sweep. *)
let try_replace program g alloc =
  G.instr_exists g alloc
  && escape_state g alloc = No_escape
  &&
  match G.kind g alloc with
  | New (cls, args) -> (
      match Ir.Program.find_class program cls with
      | Some c when List.length c.Ir.Program.fields <= Array.length args ->
          replace_scalar g alloc c.Ir.Program.fields args
      | Some _ | None -> false)
  | _ -> false

(* Earlier phases in the same round (branch folding in particular) may
   have disconnected blocks; the field lookup walks predecessors and
   finds no definition on a dead one, so drop them first.  The sweep
   walks the graph only when an edge removal may have stranded a block
   ({!G.may_have_unreachable}), and is charged only then. *)
let sweep ctx g =
  G.may_have_unreachable g
  && begin
       Phase.charge ctx (G.live_block_count g);
       G.remove_unreachable_blocks g
     end

let run ctx g =
  match ctx.Phase.program with
  | None -> false
  | Some program ->
      let changed = ref (sweep ctx g) in
      (* Scalarizing an outer object can un-escape the allocation stored
         in its fields (the store that pinned it disappears), so iterate
         until a whole sweep replaces nothing — one run digests a nested
         allocation chain instead of dragging the full pipeline through
         one fixpoint round per nesting level. *)
      let continue_ = ref true in
      while !continue_ do
        continue_ := false;
        let allocs = G.allocations g in
        Phase.charge ctx (List.length allocs);
        (* Read each allocation's arguments when its turn comes: replacing
           an earlier one may have rewritten them. *)
        List.iter
          (fun alloc ->
            if try_replace program g alloc then begin
              changed := true;
              continue_ := true
            end)
          allocs
      done;
      !changed

(* The allocations whose escape state can have changed since [since]:
   one that gained or lost a user (the user is logged, or it logged a
   lost use), one whose user was rewritten, and one compared against a
   value that became [Null].  [put] each. *)
let affected g ~since put =
  let add v = if is_alloc g v then put v in
  G.iter_log g ~since (fun what id -> if what = G.Lost_use then add id);
  Region.iter_instrs g ~since (fun id ->
      let k = G.kind g id in
      add id;
      iter_inputs add k;
      match k with
      | Null ->
          Region.iter_instr_users g id (fun u -> iter_inputs add (G.kind g u))
      | _ -> ())

(* [run]'s sweeps over the affected allocations, in the same decreasing
   id order (the allocation index's; PEA creates no allocation, so the
   index taken at a sweep's start holds every one the sweep can reach);
   a replacement queues what it affected into the same sweep when the
   whole-graph sweep would still reach it (a smaller id), else into the
   next.  The unreachable-block sweep is [run]'s. *)
let run_region ctx g (c : Ir.Analyses.clean) =
  match ctx.Phase.program with
  | None -> false
  | Some program ->
      let since = c.Ir.Analyses.at in
      let changed = ref (sweep ctx g) in
      let cur = ref (Ir.Bitset.create (G.n_instrs g)) in
      affected g ~since (Ir.Bitset.add !cur);
      let continue_ = ref true in
      while !continue_ do
        continue_ := false;
        let next = Ir.Bitset.create (G.n_instrs g) in
        List.iter
          (fun alloc ->
            if Ir.Bitset.mem !cur alloc then begin
              Phase.charge ctx 1;
              let mark = G.log_length g in
              if try_replace program g alloc then begin
                changed := true;
                continue_ := true
              end;
              affected g ~since:mark (fun a ->
                  Ir.Bitset.add (if a < alloc then !cur else next) a)
            end)
          (G.allocations g);
        cur := next
      done;
      !changed

(* Scalar replacement rewrites allocations and field accesses.  The
   unreachable-block sweep only deletes blocks no analysis covers (they
   are outside the RPO), so dominators, loops and frequencies of the
   reachable CFG are unchanged. *)
let phase =
  Phase.make ~preserves:Ir.Analyses.all_kinds ~region:run_region "pea" run
