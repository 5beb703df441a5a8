(** Dominator-scoped global value numbering: a pure instruction whose
    (kind, operands) key already has a definition in a dominating block is
    replaced by that definition.  Keys use canonicalized operand order for
    commutative operators (the canonicalizer normalizes constants to the
    right; GVN additionally sorts operands of commutative kinds).

    The scoped table is {!Valtab}, the one value table of the compiler:
    the DBDS simulation's dominator walk and its DSTs use it too, so a
    DST finds exactly the redundancies this pass would remove. *)

open Ir.Types
module G = Ir.Graph

(* The key of a pure instruction, as a kind: two candidates are
   equivalent iff their keys are equal.  {!Valtab} stores the same key
   as three ints; this is its definition, which the tests check it
   against. *)
let key_of_kind kind =
  match kind with
  | Binop (((Add | Mul | And | Or | Xor) as op), a, b) ->
      Binop (op, min a b, max a b)
  | Cmp (op, a, b) when a > b -> Cmp (swap_cmp op, b, a)
  | k -> k

(* GVN candidates: pure and non-phi (phis are position-dependent).
   Constants and parameters participate so that duplicated literals unify,
   which in turn lets compound expressions over them match. *)
let is_candidate = function
  | Binop _ | Cmp _ | Neg _ | Not _ | Const _ | Null | Param _ -> true
  | Phi _ | New _ | Load _ | Store _ | Load_global _ | Store_global _
  | Call _ ->
      false

(* One table per domain serves every walk on it, grown once. *)
let tables = Domain.DLS.new_key Valtab.create

(* The dominator walk with its scoped table.  [enter bid] says whether
   to process [bid] and its subtree; [replaced] runs after each
   replacement. *)
let walk g dom ~enter ~replaced =
  let table = Domain.DLS.get tables in
  (* Empty after every walk, unless an exception escaped one. *)
  Valtab.pop_to table 0;
  let changed = ref false in
  let rec visit inherited bid =
    match enter ~inherited bid with
    | None -> ()
    | Some inherited ->
        let scope = Valtab.mark table in
        G.iter_block_instrs g bid (fun id ->
            let earlier = Valtab.find_or_add table (G.kind g id) id in
            if earlier >= 0 then begin
              let mark = G.log_length g in
              G.replace_uses g id ~by:earlier;
              G.remove_instr g id;
              changed := true;
              replaced mark
            end);
        List.iter (visit inherited) (Ir.Dom.children dom bid);
        Valtab.pop_to table scope
  in
  visit false (G.entry g);
  !changed

let run ctx g =
  Phase.charge_graph ctx g;
  walk g (Ir.Analyses.dom g)
    ~enter:(fun ~inherited:_ _ -> Some true)
    ~replaced:(fun _ -> ())

(* An instruction can only be replaced where it has a new key or place,
   where an equal instruction got a new key or place above it, or where
   it gained dominators.  So a logged candidate marks its own block, and
   the blocks of the equal instructions it may now stand for: readers of
   the key's operand, or — a constant, null or parameter having none —
   its whole dominator subtree.  A block that may have gained dominators
   marks its subtree.  The walk then runs as the whole-graph walk on the
   paths to the marks: every block on such a path is examined, so the
   table holds what the whole walk's would, and a replacement marks the
   readers it rewrote. *)
let run_region ctx g (c : Ir.Analyses.clean) =
  let since = c.Ir.Analyses.at in
  if not (Region.beyond_deletions g ~since) then false
  else
    match c.Ir.Analyses.dom with
    | None -> run ctx g
    | Some old ->
        let dom = Ir.Analyses.dom g in
        let m = Region.marks dom g in
        let logged x =
          let kind = G.kind g x in
          if is_candidate kind then begin
            let b = G.block_of g x in
            Region.mark_block m b;
            let a = Valtab.key_operand kind in
            if a < 0 then Region.mark_subtree m b
            else
              let same = Valtab.same_key kind in
              Region.iter_instr_users g a (fun y ->
                  if y <> x && same (G.kind g y) then
                    Region.mark_block m (G.block_of g y))
          end
        in
        Region.iter_instrs g ~since logged;
        if Region.cfg_changed g ~since then
          Region.iter_gained ~old dom (Region.mark_subtree m);
        walk g dom
          ~enter:(fun ~inherited bid ->
            if Region.skip m ~inherited bid then None
            else begin
              Phase.charge ctx (G.block_size g bid);
              Some (Region.in_marked_subtree m ~inherited bid)
            end)
          ~replaced:(fun mark -> Region.iter_instrs g ~since:mark logged)

(* Value numbering only replaces uses and deletes redundant
   instructions; the CFG is untouched.  One walk leaves no equal pair:
   an instruction's key is final when the walk reaches it (its operands
   dominate it and were visited first), so it settles. *)
let phase =
  Phase.make ~preserves:Ir.Analyses.all_kinds ~region:run_region
    ~settles:true "gvn" run
