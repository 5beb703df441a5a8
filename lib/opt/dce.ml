(** Dead code elimination, as mark-and-sweep so that dead cyclic structures
    (an unused induction variable: [i = phi(0, i+1)] where the add only
    feeds the phi) are collected too.

    Roots: side-effecting instructions and terminator inputs.  Allocations
    count as effects here — removing a provably useless allocation is
    escape analysis' job ({!Pea}), not DCE's.

    The mark set is an {!Ir.Bitset} over instruction ids and the worklist
    carries plain ints: marking allocates nothing. *)

open Ir.Types
module G = Ir.Graph

(* Delete [dead], given in decreasing id order: clear inputs first so
   mutually-referencing dead instructions can be removed, then delete
   (a dead phi sits in a phi list with kind [Const 0] until removed). *)
let sweep g dead =
  List.iter (fun id -> G.set_kind g id (Const 0)) dead;
  List.iter (fun id -> G.remove_instr g id) dead;
  dead <> []

let run ctx g =
  Phase.charge_graph ctx g;
  let marked = Ir.Bitset.create (G.n_instrs g) in
  let worklist = Queue.create () in
  let mark v =
    if not (Ir.Bitset.mem marked v) then begin
      Ir.Bitset.add marked v;
      Queue.add v worklist
    end
  in
  G.iter_instrs g (fun id ->
      if has_side_effect (G.kind g id) then mark id);
  G.iter_blocks g (fun bid ->
      match G.term g bid with
      | Return (Some v) -> mark v
      | Branch { cond; _ } -> mark cond
      | Jump _ | Return None | Unreachable -> ());
  while not (Queue.is_empty worklist) do
    let v = Queue.pop worklist in
    iter_inputs mark (G.kind g v)
  done;
  sweep g
    (G.fold_instrs g
       (fun acc id -> if Ir.Bitset.mem marked id then acc else id :: acc)
       [])

(* An instruction is live iff a chain of users leads from it to a
   root.  Since the clean stamp every instruction was live, so one that
   is dead now was created since, lost its effect (rewritten), or its
   chain to the roots broke — and then the first instruction past the
   break lost a use, and the dead ones before it feed it.  So: search
   forward from every logged instruction and every value that lost a
   use; a search that exhausts its users without meeting a root found a
   closed dead set, whose inputs are searched in turn. *)
let run_region ctx g (c : Ir.Analyses.clean) =
  let n = G.n_instrs g in
  let dead = Ir.Bitset.create n and live = Ir.Bitset.create n in
  (* What the current search reached (cleared after each search). *)
  let seen = Ir.Bitset.create n and reached = ref [] in
  (* Depth-first over users; every instruction on the path to a root is
     live, so the path is memoized as it unwinds. *)
  let rec reaches_root x =
    Ir.Bitset.add seen x;
    reached := x :: !reached;
    Phase.charge ctx 1;
    let found = ref (Ir.Bitset.mem live x || has_side_effect (G.kind g x)) in
    G.iter_uses_enc g x (fun e ->
        if not !found then
          if G.user_is_term e then found := true
          else
            let u = G.user_target e in
            if
              (not (Ir.Bitset.mem seen u || Ir.Bitset.mem dead u))
              && reaches_root u
            then found := true);
    if !found then Ir.Bitset.add live x;
    !found
  in
  let seeds = ref [] in
  let classify s =
    if
      G.instr_exists g s
      && not (Ir.Bitset.mem dead s || Ir.Bitset.mem live s)
    then begin
      reached := [];
      let root = reaches_root s in
      List.iter
        (fun x ->
          Ir.Bitset.remove seen x;
          if not root then begin
            Ir.Bitset.add dead x;
            iter_inputs (fun v -> seeds := v :: !seeds) (G.kind g x)
          end)
        !reached
    end
  in
  G.iter_log g ~since:c.Ir.Analyses.at (fun what id ->
      match what with G.Instr | G.Lost_use -> classify id | _ -> ());
  while !seeds <> [] do
    let s = List.hd !seeds in
    seeds := List.tl !seeds;
    classify s
  done;
  let doomed = ref [] in
  Ir.Bitset.iter dead (fun x -> doomed := x :: !doomed);
  sweep g !doomed

(* Deletes dead instructions only — unreachable blocks belong to the CFG
   simplifier (and to the passes that fold branches).  What it deletes,
   nothing read, so the other passes' regions see only the operands'
   lost uses, which only escape analysis reads. *)
let phase =
  Phase.make ~preserves:Ir.Analyses.all_kinds ~region:run_region
    ~settles:true "dce" run
