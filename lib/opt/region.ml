(** Shared pieces of the passes' region forms (see {!Phase.t.region}):
    reading the graph's mutation log since a clean stamp. *)

module G = Ir.Graph

(* Calls [f] once on every id with a [what] entry at or after [since]
   that [live] accepts.  An empty range returns before allocating the
   arena-sized seen set: the region forms call this after every block
   or allocation they examine, mostly with nothing logged since. *)
let iter_logged what ~live ~size g ~since f =
  if since < G.log_length g then begin
    let seen = Ir.Bitset.create size in
    G.iter_log g ~since (fun w id ->
        if w = what && live id && not (Ir.Bitset.mem seen id) then begin
          Ir.Bitset.add seen id;
          f id
        end)
  end

(** Calls [f] once on every live instruction with an [Instr] entry at or
    after [since]: created, rewritten or moved since. *)
let iter_instrs g ~since f =
  iter_logged G.Instr ~live:(G.instr_exists g) ~size:(G.n_instrs g) g ~since f

(** Calls [f] once on every live block with a [Cfg] entry at or after
    [since]. *)
let iter_cfg_blocks g ~since f =
  iter_logged G.Cfg ~live:(G.block_exists g) ~size:(G.n_blocks g) g ~since f

(** Calls [f] on every live instruction that reads [v]. *)
let iter_instr_users g v f =
  G.iter_uses_enc g v (fun e ->
      if not (G.user_is_term e) then f (G.user_target e))

(** Did the graph change at or after [since] in more than deleted
    instructions that nothing read?  Such deletions leave every other
    instruction, terminator and edge as it was, so a pass whose
    opportunities lie in those sees none.  [effects] counts a deleted
    side effect as a change (for a pass that reads memory order). *)
let beyond_deletions ?(effects = false) g ~since =
  G.exists_log g ~since (fun what id ->
      match what with
      | G.Instr -> G.instr_exists g id
      | G.Cfg -> true
      | G.Effect_removed -> effects
      | G.Lost_use -> false)

(** Did the log record a CFG change at or after [since]? *)
let cfg_changed g ~since = G.exists_log g ~since (fun what _ -> what = G.Cfg)

(** Calls [f] on the blocks that may have gained dominators since the
    stamp's tree [old]: reachable under [dom] but not under [old], or
    with a new immediate dominator that did not dominate them under
    [old].  Every other block's dominators are a subset of its old ones
    (induction down the tree), so a walk that only gains from
    dominators finds nothing new below a block [f] was not called on. *)
let iter_gained ~old dom f =
  List.iter
    (fun b ->
      match Ir.Dom.idom dom b with
      | _ when not (Ir.Dom.is_reachable old b) -> f b
      | Some p when not (Ir.Dom.dominates old p b) -> f b
      | Some _ | None -> ())
    (Ir.Dom.order dom)

(* ------------------------------------------------------------------ *)
(* Marks for a dominator walk                                          *)
(* ------------------------------------------------------------------ *)

type marks = {
  dom : Ir.Dom.t;
  block : Ir.Bitset.t;  (** blocks to examine *)
  subtree : Ir.Bitset.t;  (** blocks whose whole subtree to examine *)
  pending : int array;  (** marks at or below each block *)
}

let marks dom g =
  let n = G.n_blocks g in
  {
    dom;
    block = Ir.Bitset.create n;
    subtree = Ir.Bitset.create n;
    pending = Array.make (max 1 n) 0;
  }

let mark set m b =
  if b >= 0 && Ir.Dom.is_reachable m.dom b && not (Ir.Bitset.mem set b)
  then begin
    Ir.Bitset.add set b;
    let rec up a =
      m.pending.(a) <- m.pending.(a) + 1;
      match Ir.Dom.idom m.dom a with Some p -> up p | None -> ()
    in
    up b
  end

let mark_block m b = mark m.block m b
let mark_subtree m b = mark m.subtree m b
let marked m b = Ir.Bitset.mem m.block b
let in_marked_subtree m ~inherited b = inherited || Ir.Bitset.mem m.subtree b
let skip m ~inherited b = (not inherited) && m.pending.(b) = 0
