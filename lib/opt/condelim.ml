(** Conditional elimination (paper §2, after Stadler et al.): walk the
    dominator tree maintaining facts established by dominating branches —
    the truth of condition values, integer ranges of values compared
    against constants, and non-nullness — and fold comparisons (and hence
    branches) that the facts imply.

    A fact from branch [p: branch c ? t : f] holds in the dominator
    subtree of [t] provided [t]'s only predecessor is [p] (otherwise other
    paths enter [t] without establishing the fact).

    The fact environment is exposed so the DBDS simulation tier can reuse
    the same implication engine as its conditional-elimination
    applicability check. *)

open Ir.Types
module G = Ir.Graph

type range = { lo : int; hi : int }

let full_range = { lo = min_int; hi = max_int }

(* The fact environment is scoped: entering a dominator subtree pushes
   facts, leaving pops them.  Implemented as persistent maps held in a
   mutable binding per walk level. *)
module VMap = Map.Make (Int)

type env = {
  truths : bool VMap.t;  (** condition value -> known truth *)
  ranges : range VMap.t;  (** value -> integer range *)
  non_null : unit VMap.t;  (** values known non-null *)
}

let empty_env =
  { truths = VMap.empty; ranges = VMap.empty; non_null = VMap.empty }

let range_of env v = Option.value ~default:full_range (VMap.find_opt v env.ranges)

let meet_range env v r =
  let cur = range_of env v in
  let merged = { lo = max cur.lo r.lo; hi = min cur.hi r.hi } in
  { env with ranges = VMap.add v merged env.ranges }

(** Add the facts implied by [cond = truth] to the environment.
    [kind_of] resolves operand kinds (synonym-aware in simulation). *)
let assume ~kind_of env cond truth =
  let env = { env with truths = VMap.add cond truth env.truths } in
  match kind_of cond with
  | Cmp (op, a, b) -> (
      let op = if truth then op else negate_cmp op in
      let const_of v = match kind_of v with Const n -> Some n | _ -> None in
      let is_null v = match kind_of v with Null -> true | _ -> false in
      match (const_of a, const_of b) with
      | None, Some c -> (
          match op with
          | Lt -> meet_range env a { lo = min_int; hi = c - 1 }
          | Le -> meet_range env a { lo = min_int; hi = c }
          | Gt -> meet_range env a { lo = c + 1; hi = max_int }
          | Ge -> meet_range env a { lo = c; hi = max_int }
          | Eq -> meet_range env a { lo = c; hi = c }
          | Ne -> env)
      | Some c, None -> (
          match swap_cmp op with
          | Lt -> meet_range env b { lo = min_int; hi = c - 1 }
          | Le -> meet_range env b { lo = min_int; hi = c }
          | Gt -> meet_range env b { lo = c + 1; hi = max_int }
          | Ge -> meet_range env b { lo = c; hi = max_int }
          | Eq -> meet_range env b { lo = c; hi = c }
          | Ne -> env)
      | _ ->
          (* x != null / x == null facts *)
          if is_null b && op = Ne then
            { env with non_null = VMap.add a () env.non_null }
          else if is_null a && op = Ne then
            { env with non_null = VMap.add b () env.non_null }
          else env)
  | _ -> env

(* Does the range prove the comparison?  Returns Some truth if decided. *)
let decide_range op r c =
  match op with
  | Lt -> if r.hi < c then Some true else if r.lo >= c then Some false else None
  | Le -> if r.hi <= c then Some true else if r.lo > c then Some false else None
  | Gt -> if r.lo > c then Some true else if r.hi <= c then Some false else None
  | Ge -> if r.lo >= c then Some true else if r.hi < c then Some false else None
  | Eq ->
      if r.lo = c && r.hi = c then Some true
      else if r.hi < c || r.lo > c then Some false
      else None
  | Ne ->
      if r.hi < c || r.lo > c then Some true
      else if r.lo = c && r.hi = c then Some false
      else None

(** Can the environment decide this condition value?  [v] is the value id
    of the condition (for direct truth lookups); [kind] its (resolved)
    kind. *)
let implied ~kind_of env v kind =
  match VMap.find_opt v env.truths with
  | Some t -> Some t
  | None -> (
      match kind with
      | Cmp (op, a, b) -> (
          let const_of x = match kind_of x with Const n -> Some n | _ -> None in
          let is_null x = match kind_of x with Null -> true | _ -> false in
          match (const_of a, const_of b) with
          | None, Some c -> (
              match decide_range op (range_of env a) c with
              | Some t -> Some t
              | None -> None)
          | Some c, None -> decide_range (swap_cmp op) (range_of env b) c
          | _ ->
              if is_null b && VMap.mem a env.non_null then
                match op with
                | Eq -> Some false
                | Ne -> Some true
                | _ -> None
              else if is_null a && VMap.mem b env.non_null then
                match op with
                | Eq -> Some false
                | Ne -> Some true
                | _ -> None
              else None)
      | _ -> None)

(* Fold the compares of [bid] and its branch that [env] decides.  The
   compares are on the block's effect chain, visited in block order: a
   compare may read one folded just before it.  Charges 1 for the block
   plus 1 per chain member. *)
let fold_block ctx g env bid =
  let changed = ref false in
  let kind_of v = G.kind g v in
  Phase.charge ctx 1;
  G.iter_effects g bid (fun id ->
      Phase.charge ctx 1;
      match G.kind g id with
      | Cmp _ as kind -> (
          match implied ~kind_of env id kind with
          | Some t ->
              G.set_kind g id (Const (if t then 1 else 0));
              changed := true
          | None -> ())
      | _ -> ());
  (* Fold a branch whose condition is decided by the facts (typically
     the condition was GVN-deduplicated to a dominating compare). *)
  (match G.term g bid with
  | Branch { cond; if_true; if_false; _ } -> (
      match implied ~kind_of env cond (kind_of cond) with
      | Some t ->
          G.set_term g bid (Jump (if t then if_true else if_false));
          changed := true
      | None -> ())
  | Jump _ | Return _ | Unreachable -> ());
  !changed

(* The facts [bid]'s branch hands to [child]. *)
let env_for_child g env bid child =
  let kind_of v = G.kind g v in
  match G.term g bid with
  | Branch { cond; if_true; if_false; _ } ->
      if child = if_true && G.preds g if_true = [ bid ] then
        assume ~kind_of env cond true
      else if child = if_false && G.preds g if_false = [ bid ] then
        assume ~kind_of env cond false
      else env
  | Jump _ | Return _ | Unreachable -> env

(* The whole-graph walk over the dominator tree, with the facts carried
   exactly as it computes them.  [enter ~inherited bid fold] decides
   what happens at [bid]: it may call [fold] (fold the block's compares
   and branch), and returns [None] to skip [bid]'s subtree or
   [Some inherited] to descend, [inherited] being passed to the
   children. *)
let walk ctx g dom ~enter =
  let changed = ref false in
  let rec visit env inherited bid =
    match
      enter ~inherited bid (fun () ->
          if fold_block ctx g env bid then changed := true)
    with
    | None -> ()
    | Some inherited ->
        List.iter
          (fun child -> visit (env_for_child g env bid child) inherited child)
          (Ir.Dom.children dom bid)
  in
  visit empty_env false (G.entry g);
  !changed

let run ctx g =
  walk ctx g (Ir.Analyses.dom g) ~enter:(fun ~inherited:_ _ fold ->
      fold ();
      Some true)

(* A compare or branch can only fold where it changed, where an operand
   changed kind, or where its facts grew.  Facts only grow through a
   branch handing them to a single-predecessor successor, and then for
   that successor's whole dominator subtree: a branch that changed, or
   whose condition (or an operand of it) changed kind, a block whose
   predecessors changed, and a block that may have gained dominators.
   The walk examines only marked blocks and marked subtrees, skips a
   subtree with no mark in it, and a fold marks what it changes for the
   blocks the walk has yet to reach. *)
let run_region ctx g (c : Ir.Analyses.clean) =
  let since = c.Ir.Analyses.at in
  if not (Region.beyond_deletions g ~since) then false
  else
    match c.Ir.Analyses.dom with
    | None -> run ctx g
    | Some old ->
        let dom = Ir.Analyses.dom g in
        let m = Region.marks dom g in
        let mark_block = Region.mark_block m
        and mark_subtree = Region.mark_subtree m in
        (* The branch of [b] may fold, and the successors it hands facts
           to may get new ones. *)
        let branch_changed b =
          mark_block b;
          match G.term g b with
          | Branch { if_true; if_false; _ } ->
              List.iter
                (fun s -> if G.preds g s = [ b ] then mark_subtree s)
                [ if_true; if_false ]
          | Jump _ | Return _ | Unreachable -> ()
        in
        (* [v] changed kind.  Only compares fold and only compares
           give facts, and an operand only matters through being a
           constant or null: a compare marks its block and the branches
           on it; a constant or null marks the compares reading it and
           the branches on those. *)
        let is_cmp u = match G.kind g u with Cmp _ -> true | _ -> false in
        let compare_changed u =
          mark_block (G.block_of g u);
          G.iter_uses_enc g u (fun e ->
              if G.user_is_term e then branch_changed (G.user_target e))
        in
        let changed_value v =
          match G.kind g v with
          | Cmp _ -> compare_changed v
          | Const _ | Null ->
              Region.iter_instr_users g v (fun u ->
                  if is_cmp u then compare_changed u)
          | _ -> ()
        in
        (* A block's terminator or predecessors changed: its own branch,
           and itself when a single predecessor may now hand it facts. *)
        let block_changed b =
          branch_changed b;
          if G.pred_count g b = 1 then mark_subtree b
        in
        let mark_log since =
          Region.iter_instrs g ~since changed_value;
          Region.iter_cfg_blocks g ~since block_changed
        in
        mark_log since;
        if Region.cfg_changed g ~since then
          Region.iter_gained ~old dom mark_subtree;
        walk ctx g dom ~enter:(fun ~inherited bid fold ->
            if Region.skip m ~inherited bid then None
            else begin
              if
                Region.in_marked_subtree m ~inherited bid
                || Region.marked m bid
              then begin
                let mark0 = G.log_length g in
                fold ();
                mark_log mark0
              end
              else Phase.charge ctx 1;
              Some (Region.in_marked_subtree m ~inherited bid)
            end)

let phase = Phase.make ~region:run_region "condelim" run
