(** Conditional elimination through code duplication (after arXiv
    1106.3478), packaged as a standalone duplication {e tier}: a greedy
    comparator for DBDS's simulation-driven choice.

    Where DBDS simulates every optimization's potential and runs a
    benefit/cost trade-off, this tier asks one narrow question per
    (merge, predecessor) pair: {e if the merge were duplicated into
    this predecessor, would conditional elimination fire?}  The check
    reuses {!Opt.Condelim}'s implication engine with two refinements that
    plain conditional elimination cannot apply at a merge:

    - the merge's phis are resolved to their input along the candidate
      edge (the duplicate has a single predecessor, so the phi becomes
      that input);
    - the predecessor's own branch fact toward the merge is assumed
      (the duplicate is reached only along that edge).

    Every pair that passes is duplicated, unconditionally — no benefit
    scaling, no size budget.  The cost of that greed relative to the
    trade-off tier is exactly what {!Harness.Tiercompare} measures. *)

open Ir.Types
module G = Ir.Graph

(* Every block's facts, handed down the dominator tree as
   {!Opt.Condelim}'s own walk hands them; a block the walk never
   reaches has none. *)
let envs_of g dom =
  let envs = Array.make (G.n_blocks g) Opt.Condelim.empty_env in
  let rec visit env bid =
    envs.(bid) <- env;
    Opt.Condelim.iter_children g dom env bid visit
  in
  visit Opt.Condelim.empty_env (G.entry g);
  envs

(* Would duplicating [m] into its predecessor [p] let conditional
   elimination fire inside the duplicate? *)
let decides g envs m p =
  let occurrences = List.length (List.filter (( = ) p) (G.preds g m)) in
  (* Two parallel edges from the same predecessor leave the phi inputs
     ambiguous; the transform would not fold the branch anyway. *)
  occurrences = 1
  &&
  let pi = G.pred_index g m p in
  (* The duplicate has [p] as its sole predecessor, so [p]'s branch
     fact toward [m] holds inside it. *)
  let env = Opt.Condelim.edge_env g envs.(p) p m in
  let resolve v =
    match G.kind g v with
    | Phi inputs when G.block_of g v = m -> inputs.(pi)
    | _ -> v
  in
  let kind_of v = G.kind g (resolve v) in
  let cmp_decided id op a b =
    let ra = resolve a and rb = resolve b in
    match (G.kind g ra, G.kind g rb) with
    | Const _, Const _ ->
        (* Folds outright in the duplicate — but only count it as a win
           when the constness comes from phi resolution; a compare that
           is const-const without resolving would already have folded in
           the preceding classic fixpoint. *)
        ra <> a || rb <> b
    | _ -> Opt.Condelim.implied ~kind_of env id (Cmp (op, ra, rb)) <> None
  in
  let term_decided =
    match G.term g m with
    | Branch { cond; _ } -> (
        let rc = resolve cond in
        match G.kind g rc with
        (* A condition that is constant only after phi resolution is a
           genuine duplication win; one constant without resolution
           would already have folded in the preceding fixpoint. *)
        | Const _ -> rc <> cond
        | Cmp (op, a, b) -> cmp_decided rc op a b
        | _ -> false)
    | Jump _ | Return _ | Unreachable -> false
  in
  term_decided
  || List.exists
       (fun id ->
         match G.kind g id with
         | Cmp (op, a, b) -> cmp_decided id op a b
         | _ -> false)
       (G.body g m)

let run ~iters ctx g =
  Opt.Phase.charge_graph ctx g;
  let performed = ref 0 in
  let progress = ref true in
  let rounds = ref 0 in
  while !progress && !rounds < iters do
    incr rounds;
    progress := false;
    let envs = envs_of g (Ir.Analyses.dom g) in
    (* Candidates from a snapshot of this round's CFG, in deterministic
       (RPO, predecessor-order) order. *)
    let candidates =
      List.concat_map
        (fun m ->
          if G.pred_count g m >= 2 && not (List.mem m (G.succs g m)) then
            let seen = ref [] in
            List.filter_map
              (fun p ->
                if (not (List.mem p !seen)) && decides g envs m p then begin
                  seen := p :: !seen;
                  Some (m, p)
                end
                else None)
              (G.preds g m)
          else [])
        (G.rpo g)
    in
    List.iter
      (fun (m, p) ->
        (* Earlier applications this round may have moved the edge. *)
        if G.block_exists g m && List.mem p (G.preds g m) then
          match Transform.duplicate ~ctx g ~merge:m ~pred:p with
          | (_ : block_id) ->
              incr performed;
              progress := true
          | exception Transform.Not_applicable _ -> ())
      candidates
  done;
  !performed
