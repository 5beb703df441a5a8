(** Conditional elimination through code duplication (after arXiv
    1106.3478), packaged as a standalone duplication {e tier}: a greedy
    comparator for DBDS's simulation-driven choice.

    Where DBDS simulates every optimization's potential and runs a
    benefit/cost trade-off, this tier asks one narrow question per
    (merge, predecessor) pair: {e if the merge were duplicated into
    this predecessor, would conditional elimination fire?}  The check
    reuses {!Condelim}'s implication engine with two refinements that
    plain conditional elimination cannot apply at a merge:

    - the merge's phis are resolved to their input along the candidate
      edge (the duplicate has a single predecessor, so the phi becomes
      that input);
    - the predecessor's own branch fact toward the merge is assumed
      (the duplicate is reached only along that edge).

    Every pair that passes is duplicated, unconditionally — no benefit
    scaling, no size budget.  The cost of that greed relative to the
    trade-off tier is exactly what {!Harness.Tiercompare} measures.

    The duplication transform lives in the core library (above this
    one), so the driver injects it: [duplicate ctx g ~merge ~pred]
    performs one duplication, charging [ctx] what it touched, and
    returns the duplicate's block id, or [None] when the pair went
    stale (the core transform's [Not_applicable]). *)

open Ir.Types
module G = Ir.Graph

(* Fact environments per block: a read-only replay of {!Condelim.run}'s
   dominator walk (facts flow from a branch only into children whose
   sole predecessor is the branching block). *)
let envs_of g dom =
  let envs = Hashtbl.create 32 in
  let kind_of v = G.kind g v in
  let rec visit env bid =
    Hashtbl.replace envs bid env;
    let env_for_child child =
      match G.term g bid with
      | Branch { cond; if_true; if_false; _ } ->
          if child = if_true && G.sole_pred g if_true = bid then
            Condelim.assume ~kind_of env cond true
          else if child = if_false && G.sole_pred g if_false = bid then
            Condelim.assume ~kind_of env cond false
          else env
      | Jump _ | Return _ | Unreachable -> env
    in
    List.iter
      (fun child -> visit (env_for_child child) child)
      (Ir.Dom.children dom bid)
  in
  visit Condelim.empty_env (G.entry g);
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
  let env0 =
    Option.value ~default:Condelim.empty_env (Hashtbl.find_opt envs p)
  in
  (* The duplicate has [p] as its sole predecessor, so [p]'s branch
     fact toward [m] holds inside it. *)
  let env =
    let kind_of v = G.kind g v in
    match G.term g p with
    | Branch { cond; if_true; if_false; _ }
      when if_true = m && if_false <> m ->
        Condelim.assume ~kind_of env0 cond true
    | Branch { cond; if_true; if_false; _ }
      when if_false = m && if_true <> m ->
        Condelim.assume ~kind_of env0 cond false
    | _ -> env0
  in
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
    | _ -> Condelim.implied ~kind_of env id (Cmp (op, ra, rb)) <> None
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

let run ~duplicate ~iters ctx g =
  Phase.charge_graph ctx g;
  let performed = ref 0 in
  let progress = ref true in
  let rounds = ref 0 in
  while !progress && !rounds < iters do
    incr rounds;
    progress := false;
    let dom = Ir.Analyses.dom g in
    let envs = envs_of g dom in
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
        (* Earlier applications this round may have moved the edge; the
           injected transform validates and reports staleness. *)
        if G.block_exists g m && List.mem p (G.preds g m) then
          match duplicate ctx g ~merge:m ~pred:p with
          | Some (_ : block_id) ->
              incr performed;
              progress := true
          | None -> ())
      candidates
  done;
  !performed > 0

(** The tier as a contract-checked phase.  Duplication rewrites the
    CFG, so nothing is preserved. *)
let phase_with ~duplicate ~iters =
  Phase.make "condelim_dup" (run ~duplicate ~iters)
