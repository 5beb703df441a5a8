(** The DBDS simulation tier (paper §4.1).

    A depth-first traversal of the dominator tree carries three kinds of
    context: condition facts from dominating branches (handed down by
    {!Opt.Condelim}'s own rule), memory-availability state (stepped and
    handed down by {!Opt.Readelim}'s own rules), and available pure
    expressions (value numbering, in {!Opt.Valtab}: the one scoped table
    that {!Opt.Gvn} walks with too).  Whenever the current block [bp] has a CFG
    successor [bm] that is a merge, the traversal pauses and runs a
    {e duplication simulation traversal} (DST): [bm]'s instructions are
    processed as if appended to [bp], with a {e synonym map} binding each
    of [bm]'s phis to its input along the [bp] edge.  Applicability
    checks — the precondition/action pairs of the optimizations from
    paper §2 — run against this synonym-resolved view and report the
    cycles the optimization would save and the code size it would add or
    remove, using the static node cost model.  No IR is mutated (apart
    from hash-consed integer constants materialized in the entry block,
    which are semantically inert and collected by DCE if unused).

    Loop headers are merges too, but duplicating into a back edge is loop
    peeling rather than tail duplication, so they are skipped — as is the
    paper's implicit behaviour for Graal loop-begin nodes. *)

open Ir.Types
module G = Ir.Graph

type dst_context = {
  env : Opt.Condelim.env;
  mem : Opt.Memstate.t;
  exprs : Opt.Valtab.t;
}

(* The simulation's scratch: the DST synonym and overlay maps as
   epoch-stamped flat arrays indexed by value id, and the walk's value
   table.  Bumping [epoch] empties all maps at once, so the simulation
   inner loop neither allocates nor clears.  One scratch per domain
   serves every simulation on it: [epoch] only grows, so a stamp an
   earlier graph left never matches. *)
type scratch = {
  mutable syn_epoch : int array;
  mutable syn_val : int array;  (** synonym binding when epoch matches *)
  mutable ovl_epoch : int array;
  mutable ovl_kind : instr_kind array;  (** overlay when epoch matches *)
  mutable pea_epoch : int array;  (** counted-allocation flags *)
  mutable epoch : int;
  exprs : Opt.Valtab.t;
}

let scratch_create () =
  let n = 16 in
  {
    exprs = Opt.Valtab.create ();
    syn_epoch = Array.make n 0;
    syn_val = Array.make n 0;
    ovl_epoch = Array.make n 0;
    ovl_kind = Array.make n (Const 0);
    pea_epoch = Array.make n 0;
    epoch = 0;
  }

(* Constants hash-consed by [mk_const] mid-DST can exceed the initial
   arena watermark; grow on write, treat out-of-range as unbound on
   read. *)
let scratch_ensure sc v =
  let n = Array.length sc.syn_epoch in
  if v >= n then begin
    let n' = max (v + 1) (2 * n) in
    let grow a fill =
      let a' = Array.make n' fill in
      Array.blit a 0 a' 0 n;
      a'
    in
    sc.syn_epoch <- grow sc.syn_epoch 0;
    sc.syn_val <- grow sc.syn_val 0;
    sc.ovl_epoch <- grow sc.ovl_epoch 0;
    sc.ovl_kind <- grow sc.ovl_kind (Const 0);
    sc.pea_epoch <- grow sc.pea_epoch 0
  end

let scratch = Domain.DLS.new_key scratch_create

(* The cost of an instruction kind. *)
let cycles k = Costmodel.Cost.cycles_of_kind k
let size k = Costmodel.Cost.size_of_kind k

(** Simulate duplicating merge [bm] into predecessor [bp] given the
    traversal context at the end of [bp].  Returns a candidate when any
    applicability check fires with positive benefit — and, when [paths]
    allows more than one merge (the §8 path extension) and [bm] jumps
    straight into further merges, additional path candidates covering
    the chain. *)
let simulate_dst ctx ~paths g ~loops ~mk_const ~freq ~sc dctx bp bm =
  Opt.Phase.charge ctx (G.block_size g bm);
  sc.epoch <- sc.epoch + 1;
  let ep = sc.epoch in
  let set_syn v w =
    scratch_ensure sc v;
    sc.syn_epoch.(v) <- ep;
    sc.syn_val.(v) <- w
  in
  let set_ovl v k =
    scratch_ensure sc v;
    sc.ovl_epoch.(v) <- ep;
    sc.ovl_kind.(v) <- k
  in
  let resolve v =
    let v = ref v in
    while !v < Array.length sc.syn_epoch && sc.syn_epoch.(!v) = ep do
      v := sc.syn_val.(!v)
    done;
    !v
  in
  let kind_of v =
    let v = resolve v in
    if v < Array.length sc.ovl_epoch && sc.ovl_epoch.(v) = ep then
      sc.ovl_kind.(v)
    else G.kind g v
  in
  let bind_phis merge pred =
    let pred_idx = G.pred_index g merge pred in
    G.iter_phis g merge (fun phi ->
        match G.kind g phi with
        | Phi inputs -> set_syn phi inputs.(pred_idx)
        | _ -> assert false)
  in
  bind_phis bm bp;
  let benefit = ref 0.0 in
  let size_delta = ref 0 in
  let opps = ref [] in
  (* Seen-flags indexed by opportunity tag: O(1) dedup instead of a
     List.mem scan per fired check (this runs for every instruction of
     every simulated merge). *)
  let opp_seen = Array.make Candidate.n_opportunities false in
  let mem = ref dctx.mem in
  let fire opp ~saved_cycles ~saved_size =
    Faults.hit Faults.Sim_opportunity;
    benefit := !benefit +. saved_cycles;
    size_delta := !size_delta - saved_size;
    let tag = Candidate.opportunity_index opp in
    if not opp_seen.(tag) then begin
      opp_seen.(tag) <- true;
      opps := opp :: !opps
    end
  in
  (* PEA check: a memory access through a synonym that turns out to be an
     allocation which currently escapes only through phis. *)
  let check_pea base =
    let base = resolve base in
    match G.kind g base with
    | New (_, _)
      when sc.pea_epoch.(base) <> ep
           && Opt.Pea.escape_state g base = Opt.Pea.Through_phi_only ->
        sc.pea_epoch.(base) <- ep;
        (* Scalar replacement would remove the allocation itself. *)
        fire Candidate.Escape_analysis
          ~saved_cycles:(cycles (G.kind g base))
          ~saved_size:0
    | _ -> ()
  in
  let process_body block_id =
   G.iter_body g block_id
    (fun id ->
      let orig = G.kind g id in
      (* The duplication copies this instruction: count its size. *)
      size_delta := !size_delta + size orig;
      let resolved = map_inputs resolve orig in
      let action = Opt.Canonicalize.simplify ~kind_of ~mk_const resolved in
      match action with
      | Opt.Canonicalize.Fold n ->
          fire
            (match resolved with
            | Cmp _ -> Candidate.Conditional_elimination
            | _ -> Candidate.Constant_fold)
            ~saved_cycles:(cycles orig -. cycles (Const n))
            ~saved_size:(size orig - size (Const n));
          set_ovl id (Const n)
      | Opt.Canonicalize.Fold_null ->
          fire Candidate.Constant_fold
            ~saved_cycles:(cycles orig)
            ~saved_size:(size orig - 1);
          set_ovl id Null
      | Opt.Canonicalize.Alias v ->
          fire Candidate.Copy_propagation ~saved_cycles:(cycles orig)
            ~saved_size:(size orig);
          set_syn id v
      | Opt.Canonicalize.Rewrite k ->
          fire Candidate.Strength_reduce
            ~saved_cycles:(cycles orig -. cycles k)
            ~saved_size:(size orig - size k);
          set_ovl id k
      | Opt.Canonicalize.Unchanged -> (
          (* Conditional elimination: facts from dominating branches. *)
          match
            match resolved with
            | Cmp _ -> Opt.Condelim.implied ~kind_of dctx.env id resolved
            | _ -> None
          with
          | Some t ->
              fire Candidate.Conditional_elimination
                ~saved_cycles:(cycles orig -. cycles (Const 0))
                ~saved_size:(size orig - 1);
              set_ovl id (Const (if t then 1 else 0))
          | None ->
              (* Value numbering against dominating expressions. *)
              let earlier = Opt.Valtab.find dctx.exprs resolved in
              if earlier >= 0 then begin
                fire Candidate.Value_numbering ~saved_cycles:(cycles orig)
                  ~saved_size:(size orig);
                set_syn id earlier
              end
              else begin
                (* Read elimination over the threaded memory state.  An
                   access through a phi-escaping allocation is a
                   scalar-replacement opportunity whether or not the
                   read is also directly redundant. *)
                let st, redundant = Opt.Readelim.step ctx !mem id resolved in
                mem := st;
                (match resolved with
                | Load (base, _) | Store (base, _, _) -> check_pea base
                | _ -> ());
                match redundant with
                | Some v ->
                    fire Candidate.Read_elimination
                      ~saved_cycles:(cycles orig) ~saved_size:(size orig);
                    set_syn id v
                | None -> ()
              end))
  in
  (* The duplicated terminator: count its size; a branch whose condition
     resolves to a constant or is implied folds into a jump and unlocks
     downstream simplification. *)
  let process_term block_id =
    match G.term g block_id with
    | Branch { cond; _ } as t ->
        size_delta :=
          !size_delta + (Costmodel.Cost.of_term t).Costmodel.Cost.size;
        let decided =
          match kind_of (resolve cond) with
          | Const _ -> true
          | k -> (
              match k with
              | Cmp _ ->
                  Opt.Condelim.implied ~kind_of dctx.env (resolve cond) k <> None
              | _ -> false)
        in
        if decided then
          fire Candidate.Conditional_elimination ~saved_cycles:1.0 ~saved_size:1
    | t ->
        size_delta :=
          !size_delta + (Costmodel.Cost.of_term t).Costmodel.Cost.size
  in
  let probability = Ir.Frequency.relative freq bp in
  let mk_candidate path =
    {
      Candidate.merge = bm;
      pred = bp;
      path = List.rev path;
      benefit = !benefit;
      probability;
      size_delta = !size_delta;
      opportunities = List.rev !opps;
    }
  in
  process_body bm;
  process_term bm;
  let results = ref [] in
  if !benefit > 0.0 then results := [ mk_candidate [] ];
  (* §8 path extension: continue the DST through a straight chain of
     further merges, up to [paths] merges in all; each extension that
     adds benefit becomes its own candidate, priced with the cumulative
     cost of the whole path. *)
  if paths > 1 then begin
    let cur = ref bm in
    let path = ref [] in
    let path_len = ref 0 in
    let continue_ = ref true in
    while !continue_ && !path_len < paths - 1 do
      match G.term g !cur with
      | Jump next
        when next <> !cur
             && G.pred_count g next >= 2
             && (not (Ir.Loops.is_header loops next))
             && next <> bm
             && not (List.mem next !path) ->
          Opt.Phase.charge ctx (G.block_size g next);
          let benefit_before = !benefit in
          bind_phis next !cur;
          process_body next;
          process_term next;
          path := next :: !path;
          incr path_len;
          if !benefit > benefit_before then
            results := mk_candidate !path :: !results;
          cur := next
      | _ -> continue_ := false
    done
  end;
  !results

(** Run the simulation tier over one graph: returns all candidates with
    positive estimated benefit, one per (predecessor, merge) pair. *)
let simulate ?(paths = 1) ctx (_ : Config.t) g =
  Opt.Phase.charge_graph ctx g;
  let dom = Ir.Analyses.dom g in
  let loops = Ir.Analyses.loops g in
  let freq = Ir.Analyses.frequency g in
  let mk_const = Opt.Canonicalize.materialize_const g in
  let sc = Domain.DLS.get scratch in
  scratch_ensure sc (G.n_instrs g + 63);
  (* Empty after every walk, unless a fault escaped one. *)
  let exprs = sc.exprs in
  Opt.Valtab.pop_to exprs 0;
  let candidates = ref [] in
  let rec visit env mem bid =
    (* Process this block's instructions into the traversal context:
       every instruction into the value table, the effect chain through
       read elimination's memory step. *)
    let scope = Opt.Valtab.mark exprs in
    G.iter_block_instrs g bid (fun id ->
        ignore (Opt.Valtab.find_or_add exprs (G.kind g id) id));
    let st = ref mem in
    G.iter_effects g bid (fun id ->
        st := fst (Opt.Readelim.step ctx !st id (G.kind g id)));
    let mem_out = !st in
    (* Pause at predecessor→merge pairs and run DSTs. *)
    List.iter
      (fun s ->
        if
          s <> bid
          && G.pred_count g s >= 2
          && not (Ir.Loops.is_header loops s)
        then
          candidates :=
            simulate_dst ctx ~paths g ~loops ~mk_const ~freq ~sc
              { env; mem = mem_out; exprs }
              bid s
            @ !candidates)
      (G.succs g bid);
    (* Descend the dominator tree with the facts and state the passes'
       own walks hand each child. *)
    Opt.Condelim.iter_children g dom env bid (fun env child ->
        visit env (Opt.Readelim.state_for_child g mem_out bid child) child);
    Opt.Valtab.pop_to exprs scope
  in
  visit Opt.Condelim.empty_env Opt.Memstate.empty (G.entry g);
  List.rev !candidates
