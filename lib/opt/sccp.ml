(** Sparse conditional constant propagation (Wegman–Zadeck).

    Runs the classic two-worklist algorithm over the CFG and SSA edges:
    values live in the lattice Top → Const → Bottom, branch conditions
    that evaluate to lattice constants keep their dead successor edge
    non-executable, and phis meet only over executable incoming edges.
    This catches what the per-instruction canonicalizer cannot: constants
    threaded through cycles and through branches whose direction is
    itself determined by constants.

    The analysis state is arena-shaped: the lattice is an unboxed pair of
    int arrays (tag + payload) indexed by instruction id, executable
    edges (one bit per predecessor slot) and visited blocks are
    {!Ir.Bitset}s, and the worklists carry plain ints — the propagation
    loop allocates nothing.

    The transformation step replaces lattice-constant instructions with
    [Const] nodes and folds decided branches; unreachable blocks are then
    swept by the CFG simplifier / DCE. *)

open Ir.Types
module G = Ir.Graph

type lattice = Top | Cint of int | Cnull | Bottom

let meet a b =
  match (a, b) with
  | Top, x | x, Top -> x
  | Cint m, Cint n when m = n -> a
  | Cnull, Cnull -> Cnull
  | _ -> Bottom

let equal_lattice a b =
  match (a, b) with
  | Top, Top | Cnull, Cnull | Bottom, Bottom -> true
  | Cint m, Cint n -> m = n
  | _ -> false

(* Unboxed lattice encoding: a tag byte plus an int payload (valid only
   for [t_cint]).  Storing ints instead of boxed constructors keeps the
   propagation loop free of write barriers and allocation. *)
let t_top = 0
let t_cint = 1
let t_cnull = 2
let t_bottom = 3

(* Growable int stack: the worklists push plain ints, a [Queue] cell per
   push is pure churn.  LIFO order is fine — the lattice only ever moves
   down, so the fixpoint is order-independent. *)
type stack = { mutable buf : int array; mutable top : int }

let stack_create n = { buf = Array.make (max 16 n) 0; top = 0 }

let push st v =
  if st.top = Array.length st.buf then begin
    let buf = Array.make (2 * st.top) 0 in
    Array.blit st.buf 0 buf 0 st.top;
    st.buf <- buf
  end;
  st.buf.(st.top) <- v;
  st.top <- st.top + 1

type state = {
  g : G.t;
  tag : Bytes.t;  (** lattice tag per instruction id *)
  pay : int array;  (** Cint payload per instruction id *)
  edge_executable : Ir.Bitset.t;
      (** bit [pred_slot.(s) + i]: the edge from [s]'s [i]-th
          predecessor *)
  pred_slot : int array;  (** first bit of each block's predecessors *)
  block_visited : Ir.Bitset.t;
  flow_worklist : stack;  (** encoded edges *)
  ssa_worklist : stack;
  n_blocks : int;
}

let get_tag st v = Char.code (Bytes.unsafe_get st.tag v)
let lattice_of st v =
  match get_tag st v with
  | 0 -> Top
  | 1 -> Cint st.pay.(v)
  | 2 -> Cnull
  | _ -> Bottom

(* Evaluate one instruction over the lattice. *)
let eval_kind st kind =
  match kind with
  | Const n -> Cint n
  | Null -> Cnull
  | Param _ | New _ | Load _ | Store _ | Load_global _ | Store_global _
  | Call _ ->
      Bottom
  | Neg a -> (
      match get_tag st a with
      | 1 -> Cint (-st.pay.(a))
      | 0 -> Top
      | _ -> Bottom)
  | Not a -> (
      match get_tag st a with
      | 1 -> Cint (if st.pay.(a) = 0 then 1 else 0)
      | 0 -> Top
      | _ -> Bottom)
  | Binop (op, a, b) -> (
      match (get_tag st a, get_tag st b) with
      | 1, 1 -> Cint (eval_binop op st.pay.(a) st.pay.(b))
      | 0, _ | _, 0 -> Top
      | _ -> Bottom)
  | Cmp (op, a, b) -> (
      match (get_tag st a, get_tag st b) with
      | 1, 1 -> Cint (eval_cmp op st.pay.(a) st.pay.(b))
      | 2, 2 -> (
          match op with
          | Eq -> Cint 1
          | Ne -> Cint 0
          | Lt | Le | Gt | Ge -> Bottom)
      | 0, _ | _, 0 -> Top
      | _ -> Bottom)
  | Phi _ -> assert false (* handled separately: depends on edges *)

let set_value st v l =
  let tag, pay =
    match l with
    | Top -> (t_top, 0)
    | Cint n -> (t_cint, n)
    | Cnull -> (t_cnull, 0)
    | Bottom -> (t_bottom, 0)
  in
  if get_tag st v <> tag || (tag = t_cint && st.pay.(v) <> pay) then begin
    Bytes.unsafe_set st.tag v (Char.unsafe_chr tag);
    st.pay.(v) <- pay;
    push st.ssa_worklist v
  end

let eval_phi st phi =
  let bid = G.block_of st.g phi in
  match G.kind st.g phi with
  | Phi inputs ->
      let l = ref Top in
      let n = G.pred_count st.g bid in
      for i = 0 to n - 1 do
        if Ir.Bitset.mem st.edge_executable (st.pred_slot.(bid) + i) then
          l := meet !l (lattice_of st inputs.(i))
      done;
      set_value st phi !l
  | _ -> assert false

let eval_instr st id =
  match G.kind st.g id with
  | Phi _ -> eval_phi st id
  | k -> set_value st id (eval_kind st k)

let eval_terminator st bid =
  let push s = push st.flow_worklist ((bid * st.n_blocks) + s) in
  match G.term st.g bid with
  | Jump t -> push t
  | Branch { cond; if_true; if_false; _ } -> (
      match get_tag st cond with
      | 1 -> if st.pay.(cond) = 0 then push if_false else push if_true
      | 2 ->
          (* null is falsy in the interpreter; a type-checked program
             never branches on a reference, stay conservative. *)
          push if_true;
          push if_false
      | 0 -> () (* not yet known: wait for more information *)
      | _ ->
          push if_true;
          push if_false)
  | Return _ | Unreachable -> ()

let analyze g =
  let nb = G.n_blocks g in
  let pred_slot = Array.make (max 1 nb) 0 in
  let n_slots =
    G.fold_blocks g
      (fun n b ->
        pred_slot.(b) <- n;
        n + G.pred_count g b)
      0
  in
  let st =
    {
      g;
      tag = Bytes.make (G.n_instrs g) '\000';
      pay = Array.make (G.n_instrs g) 0;
      edge_executable = Ir.Bitset.create n_slots;
      pred_slot;
      block_visited = Ir.Bitset.create nb;
      flow_worklist = stack_create nb;
      ssa_worklist = stack_create (G.n_instrs g);
      n_blocks = nb;
    }
  in
  (* Parameters and effects are Bottom from the start. *)
  G.iter_instrs g (fun id ->
      match G.kind g id with
      | Param _ | New _ | Load _ | Store _ | Load_global _ | Store_global _
      | Call _ ->
          Bytes.unsafe_set st.tag id (Char.unsafe_chr t_bottom)
      | _ -> ());
  let entry = G.entry g in
  Ir.Bitset.add st.block_visited entry;
  G.iter_block_instrs g entry (fun id -> eval_instr st id);
  eval_terminator st entry;
  let process_block bid =
    G.iter_block_instrs g bid (fun id -> eval_instr st id);
    eval_terminator st bid
  in
  let continue_ = ref true in
  while !continue_ do
    continue_ := false;
    while st.flow_worklist.top > 0 do
      continue_ := true;
      st.flow_worklist.top <- st.flow_worklist.top - 1;
      let e = st.flow_worklist.buf.(st.flow_worklist.top) in
      let s = e mod nb in
      let bit = pred_slot.(s) + G.pred_index g s (e / nb) in
      if not (Ir.Bitset.mem st.edge_executable bit) then begin
        Ir.Bitset.add st.edge_executable bit;
        (* A newly executable edge re-evaluates the target's phis (their
           meet now includes this edge). *)
        G.iter_phis g s (fun phi -> eval_phi st phi);
        if not (Ir.Bitset.mem st.block_visited s) then begin
          Ir.Bitset.add st.block_visited s;
          process_block s
        end
      end
    done;
    while st.ssa_worklist.top > 0 do
      continue_ := true;
      st.ssa_worklist.top <- st.ssa_worklist.top - 1;
      let v = st.ssa_worklist.buf.(st.ssa_worklist.top) in
      G.iter_uses_enc g v (fun e ->
          if G.user_is_term e then begin
            let bid = G.user_target e in
            if Ir.Bitset.mem st.block_visited bid then eval_terminator st bid
          end
          else begin
            let u = G.user_target e in
            if Ir.Bitset.mem st.block_visited (G.block_of g u) then
              eval_instr st u
          end)
    done
  done;
  st

let run ctx g =
  Phase.charge_graph ctx g;
  let st = analyze g in
  let n_analyzed = Bytes.length st.tag in
  let changed = ref false in
  let mk_const = Canonicalize.materialize_const g in
  (* Replace lattice constants.  A phi cannot simply change kind (it
     lives in the block's phi list); its uses are redirected to a
     materialized constant instead and DCE collects it. *)
  G.iter_instrs g (fun id ->
      (* Constants materialized during this very loop have no lattice
         entry (and need none). *)
      if
        id < n_analyzed
        && G.instr_exists g id
        && Ir.Bitset.mem st.block_visited (G.block_of g id)
      then
        match (lattice_of st id, G.kind g id) with
        | Cint n, Phi _ ->
            let c = mk_const n in
            if G.has_uses g id then begin
              G.replace_uses g id ~by:c;
              changed := true
            end
        | Cint n, kind when is_pure kind && kind <> Const n ->
            G.set_kind g id (Const n);
            changed := true
        | Cnull, kind when is_pure kind && kind <> Null && (match kind with Phi _ -> false | _ -> true) ->
            G.set_kind g id Null;
            changed := true
        | _ -> ());
  (* Fold branches whose direction the analysis decided.  A condition
     may just have been redirected to a freshly materialized constant
     (no lattice entry): read the constant directly in that case. *)
  let cond_value c =
    if c < n_analyzed then lattice_of st c
    else match G.kind g c with Const n -> Cint n | _ -> Bottom
  in
  G.iter_blocks g (fun bid ->
      if Ir.Bitset.mem st.block_visited bid then
        match G.term g bid with
        | Branch { cond; if_true; if_false; _ } -> (
            match cond_value cond with
            | Cint 0 ->
                G.set_term g bid (Jump if_false);
                changed := true
            | Cint _ ->
                G.set_term g bid (Jump if_true);
                changed := true
            | Top | Cnull | Bottom -> ())
        | Jump _ | Return _ | Unreachable -> ());
  if !changed then ignore (G.remove_unreachable_blocks g);
  !changed

(* The optimistic lattice has no sound region form: a constant reached
   around a cycle is only proved by the whole fixpoint.  But deleting
   instructions nothing read changes no other value's lattice entry or
   branch, so such a region fires nothing. *)
let run_region ctx g (c : Ir.Analyses.clean) =
  Region.beyond_deletions g ~since:c.Ir.Analyses.at && run ctx g

let phase = Phase.make ~region:run_region "sccp" run
