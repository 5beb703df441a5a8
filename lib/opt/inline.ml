(** Function inlining.

    Graal runs DBDS on post-inlining compilation units: hot leaf logic
    sits inside its caller's loops, which is what makes relative block
    frequencies (the trade-off's [p] factor) meaningful and what produces
    the large units the paper's evaluation compiles.  This inliner
    reproduces that: functions are processed callee-first and call sites
    are spliced in place — the call block is split, the callee's blocks
    are copied with parameters bound to arguments, and returns jump to
    the continuation (merging results through a phi).

    Self-recursive calls (and any call that would exceed the size budget)
    stay as calls; the interpreter executes them out-of-line. *)

open Ir.Types
module G = Ir.Graph

type limits = {
  max_callee_size : int;  (** don't inline callees larger than this *)
  max_caller_size : int;  (** stop growing a caller beyond this *)
  max_sites_per_caller : int;
}

let default_limits =
  { max_callee_size = 400; max_caller_size = 4000; max_sites_per_caller = 64 }

(* Splice one call site.  [callee] must be a different graph from [g].

   The copy is indexed by callee id in flat arrays: [block_map] and
   [value_map] send a callee block / value to its copy.  The copied
   blocks are added in one run, so their ids are contiguous from [base]
   and [rpo.(nb - base)] is the callee block that [nb] copies. *)
let inline_site g call_id (callee : G.t) =
  let call_block = G.block_of g call_id in
  let args =
    match G.kind g call_id with
    | Call (_, args) -> args
    | _ -> invalid_arg "inline_site: not a call"
  in
  if call_block < 0 then invalid_arg "inline_site: call not found in its block";
  (* Split the call block: everything after the call moves to [cont]. *)
  let cont = G.add_block g in
  (* Move the call block's terminator to [cont], keeping successor
     predecessor lists and phi inputs intact (the edge source is renamed,
     its position is unchanged). *)
  G.transfer_term g ~src:call_block ~dst:cont;
  (* Move the instructions after the call into [cont] (the iterator reads
     each next link before the move). *)
  let after = ref false in
  G.iter_body g call_block (fun id ->
      if !after then begin
        G.detach g id;
        G.attach g id cont
      end
      else if id = call_id then after := true);
  (* Copy the callee's reachable blocks. *)
  let rpo = Array.of_list (G.rpo callee) in
  let base = G.n_blocks g in
  let block_map = Array.make (max 1 (G.n_blocks callee)) (-1) in
  Array.iter (fun ob -> block_map.(ob) <- G.add_block g) rpo;
  let copy_of nb =
    if nb >= base && nb < base + Array.length rpo then rpo.(nb - base)
    else invalid_arg "inline_site: unknown predecessor copy"
  in
  let value_map = Array.make (max 1 (G.n_instrs callee)) invalid_value in
  let mapped msg v =
    let v' =
      if v >= 0 && v < Array.length value_map then value_map.(v)
      else invalid_value
    in
    if v' = invalid_value then invalid_arg msg else v'
  in
  let use_value v = mapped "inline_site: use before def" v in
  let map_value v = mapped "inline_site: unmapped value" v in
  (* Copy instructions in reverse-postorder so that a non-phi use always
     sees its definition already mapped (SSA dominance guarantees defs
     come first except for phi back-edge inputs, patched afterwards). *)
  let pending_phis = ref [] in
  Array.iter
    (fun ob ->
      let nb = block_map.(ob) in
      G.iter_block_instrs callee ob (fun id ->
          match G.kind callee id with
          | Param i ->
              value_map.(id) <-
                (if i < Array.length args then args.(i)
                 else invalid_arg "inline_site: missing argument")
          | Phi inputs ->
              (* Create with placeholder inputs; patch after all values
                 exist and predecessor orders are final. *)
              let id' =
                G.append g nb (Phi (Array.make (Array.length inputs) invalid_value))
              in
              value_map.(id) <- id';
              pending_phis := (ob, id, id') :: !pending_phis
          | k -> value_map.(id) <- G.append g nb (map_inputs use_value k)))
    rpo;
  (* Terminators: structure-preserving, with returns routed to [cont]. *)
  let returns = ref [] in
  Array.iter
    (fun ob ->
      let nb = block_map.(ob) in
      match G.term callee ob with
      | Jump t -> G.set_term g nb (Jump block_map.(t))
      | Branch { cond; if_true; if_false; prob } ->
          G.set_term g nb
            (Branch
               {
                 cond = map_value cond;
                 if_true = block_map.(if_true);
                 if_false = block_map.(if_false);
                 prob;
               })
      | Return v ->
          returns := (nb, Option.map map_value v) :: !returns;
          G.set_term g nb (Jump cont)
      | Unreachable -> G.set_term g nb Unreachable)
    rpo;
  (* Patch copied phis: align inputs with the copied blocks' predecessor
     order (every predecessor of a copied non-entry block is a copied
     block). *)
  List.iter
    (fun (ob, old_phi, new_phi) ->
      let old_inputs =
        match G.kind callee old_phi with Phi i -> i | _ -> assert false
      in
      let n_old = G.pred_count callee ob in
      let input_of_old_pred p =
        let rec idx i =
          if i = n_old then invalid_arg "inline_site: phi pred mismatch"
          else if G.pred_nth callee ob i = p then i
          else idx (i + 1)
        in
        map_value old_inputs.(idx 0)
      in
      let nb = block_map.(ob) in
      let inputs' =
        Array.init (G.pred_count g nb) (fun i ->
            input_of_old_pred (copy_of (G.pred_nth g nb i)))
      in
      G.set_kind g new_phi (Phi inputs'))
    !pending_phis;
  (* Route the split block into the inlined entry. *)
  G.set_term g call_block (Jump block_map.(G.entry callee));
  (* Bind the call's result. *)
  let result =
    match !returns with
    | [] -> None
    | [ (_, v) ] -> v
    | by_block ->
        (* [cont]'s predecessors are exactly the returning blocks; build
           the result phi aligned with that order. *)
        let inputs =
          List.map
            (fun p ->
              match List.assoc_opt p by_block with
              | Some (Some v) -> v
              | Some None | None ->
                  (* void returns merging into a used result cannot occur
                     in type-checked programs *)
                  invalid_value)
            (G.preds g cont)
        in
        if List.exists (fun v -> v = invalid_value) inputs then None
        else Some (G.prepend g cont (Phi (Array.of_list inputs)))
  in
  (match result with
  | Some v -> G.replace_uses g call_id ~by:v
  | None ->
      if G.has_uses g call_id then
        invalid_arg "inline_site: result of void call is used");
  G.remove_instr g call_id

(* Size in instruction count (cheap; the cost-model size is for budgets
   elsewhere). *)
let graph_instrs g = G.live_instr_count g

(** Inline eligible call sites in [g] given the program: the first
    eligible call in id order, until none is left or the site cap is hit.

    The search resumes after the call just spliced instead of rescanning
    the caller.  That finds the same site: every call before it was
    ineligible, the spliced code gets higher ids, and a call skipped for
    [max_caller_size] stays skipped while the caller does not shrink —
    callee sizes are fixed while [g] is inlined.  A splice that copies
    no instruction (an empty callee, or one of parameters only) removes
    the call and shrinks the caller, which may let an earlier site fit,
    so the search restarts at 0 after it. *)
let inline_graph ?(limits = default_limits) ctx program g =
  let eligible id =
    match G.kind g id with
    | Call (callee_name, _) -> (
        match Ir.Program.find_function program callee_name with
        | Some callee
          when callee != g
               && callee_name <> G.name g
               && graph_instrs callee <= limits.max_callee_size
               && graph_instrs g + graph_instrs callee
                  <= limits.max_caller_size ->
            Some callee
        | _ -> None)
    | _ -> None
  in
  let rec next_site id =
    if id >= G.n_instrs g then None
    else if not (G.instr_exists g id) then next_site (id + 1)
    else
      match eligible id with
      | Some callee -> Some (id, callee)
      | None -> next_site (id + 1)
  in
  let rec splice from sites =
    if sites >= limits.max_sites_per_caller then sites
    else
      match next_site from with
      | None -> sites
      | Some (call_id, callee) ->
          Phase.charge ctx (graph_instrs callee);
          let before = graph_instrs g in
          inline_site g call_id callee;
          splice (if graph_instrs g < before then 0 else call_id + 1) (sites + 1)
  in
  splice 0 0 > 0

(** Inline a whole program bottom-up (callees before callers, so a callee
    spliced into its caller already contains its own inlined calls). *)
let inline_program ?limits ctx program =
  let size () =
    let n = ref 0 in
    Ir.Program.iter_functions program (fun g -> n := !n + G.live_instr_count g);
    !n
  in
  Phase.instrument ctx "inline" ~size @@ fun () ->
  (* Topological-ish order: repeatedly process functions; the per-site
     loop naturally copies fully-inlined callees on later passes. *)
  let names = Ir.Program.function_names program in
  (* Leaf-first: order by number of call instructions ascending, each
     counted once. *)
  let call_count name =
    match Ir.Program.find_function program name with
    | None -> 0
    | Some g ->
        G.fold_instrs g
          (fun n id -> match G.kind g id with Call _ -> n + 1 | _ -> n)
          0
  in
  let ordered =
    List.map (fun name -> (call_count name, name)) names
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map snd
  in
  let changed = ref false in
  List.iter
    (fun name ->
      match Ir.Program.find_function program name with
      | Some g -> if inline_graph ?limits ctx program g then changed := true
      | None -> ())
    ordered;
  !changed
