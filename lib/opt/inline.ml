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

(* Splice one call site.  [callee] must be a different graph from [g]. *)
let inline_site g call_id (callee : G.t) =
  let call_block = G.block_of g call_id in
  let args =
    match G.kind g call_id with
    | Call (_, args) -> args
    | _ -> invalid_arg "inline_site: not a call"
  in
  (* Split the call block: everything after the call moves to [cont]. *)
  let rec split before = function
    | [] -> invalid_arg "inline_site: call not found in its block"
    | id :: rest when id = call_id -> (List.rev before, rest)
    | id :: rest -> split (id :: before) rest
  in
  let _before, after = split [] (G.body g call_block) in
  let cont = G.add_block g in
  (* Move the call block's terminator to [cont], keeping successor
     predecessor lists and phi inputs intact (the edge source is renamed,
     its position is unchanged). *)
  G.transfer_term g ~src:call_block ~dst:cont;
  (* Move the instructions after the call into [cont]. *)
  List.iter
    (fun id ->
      G.detach g id;
      G.attach g id cont)
    after;
  (* Copy the callee's reachable blocks. *)
  let callee_rpo = G.rpo callee in
  let block_map = Hashtbl.create 16 in
  List.iter (fun ob -> Hashtbl.replace block_map ob (G.add_block g)) callee_rpo;
  let new_block ob = Hashtbl.find block_map ob in
  let value_map = Hashtbl.create 32 in
  let returns = ref [] in
  (* Copy instructions in reverse-postorder so that a non-phi use always
     sees its definition already mapped (SSA dominance guarantees defs
     come first except for phi back-edge inputs, patched afterwards). *)
  let pending_phis = ref [] in
  List.iter
    (fun ob ->
      let nb = new_block ob in
      List.iter
        (fun id ->
          let kind = G.kind callee id in
          match kind with
          | Param i ->
              let v =
                if i < Array.length args then args.(i)
                else invalid_arg "inline_site: missing argument"
              in
              Hashtbl.replace value_map id v
          | Phi inputs ->
              (* Create with placeholder inputs; patch after all values
                 exist and predecessor orders are final. *)
              let id' =
                G.append g nb (Phi (Array.make (Array.length inputs) invalid_value))
              in
              Hashtbl.replace value_map id id';
              pending_phis := (ob, id, id') :: !pending_phis
          | k ->
              let k' =
                map_inputs
                  (fun v ->
                    match Hashtbl.find_opt value_map v with
                    | Some v' -> v'
                    | None -> invalid_arg "inline_site: use before def")
                  k
              in
              let id' = G.append g nb k' in
              Hashtbl.replace value_map id id')
        (G.block_instrs callee ob))
    callee_rpo;
  let map_value v =
    match Hashtbl.find_opt value_map v with
    | Some v' -> v'
    | None -> invalid_arg "inline_site: unmapped value"
  in
  (* Terminators: structure-preserving, with returns routed to [cont]. *)
  List.iter
    (fun ob ->
      let nb = new_block ob in
      match G.term callee ob with
      | Jump t -> G.set_term g nb (Jump (new_block t))
      | Branch { cond; if_true; if_false; prob } ->
          G.set_term g nb
            (Branch
               {
                 cond = map_value cond;
                 if_true = new_block if_true;
                 if_false = new_block if_false;
                 prob;
               })
      | Return v ->
          returns := (nb, Option.map map_value v) :: !returns;
          G.set_term g nb (Jump cont)
      | Unreachable -> G.set_term g nb Unreachable)
    callee_rpo;
  (* Patch copied phis: align inputs with the copied blocks' predecessor
     order (every predecessor of a copied non-entry block is a copied
     block). *)
  List.iter
    (fun (ob, old_phi, new_phi) ->
      let old_preds = G.preds callee ob in
      let old_inputs =
        match G.kind callee old_phi with Phi i -> i | _ -> assert false
      in
      let input_of_old_pred p =
        let rec idx i = function
          | [] -> invalid_arg "inline_site: phi pred mismatch"
          | q :: rest -> if q = p then i else idx (i + 1) rest
        in
        map_value old_inputs.(idx 0 old_preds)
      in
      let nb = new_block ob in
      let inputs' =
        List.map
          (fun np ->
            (* Find which old pred this new pred is the copy of. *)
            let op =
              Hashtbl.fold
                (fun o n acc -> if n = np then Some o else acc)
                block_map None
            in
            match op with
            | Some o -> input_of_old_pred o
            | None -> invalid_arg "inline_site: unknown predecessor copy")
          (G.preds g nb)
      in
      G.set_kind g new_phi (Phi (Array.of_list inputs')))
    !pending_phis;
  (* Route the split block into the inlined entry. *)
  G.set_term g call_block (Jump (new_block (G.entry callee)));
  (* Bind the call's result. *)
  let result =
    match !returns with
    | [] -> None
    | [ (_, v) ] -> v
    | multiple ->
        (* [cont]'s predecessors are exactly the returning blocks; build
           the result phi aligned with that order. *)
        let by_block = List.map (fun (b, v) -> (b, v)) multiple in
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
      if G.uses g call_id <> [] then
        invalid_arg "inline_site: result of void call is used");
  G.remove_instr g call_id;
  ()

(* Size in instruction count (cheap; the cost-model size is for budgets
   elsewhere). *)
let graph_instrs g = G.live_instr_count g

(** Inline eligible call sites in [g] given the program. *)
let inline_graph ?(limits = default_limits) ctx program g =
  let changed = ref false in
  let sites_done = ref 0 in
  let progress = ref true in
  while !progress && !sites_done < limits.max_sites_per_caller do
    progress := false;
    let candidate =
      G.fold_instrs g
        (fun acc id ->
          match (acc, G.kind g id) with
          | Some _, _ -> acc
          | None, Call (callee_name, _) -> (
              match Ir.Program.find_function program callee_name with
              | Some callee
                when callee != g
                     && callee_name <> G.name g
                     && graph_instrs callee <= limits.max_callee_size
                     && graph_instrs g + graph_instrs callee
                        <= limits.max_caller_size ->
                  Some (id, callee)
              | _ -> None)
          | None, _ -> None)
        None
    in
    match candidate with
    | Some (call_id, callee) ->
        Phase.charge ctx (graph_instrs callee);
        inline_site g call_id callee;
        incr sites_done;
        progress := true;
        changed := true
    | None -> ()
  done;
  !changed

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
  (* Leaf-first: order by number of call instructions ascending. *)
  let call_count name =
    match Ir.Program.find_function program name with
    | None -> 0
    | Some g ->
        G.fold_instrs g
          (fun n id -> match G.kind g id with Call _ -> n + 1 | _ -> n)
          0
  in
  let ordered =
    List.sort (fun a b -> compare (call_count a) (call_count b)) names
  in
  let changed = ref false in
  List.iter
    (fun name ->
      match Ir.Program.find_function program name with
      | Some g -> if inline_graph ?limits ctx program g then changed := true
      | None -> ())
    ordered;
  !changed
