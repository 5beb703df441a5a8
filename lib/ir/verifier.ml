(** Structural and SSA well-formedness checks.  Tests run the verifier
    after every transformation; a failure message pinpoints the broken
    invariant.

    The checks are arena-shaped: position maps and use-count tables are
    flat int arrays indexed by instruction id (reset by walking the same
    ids again, so a verify pass allocates O(arena) once and nothing per
    block), and the dominance check reads the memoized {!Analyses.dom}
    tree — on the common verify-then-optimize path the optimizer reuses
    the same cached tree. *)

open Types

exception Invalid of string

let fail fmt = Fmt.kstr (fun s -> raise (Invalid s)) fmt

let check_edges g =
  (* succs/preds must be mutually consistent over reachable blocks. *)
  Graph.iter_blocks g (fun bid ->
      List.iter
        (fun s ->
          if not (Graph.block_exists g s) then
            fail "b%d targets dead block b%d" bid s;
          let found = ref false in
          Graph.iter_preds g s (fun p -> if p = bid then found := true);
          if not !found then
            fail "b%d -> b%d edge missing from preds of b%d" bid s s)
        (Graph.succs g bid);
      Graph.iter_preds g bid (fun p ->
          if not (Graph.block_exists g p) then
            fail "b%d lists dead predecessor b%d" bid p;
          if not (List.mem bid (Graph.succs g p)) then
            fail "b%d lists b%d as predecessor but b%d does not target it" bid
              p p))

let check_instr_placement g =
  Graph.iter_blocks g (fun bid ->
      Graph.iter_block_instrs g bid (fun id ->
          if not (Graph.instr_exists g id) then
            fail "b%d contains dead instruction v%d" bid id;
          if Graph.block_of g id <> bid then
            fail "v%d listed in b%d but claims block b%d" id bid
              (Graph.block_of g id));
      Graph.iter_phis g bid (fun id ->
          match Graph.kind g id with
          | Phi _ -> ()
          | _ -> fail "v%d is in the phi list of b%d but is not a phi" id bid);
      Graph.iter_body g bid (fun id ->
          match Graph.kind g id with
          | Phi _ -> fail "phi v%d appears in the body of b%d" id bid
          | _ -> ()))

(* Each block's effect chain is its body filtered to the member kinds,
   in order.  The chain is walked against the body, so a corrupt chain
   (even a cyclic one) fails instead of running on. *)
let check_effect_chains g =
  Graph.iter_blocks g (fun bid ->
      let expected =
        ref
          (List.filter
             (fun id -> Graph.effect_kind (Graph.kind g id))
             (Graph.body g bid))
      in
      Graph.iter_effects g bid (fun c ->
          match !expected with
          | id :: rest when id = c -> expected := rest
          | id :: _ ->
              fail "effect chain of b%d has v%d where the body has v%d" bid c
                id
          | [] -> fail "effect chain of b%d has stray v%d" bid c);
      match !expected with
      | [] -> ()
      | id :: _ -> fail "effect chain of b%d is missing v%d" bid id)

let check_allocation_index g =
  let live_news =
    Graph.fold_instrs g
      (fun acc id -> match Graph.kind g id with New _ -> id :: acc | _ -> acc)
      []
  in
  if Graph.allocations g <> live_news then
    fail "allocation index [%s] is not the live allocations [%s]"
      (String.concat " " (List.map string_of_int (Graph.allocations g)))
      (String.concat " " (List.map string_of_int live_news))

let check_phi_arity g =
  Graph.iter_blocks g (fun bid ->
      let n_preds = Graph.pred_count g bid in
      Graph.iter_phis g bid (fun id ->
          match Graph.kind g id with
          | Phi inputs ->
              if Array.length inputs <> n_preds then
                fail "phi v%d in b%d has %d inputs for %d predecessors" id bid
                  (Array.length inputs) n_preds;
              Array.iter
                (fun v ->
                  if v = invalid_value then
                    fail "phi v%d in b%d has an unfilled input" id bid)
                inputs
          | _ -> ()))

let check_input_validity g =
  Graph.iter_instrs g (fun id ->
      iter_inputs
        (fun v ->
          if v = invalid_value then fail "v%d has an invalid input" id
          else if not (Graph.instr_exists g v) then
            fail "v%d reads dead value v%d" id v)
        (Graph.kind g id));
  Graph.iter_blocks g (fun bid ->
      let check v =
        if v = invalid_value || not (Graph.instr_exists g v) then
          fail "terminator of b%d reads invalid value" bid
      in
      match Graph.term g bid with
      | Return (Some v) -> check v
      | Branch { cond; _ } -> check cond
      | Jump _ | Return None | Unreachable -> ())

(* SSA dominance property: every non-phi use is dominated by its def;
   every phi input is defined at the end of the corresponding predecessor
   (i.e. its def dominates that predecessor). *)
let check_dominance g =
  let dom = Analyses.dom g in
  (* Same-block ordering positions, shared across blocks: filled and
     reset per block by walking the block's own ids. *)
  let pos = Array.make (max 1 (Graph.n_instrs g)) (-1) in
  Graph.iter_blocks g (fun bid ->
      if Dom.is_reachable dom bid then begin
        let next = ref 0 in
        Graph.iter_block_instrs g bid (fun id ->
            pos.(id) <- !next;
            incr next);
        let def_ok use_id v =
          let def_block = Graph.block_of g v in
          if def_block = bid then begin
            (* Same-block: def must come first. *)
            let p_def = pos.(v) in
            if p_def < 0 || p_def >= pos.(use_id) then
              fail "v%d uses v%d before its definition in b%d" use_id v bid
          end
          else if not (Dom.strictly_dominates dom def_block bid) then
            fail "use of v%d (def b%d) in v%d (b%d) violates dominance" v
              def_block use_id bid
        in
        Graph.iter_block_instrs g bid (fun id ->
            match Graph.kind g id with
            | Phi inputs ->
                let pred_i = ref 0 in
                Graph.iter_preds g bid (fun pred ->
                    (* An edge from an unreachable predecessor (e.g. a
                       region cut off by a folded branch) is never taken;
                       dominance is undefined there and the input is
                       dead. *)
                    (if Dom.is_reachable dom pred then
                       let v = inputs.(!pred_i) in
                       let def_block = Graph.block_of g v in
                       if not (Dom.dominates dom def_block pred) then
                         fail
                           "phi v%d input v%d (def b%d) does not dominate \
                            predecessor b%d"
                           id v def_block pred);
                    incr pred_i)
            | k -> List.iter (def_ok id) (inputs_of_kind k));
        (match Graph.term g bid with
        | Return (Some v) ->
            let db = Graph.block_of g v in
            if db <> bid && not (Dom.strictly_dominates dom db bid) then
              fail "return in b%d uses non-dominating v%d" bid v
        | Branch { cond; _ } ->
            let db = Graph.block_of g cond in
            if db <> bid && not (Dom.strictly_dominates dom db bid) then
              fail "branch in b%d uses non-dominating v%d" bid cond
        | Jump _ | Return None | Unreachable -> ());
        Graph.iter_block_instrs g bid (fun id -> pos.(id) <- -1)
      end)

let check_uses g =
  (* Use lists must match actual references, as multisets of
     (value, user) pairs.  Keys pack the value id with the user's packed
     encoding into one int, counted in an int-keyed table — no tuple
     allocation per reference. *)
  let expected : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let shift = 1 + (2 * Sys.int_size / 3) in
  let key v enc = (v lsl shift) lor enc in
  let record v enc =
    if v >= 0 then
      let k = key v enc in
      Hashtbl.replace expected k
        (1 + Option.value ~default:0 (Hashtbl.find_opt expected k))
  in
  Graph.iter_instrs g (fun id ->
      iter_inputs (fun v -> record v (id lsl 1)) (Graph.kind g id));
  Graph.iter_blocks g (fun bid ->
      match Graph.term g bid with
      | Return (Some v) -> record v ((bid lsl 1) lor 1)
      | Branch { cond; _ } -> record cond ((bid lsl 1) lor 1)
      | Jump _ | Return None | Unreachable -> ());
  Graph.iter_instrs g (fun v ->
      Graph.iter_uses_enc g v (fun enc ->
          let k = key v enc in
          match Hashtbl.find_opt expected k with
          | Some n when n > 0 -> Hashtbl.replace expected k (n - 1)
          | _ -> fail "use list of v%d has a stale entry" v));
  Hashtbl.iter
    (fun k n ->
      if n > 0 then fail "use list of v%d is missing an entry" (k lsr shift))
    expected

let check_entry g =
  let entry = Graph.entry g in
  if not (Graph.block_exists g entry) then fail "entry block b%d is dead" entry;
  if Graph.phis g entry <> [] then fail "entry block has phis"

(* The graph's reachability bit is clear only while every block is
   reachable: a clear bit lets the unreachable-block sweep skip its
   walk. *)
let check_reachability g =
  if not (Graph.may_have_unreachable g) then begin
    let dom = Analyses.dom g in
    Graph.iter_blocks g (fun bid ->
        if not (Dom.is_reachable dom bid) then
          fail "b%d is unreachable, but the reachability bit is clear" bid)
  end

(** Run all checks; raises {!Invalid} with a description on failure. *)
let verify g =
  check_entry g;
  check_reachability g;
  check_edges g;
  check_instr_placement g;
  check_effect_chains g;
  check_allocation_index g;
  check_phi_arity g;
  check_input_validity g;
  check_uses g;
  check_dominance g

(** [verify_result g] is [Ok ()] or [Error message]. *)
let verify_result g =
  match verify g with () -> Ok () | exception Invalid m -> Error m
