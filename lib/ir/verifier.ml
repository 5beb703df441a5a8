(** Structural and SSA well-formedness checks.  Tests run the verifier
    after every transformation; a failure message pinpoints the broken
    invariant.

    The checks are arena-shaped: position maps, reference counts and
    effect members are flat int arrays indexed by instruction id, made
    once per verify and never cleared (positions come from one counter,
    per-user read counts are stamped with their value), so a verify pass
    allocates O(arena) once and nothing per block or per reference.  The
    dominance check reads the memoized {!Analyses.dom} tree — on the
    common verify-then-optimize path the optimizer reuses the same
    cached tree. *)

open Types

exception Invalid of string

let fail fmt = Fmt.kstr (fun s -> raise (Invalid s)) fmt

(* Does [term] name [b] as a successor? *)
let targets term b =
  match term with
  | Jump t -> t = b
  | Branch { if_true; if_false; _ } -> if_true = b || if_false = b
  | Return _ | Unreachable -> false

let check_edges g =
  (* succs/preds must be mutually consistent over reachable blocks. *)
  Graph.iter_blocks g (fun bid ->
      let check_succ s =
        if not (Graph.block_exists g s) then
          fail "b%d targets dead block b%d" bid s;
        let found = ref false in
        Graph.iter_preds g s (fun p -> if p = bid then found := true);
        if not !found then
          fail "b%d -> b%d edge missing from preds of b%d" bid s s
      in
      (match Graph.term g bid with
      | Jump t -> check_succ t
      | Branch { if_true; if_false; _ } ->
          check_succ if_true;
          if if_false <> if_true then check_succ if_false
      | Return _ | Unreachable -> ());
      Graph.iter_preds g bid (fun p ->
          if not (Graph.block_exists g p) then
            fail "b%d lists dead predecessor b%d" bid p;
          if not (targets (Graph.term g p) bid) then
            fail "b%d lists b%d as predecessor but b%d does not target it" bid
              p p))

(* Instruction placement, phi/body kinds and effect chains, in one walk
   per block.  A block's effect chain is its body filtered to the member
   kinds, in order: the members go into a flat array shared across
   blocks, and the chain is walked against it, so a corrupt chain (even
   a cyclic one) fails instead of running on.  The first failure is the
   one separate passes would report: a block's kind failure waits until
   all its instructions are placed, and an effect-chain failure until
   every block is. *)
let check_blocks g =
  let members = Array.make (max 1 (Graph.n_instrs g)) (-1) in
  let chain_failure = ref None in
  Graph.iter_blocks g (fun bid ->
      let kind_failure = ref None in
      let defer cell fmt =
        Printf.ksprintf (fun m -> if !cell = None then cell := Some m) fmt
      in
      let place id =
        if not (Graph.instr_exists g id) then
          fail "b%d contains dead instruction v%d" bid id;
        if Graph.block_of g id <> bid then
          fail "v%d listed in b%d but claims block b%d" id bid
            (Graph.block_of g id)
      in
      Graph.iter_phis g bid (fun id ->
          place id;
          match Graph.kind g id with
          | Phi _ -> ()
          | _ ->
              defer kind_failure "v%d is in the phi list of b%d but is not a phi"
                id bid);
      let n = ref 0 in
      Graph.iter_body g bid (fun id ->
          place id;
          match Graph.kind g id with
          | Phi _ -> defer kind_failure "phi v%d appears in the body of b%d" id bid
          | k ->
              if Graph.effect_kind k then begin
                members.(!n) <- id;
                incr n
              end);
      Option.iter (fun m -> raise (Invalid m)) !kind_failure;
      if !chain_failure = None then begin
        let i = ref 0 in
        (try
           Graph.iter_effects g bid (fun c ->
               if !i = !n then fail "effect chain of b%d has stray v%d" bid c;
               let id = members.(!i) in
               if id <> c then
                 fail "effect chain of b%d has v%d where the body has v%d" bid
                   c id;
               incr i);
           if !i < !n then
             fail "effect chain of b%d is missing v%d" bid members.(!i)
         with Invalid m -> chain_failure := Some m)
      end);
  Option.iter (fun m -> raise (Invalid m)) !chain_failure

let is_new g id = match Graph.kind g id with New _ -> true | _ -> false

(* The index equals the live [New]s by decreasing id exactly when it
   is strictly decreasing, holds only live [New]s, and is as long as
   their count. *)
let check_allocation_index g =
  let live = Graph.fold_instrs g (fun n id -> if is_new g id then n + 1 else n) 0 in
  let rec ok prev len = function
    | [] -> len = live
    | a :: rest ->
        a < prev && Graph.instr_exists g a && is_new g a && ok a (len + 1) rest
  in
  if not (ok max_int 0 (Graph.allocations g)) then
    let live_news =
      Graph.fold_instrs g (fun acc id -> if is_new g id then id :: acc else acc) []
    in
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

(* Every input names a live value.  Returns each value's reference
   count (instructions and terminators), which {!check_uses} matches
   against the use lists. *)
let check_input_validity g =
  let refs = Array.make (max 1 (Graph.n_instrs g)) 0 in
  (* One input visitor for every instruction, told the user through
     [user]: no closure per instruction. *)
  let user = ref 0 in
  let input v =
    if v = invalid_value then fail "v%d has an invalid input" !user
    else if not (Graph.instr_exists g v) then
      fail "v%d reads dead value v%d" !user v;
    refs.(v) <- refs.(v) + 1
  in
  Graph.iter_instrs g (fun id ->
      user := id;
      iter_inputs input (Graph.kind g id));
  Graph.iter_blocks g (fun bid ->
      let check v =
        if v = invalid_value || not (Graph.instr_exists g v) then
          fail "terminator of b%d reads invalid value" bid;
        refs.(v) <- refs.(v) + 1
      in
      match Graph.term g bid with
      | Return (Some v) -> check v
      | Branch { cond; _ } -> check cond
      | Jump _ | Return None | Unreachable -> ());
  refs

(* SSA dominance property: every non-phi use is dominated by its def;
   every phi input is defined at the end of the corresponding predecessor
   (i.e. its def dominates that predecessor). *)
let check_dominance g =
  let dom = Analyses.dom g in
  (* Dominator-tree intervals: [a] dominates [b] when [b]'s interval
     nests in [a]'s, an O(1) query where {!Dom.dominates} walks up [b]'s
     idom chain. *)
  let nb = max 1 (Graph.n_blocks g) in
  let enter = Array.make nb (-1) and leave = Array.make nb (-1) in
  let clock = ref 0 in
  let tick stamps b =
    stamps.(b) <- !clock;
    incr clock
  in
  Dom.walk dom ~enter:(tick enter) ~exit:(tick leave);
  let dominates a b =
    a >= 0 && a < nb && enter.(a) >= 0 && enter.(b) >= 0
    && enter.(a) <= enter.(b)
    && leave.(b) <= leave.(a)
  in
  let strictly_dominates a b = a <> b && dominates a b in
  (* Same-block ordering positions from one counter across all blocks:
     a position from before the current block's first is stale (the
     instruction was numbered in another block), so nothing is reset. *)
  let pos = Array.make (max 1 (Graph.n_instrs g)) (-1) in
  let next = ref 0 in
  Graph.iter_blocks g (fun bid ->
      if Dom.is_reachable dom bid then begin
        let first = !next in
        Graph.iter_block_instrs g bid (fun id ->
            pos.(id) <- !next;
            incr next);
        let use_id = ref 0 in
        let def_ok v =
          let use_id = !use_id in
          let def_block = Graph.block_of g v in
          if def_block = bid then begin
            (* Same-block: def must come first. *)
            let p_def = pos.(v) in
            if p_def < first || p_def >= pos.(use_id) then
              fail "v%d uses v%d before its definition in b%d" use_id v bid
          end
          else if not (strictly_dominates def_block bid) then
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
                       if not (dominates def_block pred) then
                         fail
                           "phi v%d input v%d (def b%d) does not dominate \
                            predecessor b%d"
                           id v def_block pred);
                    incr pred_i)
            | k ->
                use_id := id;
                iter_inputs def_ok k);
        (match Graph.term g bid with
        | Return (Some v) ->
            let db = Graph.block_of g v in
            if db <> bid && not (strictly_dominates db bid) then
              fail "return in b%d uses non-dominating v%d" bid v
        | Branch { cond; _ } ->
            let db = Graph.block_of g cond in
            if db <> bid && not (strictly_dominates db bid) then
              fail "branch in b%d uses non-dominating v%d" bid cond
        | Jump _ | Return None | Unreachable -> ())
      end)

(* How many times [kind] reads [v]. *)
let reads_of kind (v : value) =
  let eq a = if a = v then 1 else 0 in
  match kind with
  | Const _ | Null | Param _ | Load_global _ -> 0
  | Binop (_, a, b) | Cmp (_, a, b) | Store (a, _, b) -> eq a + eq b
  | Neg a | Not a | Load (a, _) | Store_global (_, a) -> eq a
  | Phi vs | New (_, vs) | Call (_, vs) ->
      let n = ref 0 in
      Array.iter (fun a -> n := !n + eq a) vs;
      !n

let check_uses g refs =
  (* Use lists must match actual references, as multisets of
     (value, user) pairs; users are in their packed encoding (instruction
     [i] is [2i], block [b]'s terminator [2b + 1]).  [refs] holds each
     value's reference count.  Walking a value's use list, a user's
     first entry loads how often that user really reads the value into
     [left], stamped with the value's id, and every entry spends one of
     the user's reads and one of the value's references: an entry with
     no read left is stale, and a value with a reference left is
     missing an entry.  Flat arrays
     throughout: nothing is cleared between values, nothing allocated
     per reference. *)
  let n = Graph.n_instrs g in
  let users = 2 * (max n (Graph.n_blocks g) + 1) in
  let stamp = Array.make users (-1) and left = Array.make users 0 in
  let reads enc v =
    let t = enc asr 1 in
    if enc land 1 = 0 then
      if Graph.instr_exists g t then reads_of (Graph.kind g t) v else 0
    else if Graph.block_exists g t then
      match Graph.term g t with
      | Return (Some a) when a = v -> 1
      | Branch { cond; _ } when cond = v -> 1
      | _ -> 0
    else 0
  in
  let value = ref 0 in
  let entry enc =
    let v = !value in
    if enc < 0 || enc >= users then fail "use list of v%d has a stale entry" v;
    if stamp.(enc) <> v then begin
      stamp.(enc) <- v;
      left.(enc) <- reads enc v
    end;
    if left.(enc) = 0 then fail "use list of v%d has a stale entry" v;
    left.(enc) <- left.(enc) - 1;
    refs.(v) <- refs.(v) - 1
  in
  Graph.iter_instrs g (fun v ->
      value := v;
      Graph.iter_uses_enc g v entry);
  Array.iteri
    (fun v r -> if r > 0 then fail "use list of v%d is missing an entry" v)
    refs

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
  check_blocks g;
  check_allocation_index g;
  check_phi_arity g;
  check_uses g (check_input_validity g);
  check_dominance g

(** [verify_result g] is [Ok ()] or [Error message]. *)
let verify_result g =
  match verify g with () -> Ok () | exception Invalid m -> Error m
