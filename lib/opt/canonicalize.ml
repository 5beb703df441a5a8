(** The canonicalizer: constant folding, algebraic simplification and
    strength reduction, expressed as a pure decision function
    ({!simplify}) plus a phase that applies it.

    The decision function is deliberately side-effect free with respect
    to the instruction being simplified: it is the shared engine behind
    both the real optimization phase and the DBDS applicability checks
    (paper §4.1 splits optimizations into a {e precondition} and an
    {e action step} following Chang et al.; [simplify] computes both —
    returning the action's result rather than mutating the IR).

    Operand kinds are observed through a caller-supplied [kind_of]
    callback: the real phase passes the graph's kinds, the simulation
    tier passes a synonym-resolving view, which is what makes the same
    rules fire "as if" the duplication had been performed. *)

open Ir.Types

(** Result of the action step. *)
type action =
  | Fold of int  (** instruction becomes an integer constant *)
  | Fold_null  (** instruction becomes the null constant *)
  | Alias of value  (** instruction is redundant with an existing value *)
  | Rewrite of instr_kind
      (** instruction is replaced by a cheaper one; operands are existing
          values (fresh constants are materialized via [mk_const]) *)
  | Unchanged

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

(** Does this kind statically produce a non-null reference? *)
let never_null = function New _ -> true | _ -> false

(** [simplify ~kind_of ~mk_const kind] decides how [kind] simplifies given
    the (possibly synonym-resolved) kinds of its operands.  [mk_const] is
    called to materialize fresh integer-constant operands for strength
    reductions.  [self] is the value id of the instruction itself when
    known (it lets loop phis of the shape [phi(x, self)] collapse). *)
let simplify ?self ~kind_of ~mk_const kind =
  let const_of v = match kind_of v with Const n -> Some n | _ -> None in
  let is_null v = match kind_of v with Null -> true | _ -> false in
  match kind with
  | Const _ | Null | Param _ | New _ | Load _ | Store _ | Load_global _
  | Store_global _ | Call _ ->
      Unchanged
  | Neg a -> (
      match kind_of a with
      | Const n -> Fold (-n)
      | Neg inner -> Alias inner
      | _ -> Unchanged)
  | Not a -> (
      match kind_of a with
      | Const n -> Fold (if n = 0 then 1 else 0)
      | Not inner -> Alias inner
      | Cmp _ -> Unchanged (* handled by the phase: rewrite below *)
      | _ -> Unchanged)
  | Phi inputs -> (
      (* Degenerate phis: all inputs identical, up to self-references
         (copy propagation).  Distinct [Const n] instructions of one
         value are copies of one constant too (Sreekala & Paleri: copy
         propagation subsumes constant propagation), so such a phi
         aliases the dominating entry-block constant. *)
      let is_self x = match self with Some s -> x = s | None -> false in
      let v = ref (-1) and distinct = ref false in
      Array.iter
        (fun x ->
          if not (is_self x) then
            if !v = -1 then v := x else if x <> !v then distinct := true)
        inputs;
      if !v < 0 then Unchanged
      else if not !distinct then Alias !v
      else
        match const_of !v with
        | Some n
          when Array.for_all (fun x -> is_self x || const_of x = Some n) inputs
          ->
            Alias (mk_const n)
        | _ -> Unchanged)
  | Cmp (op, a, b) -> (
      let null_compare x y =
        (* x compared against null when x is statically non-null *)
        if is_null y && never_null (kind_of x) then
          match op with Eq -> Fold 0 | Ne -> Fold 1 | _ -> Unchanged
        else Unchanged
      in
      match (const_of a, const_of b) with
      | Some x, Some y -> Fold (eval_cmp op x y)
      | _ when a = b && (op = Eq || op = Le || op = Ge) -> Fold 1
      | _ when a = b && (op = Ne || op = Lt || op = Gt) -> Fold 0
      | _ when is_null a && is_null b -> (
          match op with Eq -> Fold 1 | Ne -> Fold 0 | _ -> Unchanged)
      | _ -> (
          match null_compare a b with
          | Unchanged -> null_compare b a
          | r -> r))
  | Binop (op, a, b) -> (
      match (const_of a, const_of b) with
      | Some x, Some y -> Fold (eval_binop op x y)
      | Some x, None -> (
          (* Normalize constants of commutative operators to the right so
             the algebraic rules below and GVN see one shape. *)
          match op with
          | Add | Mul | And | Or | Xor -> Rewrite (Binop (op, b, a))
          | Sub | Div | Rem | Shl | Shr -> (
              match (op, x) with
              | Sub, 0 -> Rewrite (Neg b)
              | (Div | Rem | Shl | Shr), 0 -> Fold 0
              | _ -> Unchanged))
      | None, Some y -> (
          match (op, y) with
          | (Add | Sub), 0 -> Alias a
          | Mul, 0 -> Fold 0
          | Mul, 1 -> Alias a
          | Mul, -1 -> Rewrite (Neg a)
          | Mul, n when is_power_of_two n ->
              Rewrite (Binop (Shl, a, mk_const (log2 n)))
          | Div, 1 -> Alias a
          | Div, n when is_power_of_two n ->
              (* Exact for floor division — the paper's Figure 3 strength
                 reduction (x / 2 → x >> 1, 32 → 1 cycles). *)
              Rewrite (Binop (Shr, a, mk_const (log2 n)))
          | Rem, 1 -> Fold 0
          | Rem, n when is_power_of_two n ->
              (* Floor modulo by 2^k is a mask. *)
              Rewrite (Binop (And, a, mk_const (n - 1)))
          | And, 0 -> Fold 0
          | Or, 0 -> Alias a
          | Xor, 0 -> Alias a
          | (Shl | Shr), 0 -> Alias a
          | _ -> Unchanged)
      | None, None ->
          if a = b then
            match op with
            | Sub | Xor | Rem -> Fold 0
            | And | Or -> Alias a
            | Div -> Unchanged (* x/x is 1 only for x <> 0 *)
            | Add | Mul | Shl | Shr -> Unchanged
          else Unchanged)

(** Estimated cycle cost of an action's result, given the original kind —
    used by the simulation tier to compute cycles saved. *)
let action_cycles original = function
  | Fold _ | Fold_null -> Costmodel.Cost.cycles_of_kind (Const 0)
  | Alias _ -> 0.0
  | Rewrite k -> Costmodel.Cost.cycles_of_kind k
  | Unchanged -> Costmodel.Cost.cycles_of_kind original

let action_size original = function
  | Fold _ | Fold_null -> Costmodel.Cost.size_of_kind (Const 0)
  | Alias _ -> 0
  | Rewrite k -> Costmodel.Cost.size_of_kind k
  | Unchanged -> Costmodel.Cost.size_of_kind original

(* ------------------------------------------------------------------ *)
(* The phase                                                           *)
(* ------------------------------------------------------------------ *)

(** Find or create a [Const n] usable anywhere: reused entry-block
    constants (the lowest id per value) are hoisted to the head of the
    entry block so they dominate every use site (including earlier
    instructions of the entry block). *)
let materialize_const g =
  let cache = Hashtbl.create 8 in
  Ir.Graph.iter_block_instrs g (Ir.Graph.entry g) (fun id ->
      match Ir.Graph.kind g id with
      | Const n -> (
          match Hashtbl.find_opt cache n with
          | Some v when v < id -> ()
          | _ -> Hashtbl.replace cache n id)
      | _ -> ());
  let hoisted = Hashtbl.create 8 in
  fun n ->
    match Hashtbl.find_opt cache n with
    | Some v ->
        if not (Hashtbl.mem hoisted v) then begin
          Hashtbl.add hoisted v ();
          Ir.Graph.detach g v;
          Ir.Graph.attach_front g v (Ir.Graph.entry g)
        end;
        v
    | None ->
        let v = Ir.Graph.prepend g (Ir.Graph.entry g) (Const n) in
        Hashtbl.add cache n v;
        Hashtbl.add hoisted v ();
        v

(** Rewrite [Not (Cmp op a b)] into the negated comparison. *)
let not_of_cmp g id =
  match Ir.Graph.kind g id with
  | Not a -> (
      match Ir.Graph.kind g a with
      | Cmp (op, x, y) ->
          Ir.Graph.set_kind g id (Cmp (negate_cmp op, x, y));
          true
      | _ -> false)
  | _ -> false

let apply_action g id = function
  | Unchanged -> false
  | Fold n ->
      Ir.Graph.set_kind g id (Const n);
      true
  | Fold_null ->
      Ir.Graph.set_kind g id Null;
      true
  | Alias v ->
      (* Alias is only ever returned for pure kinds; delete the redundant
         instruction right away (leaving it would re-fire forever). *)
      Ir.Graph.replace_uses g id ~by:v;
      if not (Ir.Graph.has_uses g id) then Ir.Graph.remove_instr g id;
      true
  | Rewrite k ->
      Ir.Graph.set_kind g id k;
      true

(* One visit of the sweep: the action step, then the [Not (Cmp)]
   rewrite. *)
let visit ~mk_const g id =
  let kind_of v = Ir.Graph.kind g v in
  apply_action g id (simplify ~self:id ~kind_of ~mk_const (Ir.Graph.kind g id))
  || not_of_cmp g id

let run ctx g =
  Phase.charge_graph ctx g;
  let mk_const = materialize_const g in
  let changed = ref false in
  let progress = ref true in
  while !progress do
    progress := false;
    Ir.Graph.iter_instrs g (fun id ->
        if Ir.Graph.instr_exists g id && visit ~mk_const g id then begin
          progress := true;
          changed := true
        end)
  done;
  !changed

(* An instruction's verdict depends on its own kind and its operands'
   kinds, so the instructions whose verdict can have changed are the
   ones the log names and their users: [put] each. *)
let affected g ~since put =
  Region.iter_instrs g ~since (fun id ->
      put id;
      Region.iter_instr_users g id put)

(* The sweeps of [run], over the affected instructions only.  A sweep
   visits ids in increasing order below the arena size it started at;
   an action at [id] queues what it affected into the same sweep when
   the whole-graph sweep would still reach it (a larger id below the
   bound), else into the next sweep.  Everything else would visit
   unchanged and fire nothing, so the actions and their order are the
   whole-graph run's. *)
let run_region ctx g (c : Ir.Analyses.clean) =
  let cur = ref (Ir.Bitset.create (Ir.Graph.n_instrs g)) and any = ref false in
  affected g ~since:c.Ir.Analyses.at (fun id ->
      any := true;
      Ir.Bitset.add !cur id);
  !any
  && begin
       let mk_const = materialize_const g in
       let changed = ref false in
       let progress = ref true in
       while !progress do
         progress := false;
         let limit = Ir.Graph.n_instrs g in
         let next = Ir.Bitset.create limit in
         for id = 0 to limit - 1 do
           if Ir.Bitset.mem !cur id && Ir.Graph.instr_exists g id then begin
             Phase.charge ctx 1;
             let mark = Ir.Graph.log_length g in
             if visit ~mk_const g id then begin
               progress := true;
               changed := true;
               affected g ~since:mark (fun x ->
                   Ir.Bitset.add (if x > id && x < limit then !cur else next) x)
             end
           end
         done;
         cur := next
       done;
       !changed
     end

(* Pure instruction rewrites: constant folding, strength reduction and
   const hoisting never touch terminators or edges, so all CFG analyses
   survive. *)
let phase =
  Phase.make ~preserves:Ir.Analyses.all_kinds ~region:run_region
    ~settles:true "canonicalize" run
