(** The function graph as a flat, int-indexed arena.

    Struct-of-arrays layout: instruction kinds, block membership and the
    intra-block order live in parallel arrays indexed by instruction id;
    block terminators, predecessor arrays and chain heads/tails in arrays
    indexed by block id.  The intra-block order is an intrusive doubly
    linked list over two int arrays ([seq_prev]/[seq_next]); a second
    such list ([eff_prev]/[eff_next]) threads each block's effect chain,
    the subsequence of its body that memory and compare passes act on
    ({!effect_kind}); use lists are intrusive singly linked chains over
    an int-cell pool with users packed into single ints; the allocation
    index is an immutable list
    of every live [New], newest first.  Dead slots carry sentinel
    markers and are never reused: allocation only grows the arenas, so
    ids — and therefore printed output — are reproducible.  Freed use
    cells go on a free-list and are reused.

    Undo is whole-graph: {!snapshot} copies the arenas, {!restore}
    adopts them back together with the generation, the mutation-log
    position and the analysis-cache slot of the snapshot.

    Every mutation bumps the generation and appends what it touched to
    an append-only mutation log ({!iter_log}): the pass manager's
    region runs visit only what was logged since a pass last ran clean.

    Invariants maintained by this module's mutation API (and checked by
    {!Verifier}):
    - [preds] of a block lists exactly the blocks whose terminator targets
      it, in a stable order;
    - every [Phi] has exactly one input per predecessor, aligned with the
      predecessor order;
    - use chains record every instruction and terminator referencing a
      value;
    - each block's effect chain is its body filtered to {!effect_kind},
      in body order;
    - the allocation index lists every live [New], by decreasing id;
    - while the reachability bit ([unswept]) is clear, every live block
      is reachable from the entry. *)

open Types

type user = U_instr of instr_id | U_term of block_id

(* Users packed into one int: instruction users are even, terminator
   users odd.  Keeps use-chain cells unboxed. *)
let enc_instr id = id lsl 1
let enc_term bid = (bid lsl 1) lor 1
let dec_user e = if e land 1 = 0 then U_instr (e lsr 1) else U_term (e lsr 1)

(* Sentinels for [ins_block]. *)
let detached = -1
let dead = -2

(* [eff_prev] of an instruction that is not on an effect chain ([-1]
   marks a chain head). *)
let off_chain = -2

let effect_kind = function
  | Load _ | Store _ | Load_global _ | Store_global _ | Call _ | New _ | Cmp _
    ->
      true
  | Const _ | Null | Param _ | Binop _ | Neg _ | Not _ | Phi _ -> false

type cache = ..
type cache += No_cache

let no_preds : int array = [||]

type t = {
  name : string;
  n_params : int;
  (* -------- instruction arena (parallel arrays, indexed by id) ------ *)
  mutable kinds : instr_kind array;  (** [Null] in dead slots *)
  mutable ins_block : int array;  (** block id, -1 detached, -2 dead *)
  mutable seq_prev : int array;  (** intra-block chain; -1 at ends *)
  mutable seq_next : int array;
  mutable eff_prev : int array;  (** effect chain; [off_chain] when off *)
  mutable eff_next : int array;
  mutable allocs : int list;  (** live [New]s, by decreasing id *)
  mutable use_head : int array;  (** first use cell, -1 when none *)
  mutable n_instrs : int;
  (* -------- use-chain cell pool ------------------------------------- *)
  mutable cell_user : int array;  (** packed user *)
  mutable cell_next : int array;  (** next cell or -1; free-list link *)
  mutable n_cells : int;
  mutable free_cell : int;
  (* -------- block arena --------------------------------------------- *)
  mutable blk_live : bool array;
  mutable blk_term : terminator array;
  mutable blk_preds : int array array;
      (** immutable arrays, replaced wholesale on change *)
  mutable phi_head : int array;
  mutable phi_tail : int array;
  mutable body_head : int array;
  mutable body_tail : int array;
  mutable eff_head : int array;
  mutable eff_tail : int array;
  mutable blk_size : int array;  (** phis + body, maintained *)
  mutable n_blocks : int;
  mutable entry : int;
  (* -------- counters / cache ---------------------------------------- *)
  mutable generation : int;
  mutable n_live : int;
  mutable n_live_blocks : int;
  mutable unswept : bool;
      (** an edge removal or a new block since the last completed
          {!remove_unreachable_blocks} may have left a block unreachable;
          clear means every live block is reachable *)
  mutable cache : cache;
  (* -------- mutation log -------------------------------------------- *)
  mutable log : int array;
      (** packed entries: [id lsl 2 lor tag]; append-only — entries
          below [log_len] are never rewritten, so a snapshot shares the
          array and only records its length *)
  mutable log_len : int;
  mutable logging : bool;
      (** off until the first clean stamp: entries before it are never
          read *)
}

let name g = g.name
let n_params g = g.n_params
let entry g = g.entry
let generation g = g.generation
let n_instrs g = g.n_instrs
let n_blocks g = g.n_blocks
let cache g = g.cache
let set_cache g c = g.cache <- c

(* The arena size that holds [n] slots: what doubling from [start]
   reaches. *)
let rec arena n start = if start >= n then start else arena n (2 * start)

(* Arenas start at 16 instruction and 8 block slots and double when
   full.  A builder that knows how many it will add gets the size that
   doubling reaches for them: it never regrows, and whatever is added
   after it finds the headroom it would have found one append at a
   time. *)
let create ?(name = "fn") ?(instrs = 0) ?(blocks = 0) ~n_params () =
  let ni = arena instrs 16 and nb = arena blocks 8 in
  {
    name;
    n_params;
    kinds = Array.make ni Null;
    ins_block = Array.make ni dead;
    seq_prev = Array.make ni (-1);
    seq_next = Array.make ni (-1);
    eff_prev = Array.make ni off_chain;
    eff_next = Array.make ni (-1);
    allocs = [];
    use_head = Array.make ni (-1);
    n_instrs = 0;
    cell_user = Array.make (2 * ni) 0;
    cell_next = Array.make (2 * ni) (-1);
    n_cells = 0;
    free_cell = -1;
    blk_live = Array.make nb false;
    blk_term = Array.make nb Unreachable;
    blk_preds = Array.make nb no_preds;
    phi_head = Array.make nb (-1);
    phi_tail = Array.make nb (-1);
    body_head = Array.make nb (-1);
    body_tail = Array.make nb (-1);
    eff_head = Array.make nb (-1);
    eff_tail = Array.make nb (-1);
    blk_size = Array.make nb 0;
    n_blocks = 0;
    entry = -1;
    generation = 0;
    n_live = 0;
    n_live_blocks = 0;
    unswept = false;
    cache = No_cache;
    log = Array.make 16 0;
    log_len = 0;
    logging = false;
  }

(* ------------------------------------------------------------------ *)
(* Arena growth                                                        *)
(* ------------------------------------------------------------------ *)

(* A plain copy loop: [Array.blit] into a major-heap array goes through
   the write barrier element by element, which an [int array] does not
   need. *)
let grow_int_array (a : int array) n fill =
  let a' = Array.make n fill in
  for i = 0 to Array.length a - 1 do
    Array.unsafe_set a' i (Array.unsafe_get a i)
  done;
  a'

let grow_instrs g =
  let cap = Array.length g.kinds in
  if g.n_instrs = cap then begin
    let n = 2 * cap in
    let kinds = Array.make n Null in
    Array.blit g.kinds 0 kinds 0 cap;
    g.kinds <- kinds;
    g.ins_block <- grow_int_array g.ins_block n dead;
    g.seq_prev <- grow_int_array g.seq_prev n (-1);
    g.seq_next <- grow_int_array g.seq_next n (-1);
    g.eff_prev <- grow_int_array g.eff_prev n off_chain;
    g.eff_next <- grow_int_array g.eff_next n (-1);
    g.use_head <- grow_int_array g.use_head n (-1)
  end

let grow_blocks g =
  let cap = Array.length g.blk_term in
  if g.n_blocks = cap then begin
    let n = 2 * cap in
    let live = Array.make n false in
    Array.blit g.blk_live 0 live 0 cap;
    g.blk_live <- live;
    let terms = Array.make n Unreachable in
    Array.blit g.blk_term 0 terms 0 cap;
    g.blk_term <- terms;
    let preds = Array.make n no_preds in
    Array.blit g.blk_preds 0 preds 0 cap;
    g.blk_preds <- preds;
    g.phi_head <- grow_int_array g.phi_head n (-1);
    g.phi_tail <- grow_int_array g.phi_tail n (-1);
    g.body_head <- grow_int_array g.body_head n (-1);
    g.body_tail <- grow_int_array g.body_tail n (-1);
    g.eff_head <- grow_int_array g.eff_head n (-1);
    g.eff_tail <- grow_int_array g.eff_tail n (-1);
    g.blk_size <- grow_int_array g.blk_size n 0
  end

let grow_cells g =
  let cap = Array.length g.cell_user in
  if g.n_cells = cap then begin
    let n = 2 * cap in
    g.cell_user <- grow_int_array g.cell_user n 0;
    g.cell_next <- grow_int_array g.cell_next n (-1)
  end

(* ------------------------------------------------------------------ *)
(* Generation + use cells                                              *)
(* ------------------------------------------------------------------ *)

let touch g = g.generation <- g.generation + 1

(* ------------------------------------------------------------------ *)
(* Mutation log                                                        *)
(* ------------------------------------------------------------------ *)

type logged = Instr | Lost_use | Cfg | Effect_removed

let tag_instr = 0
let tag_lost_use = 1
let tag_cfg = 2
let tag_effect_removed = 3

let log_push g tag id =
  if g.logging then begin
    if g.log_len = Array.length g.log then
      g.log <- grow_int_array g.log (2 * g.log_len) 0;
    g.log.(g.log_len) <- (id lsl 2) lor tag;
    g.log_len <- g.log_len + 1
  end

let log_instr g id = log_push g tag_instr id
let log_cfg g bid = log_push g tag_cfg bid
let log_lost_use g v = if v >= 0 then log_push g tag_lost_use v
let log_length g = g.log_len
let start_log g = g.logging <- true

(* A fresh array: a snapshot that shares the old one keeps its entries. *)
let reset_log g =
  g.log <- Array.make 16 0;
  g.log_len <- 0

(* An instruction left block [bid]: only the loss of a side effect is
   worth a log entry (it may unblock a read another pass could not
   eliminate); losing a pure instruction changes nothing for anyone
   but the instruction's operands, whose lost uses are logged. *)
let log_effect_removed g bid kind =
  if has_side_effect kind then log_push g tag_effect_removed bid

let logged_of e =
  match e land 3 with
  | 0 -> Instr
  | 1 -> Lost_use
  | 2 -> Cfg
  | _ -> Effect_removed

let iter_log g ~since f =
  for i = max 0 since to g.log_len - 1 do
    let e = g.log.(i) in
    f (logged_of e) (e asr 2)
  done

let tag_of = function
  | Instr -> tag_instr
  | Lost_use -> tag_lost_use
  | Cfg -> tag_cfg
  | Effect_removed -> tag_effect_removed

(* The log readers below are plain loops over the packed entries: no
   closure call, no [logged] decoded, per entry they pass over.  Each
   re-reads [g.log] per entry, as [iter_log] does, and reads up to the
   length at its start. *)

let iter_log_ids g what ~since seen f =
  let tag = tag_of what and stop = g.log_len in
  let on_blocks = tag = tag_cfg || tag = tag_effect_removed in
  for i = max 0 since to stop - 1 do
    let e = g.log.(i) in
    if e land 3 = tag then begin
      let id = e asr 2 in
      let live =
        if on_blocks then id < g.n_blocks && g.blk_live.(id)
        else id < g.n_instrs && g.ins_block.(id) <> dead
      in
      if live && not (Stampset.mem seen id) then begin
        Stampset.add seen id;
        f id
      end
    end
  done

let logged_since g what ~since =
  let tag = tag_of what and stop = g.log_len in
  let i = ref (max 0 since) in
  while !i < stop && g.log.(!i) land 3 <> tag do
    incr i
  done;
  !i < stop

let changed_beyond_deletions g ~effects ~since =
  let stop = g.log_len in
  let i = ref (max 0 since) and found = ref false in
  while (not !found) && !i < stop do
    let e = g.log.(!i) in
    let tag = e land 3 in
    (found :=
       if tag = tag_instr then
         let id = e asr 2 in
         id < g.n_instrs && g.ins_block.(id) <> dead
       else tag = tag_cfg || (effects && tag = tag_effect_removed));
    incr i
  done;
  !found

(* Use-cell alloc/free: unlike instruction and block slots, freed cells
   are reused (cell indices are never observable). *)
let alloc_cell g user next =
  if g.free_cell >= 0 then begin
    let c = g.free_cell in
    g.free_cell <- g.cell_next.(c);
    g.cell_user.(c) <- user;
    g.cell_next.(c) <- next;
    c
  end
  else begin
    grow_cells g;
    let c = g.n_cells in
    g.cell_user.(c) <- user;
    g.cell_next.(c) <- next;
    g.n_cells <- c + 1;
    c
  end

let free_chain_cells g v =
  let c = ref g.use_head.(v) in
  while !c >= 0 do
    let next = g.cell_next.(!c) in
    g.cell_next.(!c) <- g.free_cell;
    g.free_cell <- !c;
    c := next
  done;
  g.use_head.(v) <- -1

(* ------------------------------------------------------------------ *)
(* Arena access                                                        *)
(* ------------------------------------------------------------------ *)

let instr_exists g id =
  id >= 0 && id < g.n_instrs && g.ins_block.(id) <> dead

let block_exists g id = id >= 0 && id < g.n_blocks && g.blk_live.(id)

let check_instr g id =
  if id < 0 || id >= g.n_instrs || g.ins_block.(id) = dead then
    invalid_arg (Printf.sprintf "Graph.instr: dead instruction %d" id)

let check_block g id =
  if id < 0 || id >= g.n_blocks || not g.blk_live.(id) then
    invalid_arg (Printf.sprintf "Graph.block: dead block %d" id)

let kind g id =
  check_instr g id;
  g.kinds.(id)

let block_of g id =
  check_instr g id;
  g.ins_block.(id)

let uses g v =
  if v < 0 || v >= g.n_instrs then invalid_arg "Graph.uses";
  let acc = ref [] in
  let c = ref g.use_head.(v) in
  while !c >= 0 do
    acc := dec_user g.cell_user.(!c) :: !acc;
    c := g.cell_next.(!c)
  done;
  List.rev !acc

(* Zero-allocation iteration: hands out the packed encoding (no [user]
   variant per visit); decode with [user_is_term] / [user_target]. *)
let iter_uses_enc g v f =
  if v >= 0 && v < g.n_instrs then begin
    let c = ref g.use_head.(v) in
    while !c >= 0 do
      f g.cell_user.(!c);
      c := g.cell_next.(!c)
    done
  end

(* Exposed for tests: rewrites one chain with no consistency kept. *)
let set_uses_unchecked g v users =
  free_chain_cells g v;
  List.iter
    (fun u ->
      let e = match u with U_instr id -> enc_instr id | U_term b -> enc_term b in
      g.use_head.(v) <- alloc_cell g e g.use_head.(v))
    (List.rev users)

let user_is_term e = e land 1 = 1
let user_target e = e asr 1

let has_uses g v = v >= 0 && v < g.n_instrs && g.use_head.(v) >= 0

(* ------------------------------------------------------------------ *)
(* Use-chain maintenance                                               *)
(* ------------------------------------------------------------------ *)

let add_use_enc g v e =
  if v >= 0 then g.use_head.(v) <- alloc_cell g e g.use_head.(v)

(* Remove the first (most recent) matching cell, mirroring the old
   list-based first-occurrence removal. *)
let remove_use_enc g v e =
  if v >= 0 then begin
    let c = ref g.use_head.(v) and prev = ref (-1) and go = ref true in
    while !go && !c >= 0 do
      if g.cell_user.(!c) = e then begin
        (if !prev < 0 then g.use_head.(v) <- g.cell_next.(!c)
         else g.cell_next.(!prev) <- g.cell_next.(!c));
        g.cell_next.(!c) <- g.free_cell;
        g.free_cell <- !c;
        go := false
      end
      else begin
        prev := !c;
        c := g.cell_next.(!c)
      end
    done
  end

(* [op g v e] (add or remove [e]'s cell) for every input [v] of [kind],
   in input order.  Written out, not through [iter_inputs] with a fresh
   closure: it runs on every new instruction and every rewrite. *)
let each_input_use op g e = function
  | Const _ | Null | Param _ | Load_global _ -> ()
  | Binop (_, a, b) | Cmp (_, a, b) | Store (a, _, b) ->
      op g a e;
      op g b e
  | Neg a | Not a | Load (a, _) | Store_global (_, a) -> op g a e
  | Phi vs | New (_, vs) | Call (_, vs) ->
      for i = 0 to Array.length vs - 1 do
        op g vs.(i) e
      done

let iter_term_inputs f = function
  | Jump _ | Unreachable | Return None -> ()
  | Return (Some v) -> f v
  | Branch { cond; _ } -> f cond

let mem_value (v : value) vs =
  let rec go i = i < Array.length vs && (vs.(i) = v || go (i + 1)) in
  go 0

let reads kind (v : value) =
  match kind with
  | Const _ | Null | Param _ | Load_global _ -> false
  | Binop (_, a, b) | Cmp (_, a, b) | Store (a, _, b) -> a = v || b = v
  | Neg a | Not a | Load (a, _) | Store_global (_, a) -> a = v
  | Phi vs | New (_, vs) | Call (_, vs) -> mem_value v vs

let term_reads term (v : value) =
  match term with
  | Jump _ | Unreachable | Return None -> false
  | Return (Some a) -> a = v
  | Branch { cond; _ } -> cond = v

(* A rewrite costs a value a use only when the new form stops reading
   it altogether.  (Written out, not through [iter_inputs]: it runs on
   every rewrite.) *)
let log_lost_uses g old_kind new_kind =
  if g.logging then
    let lost v = if not (reads new_kind v) then log_lost_use g v in
    match old_kind with
    | Const _ | Null | Param _ | Load_global _ -> ()
    | Binop (_, a, b) | Cmp (_, a, b) | Store (a, _, b) ->
        lost a;
        lost b
    | Neg a | Not a | Load (a, _) | Store_global (_, a) -> lost a
    | Phi vs | New (_, vs) | Call (_, vs) ->
        for i = 0 to Array.length vs - 1 do
          lost vs.(i)
        done

let log_lost_term_uses g old_term new_term =
  if g.logging then
    iter_term_inputs
      (fun v -> if not (term_reads new_term v) then log_lost_use g v)
      old_term

(* ------------------------------------------------------------------ *)
(* Effect chains                                                       *)
(* ------------------------------------------------------------------ *)

let on_effect_chain g id = g.eff_prev.(id) <> off_chain

(* Link [id] into [bid]'s effect chain after member [p] (-1: at the
   head). *)
let effect_link_after g bid id p =
  let n = if p >= 0 then g.eff_next.(p) else g.eff_head.(bid) in
  g.eff_prev.(id) <- p;
  g.eff_next.(id) <- n;
  if p >= 0 then g.eff_next.(p) <- id else g.eff_head.(bid) <- id;
  if n >= 0 then g.eff_prev.(n) <- id else g.eff_tail.(bid) <- id

let effect_unlink g bid id =
  if on_effect_chain g id then begin
    let p = g.eff_prev.(id) and n = g.eff_next.(id) in
    if p >= 0 then g.eff_next.(p) <- n else g.eff_head.(bid) <- n;
    if n >= 0 then g.eff_prev.(n) <- p else g.eff_tail.(bid) <- p;
    g.eff_prev.(id) <- off_chain;
    g.eff_next.(id) <- -1
  end

(* A body instruction of [bid] became a member: link it after the
   nearest member before it in the body.  Walking back to the head of
   the phi list instead means it sits in a phi slot, which is never on
   the chain.  Only a rewrite into a member kind pays for the walk. *)
let effect_link_in_place g bid id =
  let rec back i =
    let p = g.seq_prev.(i) in
    if p >= 0 then
      if on_effect_chain g p then effect_link_after g bid id p else back p
    else if g.phi_head.(bid) <> i then effect_link_after g bid id (-1)
  in
  back id

(* ------------------------------------------------------------------ *)
(* Allocation index                                                    *)
(* ------------------------------------------------------------------ *)

let is_new = function New _ -> true | _ -> false

(* Insert by decreasing id: a new instruction has the largest id and
   goes to the head. *)
let alloc_add g id =
  let rec ins = function
    | a :: rest when a > id -> a :: ins rest
    | l -> id :: l
  in
  g.allocs <- ins g.allocs

let alloc_remove g id = g.allocs <- List.filter (fun a -> a <> id) g.allocs
let allocations g = g.allocs

(* ------------------------------------------------------------------ *)
(* Intra-block chains                                                  *)
(* ------------------------------------------------------------------ *)

let chain_append g bid id ~phi =
  let head = if phi then g.phi_head else g.body_head in
  let tail = if phi then g.phi_tail else g.body_tail in
  let t = tail.(bid) in
  g.seq_prev.(id) <- t;
  g.seq_next.(id) <- -1;
  if t >= 0 then g.seq_next.(t) <- id else head.(bid) <- id;
  tail.(bid) <- id;
  g.blk_size.(bid) <- g.blk_size.(bid) + 1;
  if (not phi) && effect_kind g.kinds.(id) then
    effect_link_after g bid id g.eff_tail.(bid)

let chain_prepend g bid id ~phi =
  let head = if phi then g.phi_head else g.body_head in
  let tail = if phi then g.phi_tail else g.body_tail in
  let h = head.(bid) in
  g.seq_prev.(id) <- -1;
  g.seq_next.(id) <- h;
  if h >= 0 then g.seq_prev.(h) <- id else tail.(bid) <- id;
  head.(bid) <- id;
  g.blk_size.(bid) <- g.blk_size.(bid) + 1;
  if (not phi) && effect_kind g.kinds.(id) then effect_link_after g bid id (-1)

(* Which chain [id] is on is decided positionally (is it a chain's
   head/tail?), not from its kind: a dead phi may have been rewritten to
   a non-phi kind while still sitting in the phi chain (DCE does this to
   break input cycles before deletion). *)
let chain_remove g bid id =
  let p = g.seq_prev.(id) and n = g.seq_next.(id) in
  (if p >= 0 then g.seq_next.(p) <- n
   else if g.phi_head.(bid) = id then g.phi_head.(bid) <- n
   else g.body_head.(bid) <- n);
  (if n >= 0 then g.seq_prev.(n) <- p
   else if g.phi_tail.(bid) = id then g.phi_tail.(bid) <- p
   else g.body_tail.(bid) <- p);
  g.seq_prev.(id) <- -1;
  g.seq_next.(id) <- -1;
  g.blk_size.(bid) <- g.blk_size.(bid) - 1;
  effect_unlink g bid id

let kind_is_phi = function Phi _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Creation                                                            *)
(* ------------------------------------------------------------------ *)

let add_block g =
  grow_blocks g;
  let id = g.n_blocks in
  g.n_blocks <- id + 1;
  g.blk_live.(id) <- true;
  g.blk_term.(id) <- Unreachable;
  g.blk_preds.(id) <- no_preds;
  g.phi_head.(id) <- -1;
  g.phi_tail.(id) <- -1;
  g.body_head.(id) <- -1;
  g.body_tail.(id) <- -1;
  g.eff_head.(id) <- -1;
  g.eff_tail.(id) <- -1;
  g.blk_size.(id) <- 0;
  g.n_live_blocks <- g.n_live_blocks + 1;
  g.unswept <- true;
  if g.entry = -1 then g.entry <- id;
  touch g;
  log_cfg g id;
  id

let set_entry g bid =
  g.entry <- bid;
  touch g;
  log_cfg g bid

(* Allocate the instruction without attaching it to a block.  Its use
   chain is not reset: a slot is fresh (arenas are filled with -1 and
   slots are never reused), so a use recorded on the id before it was
   allocated — a terminator or a loop phi reading a value defined
   further down, as the parser builds them — is kept. *)
let alloc_instr g kind =
  grow_instrs g;
  let id = g.n_instrs in
  g.n_instrs <- id + 1;
  g.kinds.(id) <- kind;
  g.ins_block.(id) <- detached;
  g.seq_prev.(id) <- -1;
  g.seq_next.(id) <- -1;
  g.eff_prev.(id) <- off_chain;
  g.eff_next.(id) <- -1;
  g.n_live <- g.n_live + 1;
  if is_new kind then alloc_add g id;
  touch g;
  log_instr g id;
  each_input_use add_use_enc g (enc_instr id) kind;
  id

let append g bid kind =
  let id = alloc_instr g kind in
  check_block g bid;
  g.ins_block.(id) <- bid;
  chain_append g bid id ~phi:(kind_is_phi kind);
  id

let prepend g bid kind =
  let id = alloc_instr g kind in
  check_block g bid;
  g.ins_block.(id) <- bid;
  chain_prepend g bid id ~phi:(kind_is_phi kind);
  id

(* ------------------------------------------------------------------ *)
(* Mutation                                                            *)
(* ------------------------------------------------------------------ *)

(* Replace [id]'s kind, use chains included.  The caller logs the uses
   the rewrite loses: [set_kind] finds them, the edge edits below know
   them. *)
let rewrite g id new_kind =
  touch g;
  log_instr g id;
  let old_kind = g.kinds.(id) in
  each_input_use remove_use_enc g (enc_instr id) old_kind;
  g.kinds.(id) <- new_kind;
  each_input_use add_use_enc g (enc_instr id) new_kind;
  let bid = g.ins_block.(id) in
  if bid >= 0 && effect_kind old_kind <> effect_kind new_kind then
    if effect_kind new_kind then effect_link_in_place g bid id
    else effect_unlink g bid id;
  if is_new old_kind <> is_new new_kind then
    if is_new new_kind then alloc_add g id else alloc_remove g id

let set_kind g id new_kind =
  check_instr g id;
  log_lost_uses g g.kinds.(id) new_kind;
  rewrite g id new_kind

let succs_of_term = function
  | Jump b -> [ b ]
  | Branch { if_true; if_false; _ } ->
      if if_true = if_false then [ if_true ] else [ if_true; if_false ]
  | Return _ | Unreachable -> []

let term g bid =
  check_block g bid;
  g.blk_term.(bid)

let succs g bid = succs_of_term (term g bid)

let preds g bid =
  check_block g bid;
  Array.to_list g.blk_preds.(bid)

let sole_pred g bid =
  check_block g bid;
  let ps = g.blk_preds.(bid) in
  if Array.length ps = 1 then Array.unsafe_get ps 0 else -1

let pred_count g bid =
  check_block g bid;
  Array.length g.blk_preds.(bid)

let pred_nth g bid i =
  check_block g bid;
  g.blk_preds.(bid).(i)

let iter_preds g bid f =
  check_block g bid;
  Array.iter f g.blk_preds.(bid)

let pred_index g bid pred =
  check_block g bid;
  let ps = g.blk_preds.(bid) in
  let n = Array.length ps in
  let rec find i =
    if i = n then
      invalid_arg
        (Printf.sprintf "Graph.pred_index: b%d is not a predecessor of b%d"
           pred bid)
    else if ps.(i) = pred then i
    else find (i + 1)
  in
  find 0

let iter_phis g bid f =
  check_block g bid;
  let i = ref g.phi_head.(bid) in
  while !i >= 0 do
    let next = g.seq_next.(!i) in
    f !i;
    i := next
  done

let iter_body g bid f =
  check_block g bid;
  let i = ref g.body_head.(bid) in
  while !i >= 0 do
    let next = g.seq_next.(!i) in
    f !i;
    i := next
  done

let iter_block_instrs g bid f =
  iter_phis g bid f;
  iter_body g bid f

let iter_effects g bid f =
  check_block g bid;
  let i = ref g.eff_head.(bid) in
  while !i >= 0 do
    let next = g.eff_next.(!i) in
    f !i;
    i := next
  done

let has_phis g bid =
  check_block g bid;
  g.phi_head.(bid) >= 0

let phis g bid =
  let acc = ref [] in
  iter_phis g bid (fun id -> acc := id :: !acc);
  List.rev !acc

let body g bid =
  let acc = ref [] in
  iter_body g bid (fun id -> acc := id :: !acc);
  List.rev !acc

let block_instrs g bid =
  let acc = ref [] in
  iter_block_instrs g bid (fun id -> acc := id :: !acc);
  List.rev !acc

let block_size g bid =
  check_block g bid;
  g.blk_size.(bid)

(* Drop predecessor [pred] from [bid], removing the matching phi input. *)
let remove_pred g bid pred =
  touch g;
  log_cfg g bid;
  let idx = pred_index g bid pred in
  let ps = g.blk_preds.(bid) in
  let n = Array.length ps in
  g.blk_preds.(bid) <-
    Array.init (n - 1) (fun i -> if i < idx then ps.(i) else ps.(i + 1));
  iter_phis g bid (fun phi_id ->
      match kind g phi_id with
      | Phi inputs ->
          let inputs' =
            Array.init
              (Array.length inputs - 1)
              (fun i -> if i < idx then inputs.(i) else inputs.(i + 1))
          in
          if not (mem_value inputs.(idx) inputs') then
            log_lost_use g inputs.(idx);
          rewrite g phi_id (Phi inputs')
      | _ -> assert false)

(* Add [pred] as a new predecessor of [bid]; each phi gets [filler] as its
   input for the new edge. *)
let add_pred g bid pred ~filler =
  touch g;
  log_cfg g bid;
  let ps = g.blk_preds.(bid) in
  let n = Array.length ps in
  g.blk_preds.(bid) <-
    Array.init (n + 1) (fun i -> if i < n then ps.(i) else pred);
  let i = ref 0 in
  iter_phis g bid (fun phi_id ->
      (match kind g phi_id with
      | Phi inputs ->
          let f = filler !i phi_id in
          rewrite g phi_id (Phi (Array.append inputs [| f |]))
      | _ -> assert false);
      incr i)

let set_term g bid term =
  (* Canonicalize a branch with identical targets into a jump so successor
     lists never contain duplicates. *)
  let term =
    match term with
    | Branch { if_true; if_false; _ } when if_true = if_false -> Jump if_true
    | t -> t
  in
  touch g;
  check_block g bid;
  log_cfg g bid;
  let old_term = g.blk_term.(bid) in
  let old_succs = succs_of_term old_term in
  let new_succs = succs_of_term term in
  log_lost_term_uses g old_term term;
  iter_term_inputs (fun v -> remove_use_enc g v (enc_term bid)) old_term;
  List.iter
    (fun s ->
      if not (List.mem s new_succs) then begin
        g.unswept <- true;
        remove_pred g s bid
      end)
    old_succs;
  g.blk_term.(bid) <- term;
  iter_term_inputs (fun v -> add_use_enc g v (enc_term bid)) term;
  List.iter
    (fun s ->
      if not (List.mem s old_succs) then
        add_pred g s bid ~filler:(fun _ _ -> invalid_value))
    new_succs

let patch_term g bid term =
  touch g;
  check_block g bid;
  log_cfg g bid;
  let old_term = g.blk_term.(bid) in
  assert (succs_of_term old_term = succs_of_term term);
  log_lost_term_uses g old_term term;
  iter_term_inputs (fun v -> remove_use_enc g v (enc_term bid)) old_term;
  g.blk_term.(bid) <- term;
  iter_term_inputs (fun v -> add_use_enc g v (enc_term bid)) term

let transfer_term g ~src ~dst =
  touch g;
  check_block g src;
  check_block g dst;
  (match g.blk_term.(dst) with
  | Unreachable -> ()
  | _ -> invalid_arg "Graph.transfer_term: destination has a terminator");
  log_cfg g src;
  log_cfg g dst;
  g.unswept <- true;
  let t = g.blk_term.(src) in
  iter_term_inputs (fun v -> remove_use_enc g v (enc_term src)) t;
  g.blk_term.(src) <- Unreachable;
  g.blk_term.(dst) <- t;
  iter_term_inputs (fun v -> add_use_enc g v (enc_term dst)) t;
  (* Rename the edge source in each successor's predecessor list; phi
     inputs keep their positions. *)
  List.iter
    (fun s ->
      log_cfg g s;
      g.blk_preds.(s) <-
        Array.map (fun p -> if p = src then dst else p) g.blk_preds.(s))
    (succs_of_term t)

let redirect_edge g ~from_block ~old_target ~new_target =
  if old_target <> new_target then begin
    touch g;
    check_block g from_block;
    log_cfg g from_block;
    (match g.blk_term.(from_block) with
    | Jump t when t = old_target -> g.blk_term.(from_block) <- Jump new_target
    | Branch br when br.if_true = old_target && br.if_false = old_target ->
        g.blk_term.(from_block) <-
          Branch { br with if_true = new_target; if_false = new_target }
    | Branch br when br.if_true = old_target ->
        g.blk_term.(from_block) <- Branch { br with if_true = new_target }
    | Branch br when br.if_false = old_target ->
        g.blk_term.(from_block) <- Branch { br with if_false = new_target }
    | _ ->
        invalid_arg
          (Printf.sprintf "Graph.redirect_edge: b%d does not target b%d"
             from_block old_target));
    g.unswept <- true;
    remove_pred g old_target from_block;
    add_pred g new_target from_block ~filler:(fun _ _ -> invalid_value)
  end

let replace_uses g v ~by =
  (* Materialize the user chain first: set_kind rewrites it underneath. *)
  let users = ref [] in
  let c = ref (if v >= 0 && v < g.n_instrs then g.use_head.(v) else -1) in
  while !c >= 0 do
    users := g.cell_user.(!c) :: !users;
    c := g.cell_next.(!c)
  done;
  List.iter
    (fun e ->
      if e land 1 = 0 then begin
        let id = e lsr 1 in
        set_kind g id
          (map_inputs (fun x -> if x = v then by else x) (kind g id))
      end
      else
        let bid = e lsr 1 in
        match g.blk_term.(bid) with
        | Return (Some x) when x = v -> patch_term g bid (Return (Some by))
        | Branch br when br.cond = v ->
            patch_term g bid (Branch { br with cond = by })
        | _ -> ())
    (List.rev !users)

let remove_instr g id =
  check_instr g id;
  if g.use_head.(id) >= 0 then
    invalid_arg (Printf.sprintf "Graph.remove_instr: %d still has uses" id);
  touch g;
  log_instr g id;
  iter_inputs
    (fun v ->
      log_lost_use g v;
      remove_use_enc g v (enc_instr id))
    g.kinds.(id);
  let bid = g.ins_block.(id) in
  if bid >= 0 then begin
    chain_remove g bid id;
    log_effect_removed g bid g.kinds.(id)
  end;
  if is_new g.kinds.(id) then alloc_remove g id;
  g.kinds.(id) <- Null;
  g.ins_block.(id) <- dead;
  g.use_head.(id) <- -1;
  g.seq_prev.(id) <- -1;
  g.seq_next.(id) <- -1;
  g.n_live <- g.n_live - 1

let detach g id =
  check_instr g id;
  let bid = g.ins_block.(id) in
  if bid >= 0 then begin
    touch g;
    log_instr g id;
    log_effect_removed g bid g.kinds.(id);
    chain_remove g bid id;
    g.ins_block.(id) <- detached
  end

let attach g id bid =
  check_instr g id;
  assert (g.ins_block.(id) = detached);
  touch g;
  check_block g bid;
  log_instr g id;
  g.ins_block.(id) <- bid;
  chain_append g bid id ~phi:(kind_is_phi g.kinds.(id))

let attach_front g id bid =
  check_instr g id;
  assert (g.ins_block.(id) = detached);
  touch g;
  check_block g bid;
  log_instr g id;
  g.ins_block.(id) <- bid;
  chain_prepend g bid id ~phi:(kind_is_phi g.kinds.(id))

(* Delete one instruction slot without touching its block chain (the
   caller resets the whole chain).  Shared by remove_block and
   remove_unreachable_blocks. *)
let kill_slot g id =
  iter_inputs
    (fun v ->
      log_lost_use g v;
      remove_use_enc g v (enc_instr id))
    g.kinds.(id);
  free_chain_cells g id;
  if is_new g.kinds.(id) then alloc_remove g id;
  g.kinds.(id) <- Null;
  g.ins_block.(id) <- dead;
  g.seq_prev.(id) <- -1;
  g.seq_next.(id) <- -1;
  g.eff_prev.(id) <- off_chain;
  g.eff_next.(id) <- -1;
  g.n_live <- g.n_live - 1

(* Mark a block slot dead; the slot is never reused. *)
let kill_block_slot g bid =
  g.blk_live.(bid) <- false;
  g.blk_term.(bid) <- Unreachable;
  g.blk_preds.(bid) <- no_preds;
  g.phi_head.(bid) <- -1;
  g.phi_tail.(bid) <- -1;
  g.body_head.(bid) <- -1;
  g.body_tail.(bid) <- -1;
  g.eff_head.(bid) <- -1;
  g.eff_tail.(bid) <- -1;
  g.blk_size.(bid) <- 0;
  g.n_live_blocks <- g.n_live_blocks - 1

let remove_block g bid =
  check_block g bid;
  set_term g bid Unreachable;
  touch g;
  log_cfg g bid;
  (* Collect members first: kill_slot must not race the chain walk. *)
  let members = block_instrs g bid in
  List.iter (fun id -> kill_slot g id) members;
  (* Predecessor edges must have been redirected already. *)
  assert (Array.length g.blk_preds.(bid) = 0);
  kill_block_slot g bid

(* ------------------------------------------------------------------ *)
(* Iteration                                                           *)
(* ------------------------------------------------------------------ *)

let iter_blocks g f =
  for id = 0 to g.n_blocks - 1 do
    if g.blk_live.(id) then f id
  done

let fold_blocks g f acc =
  let acc = ref acc in
  iter_blocks g (fun b -> acc := f !acc b);
  !acc

let iter_instrs g f =
  for id = 0 to g.n_instrs - 1 do
    if g.ins_block.(id) <> dead then f id
  done

let fold_instrs g f acc =
  let acc = ref acc in
  iter_instrs g (fun i -> acc := f !acc i);
  !acc

(* Maintained incrementally by the mutation API (alloc / remove) so the
   hot per-duplication work charge in the driver is O(1) instead of an
   arena scan. *)
let live_instr_count g = g.n_live
let live_block_count g = g.n_live_blocks

(* ------------------------------------------------------------------ *)
(* Orders                                                              *)
(* ------------------------------------------------------------------ *)

let rpo g =
  let visited = Bytes.make (max 1 g.n_blocks) '\000' in
  let order = ref [] in
  let rec dfs bid =
    if Bytes.unsafe_get visited bid = '\000' then begin
      Bytes.unsafe_set visited bid '\001';
      (match g.blk_term.(bid) with
      | Jump b -> dfs b
      | Branch { if_true; if_false; _ } ->
          dfs if_true;
          if if_false <> if_true then dfs if_false
      | Return _ | Unreachable -> ());
      order := bid :: !order
    end
  in
  if g.entry >= 0 then dfs g.entry;
  !order

let reachable g =
  let set = Array.make (max 1 g.n_blocks) false in
  List.iter (fun b -> set.(b) <- true) (rpo g);
  set

let may_have_unreachable g = g.unswept

(* While the bit is clear every block is reachable: no walk. *)
let remove_unreachable_blocks g =
  g.unswept
  &&
  let reach = reachable g in
  let dead_blocks =
    fold_blocks g (fun acc b -> if reach.(b) then acc else b :: acc) []
  in
  if dead_blocks = [] then begin
    g.unswept <- false;
    false
  end
  else begin
    (* Drop all edges out of dead blocks (this also removes phi inputs
       that reachable merge blocks held for them). *)
    List.iter (fun bid -> set_term g bid Unreachable) dead_blocks;
    (* Clear def-use edges among dead instructions, then delete them. *)
    List.iter
      (fun bid ->
        List.iter (fun id -> set_kind g id (Const 0)) (block_instrs g bid))
      dead_blocks;
    List.iter
      (fun bid ->
        touch g;
        log_cfg g bid;
        let members = block_instrs g bid in
        List.iter (fun id -> kill_slot g id) members;
        kill_block_slot g bid)
      dead_blocks;
    g.unswept <- false;
    true
  end

(* An exception leaves the bit set: a half-done edit may strand. *)
let keep_reachability g f =
  let before = g.unswept in
  let r = f () in
  if not before then g.unswept <- false;
  r

(* ------------------------------------------------------------------ *)
(* Copy / snapshot / restore                                           *)
(* ------------------------------------------------------------------ *)

(* Every array copied up to its high-water mark (at least one slot, so
   doubling growth still works); scalars, the generation and the cache
   slot carried over. *)
let clone g =
  let instrs a = Array.sub a 0 (max 1 g.n_instrs) in
  let cells a = Array.sub a 0 (max 1 g.n_cells) in
  let blocks a = Array.sub a 0 (max 1 g.n_blocks) in
  {
    g with
    kinds = instrs g.kinds;
    ins_block = instrs g.ins_block;
    seq_prev = instrs g.seq_prev;
    seq_next = instrs g.seq_next;
    eff_prev = instrs g.eff_prev;
    eff_next = instrs g.eff_next;
    use_head = instrs g.use_head;
    cell_user = cells g.cell_user;
    cell_next = cells g.cell_next;
    blk_live = blocks g.blk_live;
    blk_term = blocks g.blk_term;
    blk_preds = blocks g.blk_preds;
    phi_head = blocks g.phi_head;
    phi_tail = blocks g.phi_tail;
    body_head = blocks g.body_head;
    body_tail = blocks g.body_tail;
    eff_head = blocks g.eff_head;
    eff_tail = blocks g.eff_tail;
    blk_size = blocks g.blk_size;
  }

(* An independent graph must not share the cache: cached analyses point
   back at the graph they were computed on.  Nor the log: the copy
   appends its own entries from position 0. *)
let copy g =
  {
    (clone g) with
    generation = 0;
    cache = No_cache;
    log = Array.make 16 0;
    log_len = 0;
    logging = false;
  }

type snapshot = { owner : t; saved : t; mutable spent : bool }

let snapshot g = { owner = g; saved = clone g; spent = false }

let restore g snap =
  (* The graph adopts the snapshot's arrays, so a second restore would
     hand it arrays it has since mutated. *)
  if snap.spent then invalid_arg "Graph.restore: snapshot already restored";
  snap.spent <- true;
  let s = snap.saved in
  g.kinds <- s.kinds;
  g.ins_block <- s.ins_block;
  g.seq_prev <- s.seq_prev;
  g.seq_next <- s.seq_next;
  g.eff_prev <- s.eff_prev;
  g.eff_next <- s.eff_next;
  g.allocs <- s.allocs;
  g.use_head <- s.use_head;
  g.n_instrs <- s.n_instrs;
  g.cell_user <- s.cell_user;
  g.cell_next <- s.cell_next;
  g.n_cells <- s.n_cells;
  g.free_cell <- s.free_cell;
  g.blk_live <- s.blk_live;
  g.blk_term <- s.blk_term;
  g.blk_preds <- s.blk_preds;
  g.phi_head <- s.phi_head;
  g.phi_tail <- s.phi_tail;
  g.body_head <- s.body_head;
  g.body_tail <- s.body_tail;
  g.eff_head <- s.eff_head;
  g.eff_tail <- s.eff_tail;
  g.blk_size <- s.blk_size;
  g.n_blocks <- s.n_blocks;
  g.entry <- s.entry;
  g.n_live <- s.n_live;
  g.n_live_blocks <- s.n_live_blocks;
  g.unswept <- s.unswept;
  if snap.owner == g then begin
    (* Back in the exact snapshot state: its generation and cache slot
       are valid again, which revives the analyses cached there. *)
    g.generation <- s.generation;
    g.cache <- s.cache;
    (* Rewind the log with the clean stamps the cache holds: entries
       past the snapshot's length describe the undone mutations.  The
       snapshot shares the array; nothing below its length was
       rewritten since. *)
    g.log <- s.log;
    g.log_len <- s.log_len;
    g.logging <- s.logging
  end
  else begin
    (* Another graph's contents: a new state for this graph's cache.
       The log keeps growing: with the cache gone no stamp refers to
       it. *)
    touch g;
    g.cache <- No_cache
  end
