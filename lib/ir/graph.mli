(** The function graph: a flat, int-indexed arena of instructions and
    basic blocks with maintained def-use chains and predecessor lists.

    Storage is struct-of-arrays: instruction kinds, block membership and
    the intra-block instruction order live in parallel unboxed [int]
    arrays (intrusive doubly-linked chains), use lists are packed
    intrusive chains over an int-cell pool, and liveness is a bitset —
    no [option] boxing, no per-node records, and no allocation on the
    mutation hot path beyond the kinds themselves.  Dead slots are never
    reused, so ids stay stable and printed output is reproducible.

    Invariants maintained by this module's mutation API (and checked by
    {!Verifier}):
    - [preds] of a block lists exactly the blocks whose terminator targets
      it, in a stable order;
    - every [Phi] has exactly one input per predecessor, aligned with the
      predecessor order;
    - use chains record every instruction and terminator referencing a
      value;
    - each block's {e effect chain} lists exactly its body instructions
      of an {!effect_kind}, in body order;
    - the {e allocation index} lists exactly the live [New]
      instructions, by decreasing id;
    - while the {e reachability bit} is clear, every live block is
      reachable from the entry (see {!may_have_unreachable}).

    All reads go through accessors; all mutation goes through this API so
    the invariants stay sound. *)

open Types

type user = U_instr of instr_id | U_term of block_id

(** Extensible per-graph cache slot.  {!Analyses} stores memoized CFG
    analyses here, keyed on {!generation}; a {!snapshot} saves the slot
    and {!restore} brings it back together with the graph. *)
type cache = ..

type cache += No_cache

type t

val name : t -> string
val n_params : t -> int
val entry : t -> block_id

(** Mutation counter.  Every operation that changes the graph bumps it;
    {!restore} from the graph's own {!snapshot} puts it back (the graph
    really is back in its snapshot state). *)
val generation : t -> int

(** {2 Mutation log}

    Every mutation also appends what it touched to an append-only log.
    A position in it ({!log_length}) names a graph state; the entries
    after it say where the graph changed since.  The pass manager
    stamps a pass's clean run with a position and later runs the pass
    over the entries logged since (see {!Opt.Phase}). *)

(** What a log entry names:
    - [Instr id]: instruction [id] was created, changed kind, was moved
      between blocks, or was deleted (it may be dead now);
    - [Lost_use v]: an instruction or terminator stopped reading value
      [v] (it was deleted, or rewritten to no longer read [v]);
    - [Cfg b]: block [b] was created or deleted, or its terminator or
      predecessor list changed (or it became the entry);
    - [Effect_removed b]: a side-effecting instruction left block [b]. *)
type logged = Instr | Lost_use | Cfg | Effect_removed

(** Number of entries logged so far. *)
val log_length : t -> int

(** Start logging.  A graph logs nothing until the first clean stamp
    ({!Analyses.note_pass_clean} calls this): no region reads entries
    older than its stamp, so building and first optimizing a graph pay
    nothing for the log. *)
val start_log : t -> unit

(** Start an empty log: positions restart at 0.  A snapshot taken
    before keeps the old entries and restores them.  Only
    {!Analyses.drop_log} calls it, rebasing the clean stamps with it. *)
val reset_log : t -> unit

(** [iter_log g ~since f] calls [f] on every entry at positions
    [since .. log_length g - 1], oldest first.  Ids may be repeated and
    may name dead instructions or blocks. *)
val iter_log : t -> since:int -> (logged -> int -> unit) -> unit

(** [iter_log_ids g what ~since seen f] calls [f] on every id with a
    [what] entry at positions [since .. log_length g - 1] that names a
    live instruction ([Instr], [Lost_use]) or a live block ([Cfg],
    [Effect_removed]) and is not in [seen], adding it to [seen] first:
    once per id, in the order of its first accepted entry.  Liveness
    and [seen] are read at each entry, so [f] may delete, create or
    mark ids; entries [f] appends are not visited.  One loop over the
    packed entries: [iter_log] filtered by a closure, without one. *)
val iter_log_ids :
  t -> logged -> since:int -> Stampset.t -> (int -> unit) -> unit

(** Is there a [what] entry at or after [since]? *)
val logged_since : t -> logged -> since:int -> bool

(** Is there an entry at or after [since] other than a deletion of an
    instruction nothing read: an [Instr] entry on a live instruction,
    a [Cfg] entry, or with [effects] an [Effect_removed] entry? *)
val changed_beyond_deletions : t -> effects:bool -> since:int -> bool

(** Arena high-water marks: every live instruction (block) id is
    [< n_instrs] ([< n_blocks]).  Sized for flat side-tables. *)
val n_instrs : t -> int

val n_blocks : t -> int

(** The analysis-cache slot (see {!Analyses}). *)
val cache : t -> cache

val set_cache : t -> cache -> unit

(** A graph with no blocks.  Its arenas double when full; [instrs] and
    [blocks] are how many instructions and blocks the caller will add,
    if it knows: the arenas then start at the size that doubling would
    reach for them, so adding them never regrows. *)
val create :
  ?name:string -> ?instrs:int -> ?blocks:int -> n_params:int -> unit -> t

(** {2 Arena access} *)

val instr_exists : t -> instr_id -> bool
val block_exists : t -> block_id -> bool

(** @raise Invalid_argument on a dead id. *)
val kind : t -> instr_id -> instr_kind

(** The block an instruction lives in (-1 when detached).
    @raise Invalid_argument on a dead id. *)
val block_of : t -> instr_id -> block_id

(** All recorded users of a value, most recent first (duplicates appear
    once per read). *)
val uses : t -> value -> user list

(** Non-allocating iteration over a value's users (read-only: do not
    mutate the graph from [f]).  Hands out the packed user encoding —
    zero allocation per visit.  Decode with {!user_is_term} (terminator
    use?) and {!user_target} (the using instruction, or the block whose
    terminator reads the value). *)
val iter_uses_enc : t -> value -> (int -> unit) -> unit

(** [set_uses_unchecked g v users] makes [users] (in order) the use list
    of [v], keeping nothing else consistent.  Exposed for tests: it
    builds the corrupt use lists {!Verifier} must reject. *)
val set_uses_unchecked : t -> value -> user list -> unit

val user_is_term : int -> bool
val user_target : int -> int

val has_uses : t -> value -> bool

(** {2 Creation} *)

val add_block : t -> block_id
val set_entry : t -> block_id -> unit

(** Append an instruction to a block's body (or phi list for [Phi]). *)
val append : t -> block_id -> instr_kind -> instr_id

(** Insert an instruction at the head of a block's body (or phi list). *)
val prepend : t -> block_id -> instr_kind -> instr_id

(** {2 Mutation} *)

(** Replace an instruction's kind, keeping use chains consistent. *)
val set_kind : t -> instr_id -> instr_kind -> unit

val succs : t -> block_id -> block_id list
val preds : t -> block_id -> block_id list

(** The block's only predecessor, or -1 when it has none or several:
    [sole_pred g b = p] for [p >= 0] exactly when [preds g b = [ p ]]. *)
val sole_pred : t -> block_id -> block_id

val pred_count : t -> block_id -> int
val pred_nth : t -> block_id -> int -> block_id
val iter_preds : t -> block_id -> (block_id -> unit) -> unit

(** Position of [pred] in the predecessor list (= the phi input index).
    @raise Invalid_argument when absent. *)
val pred_index : t -> block_id -> block_id -> int

(** Set a block's terminator, keeping predecessor lists of the old and new
    successors consistent.  Phis of newly-gained successors receive
    {!Types.invalid_value} inputs which the caller must fill. *)
val set_term : t -> block_id -> terminator -> unit

val term : t -> block_id -> terminator

(** Replace a block's terminator with one that has the {e same successor
    blocks} (e.g. substituting the returned value or branch condition).
    Cheaper than {!set_term}: predecessor lists and phis are untouched;
    only the use chains are maintained. *)
val patch_term : t -> block_id -> terminator -> unit

(** Move [src]'s terminator to [dst] (whose terminator must be
    [Unreachable] with no successors), renaming the edge source in every
    successor's predecessor list — phi inputs keep their positions.
    [src] is left [Unreachable].  The block-splitting primitive of the
    inliner. *)
val transfer_term : t -> src:block_id -> dst:block_id -> unit

(** Redirect the edge [from_block -> old_target] to [new_target].  The phi
    inputs that [old_target] held for this edge are dropped; phis of
    [new_target] (if any) receive {!Types.invalid_value} for the new
    edge. *)
val redirect_edge :
  t -> from_block:block_id -> old_target:block_id -> new_target:block_id -> unit

(** Replace every use of a value (in instructions and terminators). *)
val replace_uses : t -> value -> by:value -> unit

(** Detach and delete an instruction; its slot is not reused.
    @raise Invalid_argument when it still has uses. *)
val remove_instr : t -> instr_id -> unit

(** Detach an instruction from its block without deleting it. *)
val detach : t -> instr_id -> unit

(** Re-attach a detached instruction at the end of a block's body (or phi
    list). *)
val attach : t -> instr_id -> block_id -> unit

(** Re-attach a detached instruction at the head of a block's body (or
    phi list) — constant hoisting. *)
val attach_front : t -> instr_id -> block_id -> unit

(** Delete a whole block; its predecessor edges must already be gone. *)
val remove_block : t -> block_id -> unit

(** {2 Iteration}

    Iterators pass ids (not records); all are in increasing-id order for
    arenas and chain order within blocks. *)

val iter_blocks : t -> (block_id -> unit) -> unit
val fold_blocks : t -> ('a -> block_id -> 'a) -> 'a -> 'a
val iter_instrs : t -> (instr_id -> unit) -> unit
val fold_instrs : t -> ('a -> instr_id -> 'a) -> 'a -> 'a

(** Non-allocating in-order iteration over a block's phis / body /
    both. *)
val iter_phis : t -> block_id -> (instr_id -> unit) -> unit

val iter_body : t -> block_id -> (instr_id -> unit) -> unit
val iter_block_instrs : t -> block_id -> (instr_id -> unit) -> unit

(** Does the block have a phi?  O(1). *)
val has_phis : t -> block_id -> bool

(** {2 Effect chains}

    A block's effect chain is the subsequence of its body that read
    elimination, conditional elimination and scalar replacement act on:
    the loads, stores, calls, allocations and compares.  The mutation
    API keeps it in body order, so those passes walk it instead of the
    whole block. *)

(** The kinds on an effect chain: [Load], [Store], [Load_global],
    [Store_global], [Call], [New] and [Cmp]. *)
val effect_kind : instr_kind -> bool

(** In-order iteration over a block's effect chain.  The next link is
    read before [f] runs, so [f] may delete or rewrite the instruction
    it is given (not the ones after it). *)
val iter_effects : t -> block_id -> (instr_id -> unit) -> unit

(** The allocation index: every live [New] instruction (detached ones
    included), by decreasing id.  Kept by the mutation API, so reading
    it costs nothing. *)
val allocations : t -> instr_id list

(** Materialized phi / body lists in execution order (cold paths;
    prefer the iterators above on hot paths). *)
val phis : t -> block_id -> instr_id list

val body : t -> block_id -> instr_id list

(** All instruction ids of a block in execution order: phis then body. *)
val block_instrs : t -> block_id -> instr_id list

(** Number of instructions in a block (phis + body), O(1). *)
val block_size : t -> block_id -> int

val live_instr_count : t -> int
val live_block_count : t -> int

(** {2 Orders} *)

(** Reverse postorder over reachable blocks. *)
val rpo : t -> block_id list

(** {2 Reachability}

    The graph keeps one bit: a block may have become unreachable since
    the last completed {!remove_unreachable_blocks}.  The primitives
    that can strand a block set it: {!set_term} dropping a successor,
    {!redirect_edge}, {!transfer_term} and {!add_block}.
    {!snapshot}, {!restore} and {!copy} carry it.  While it is clear,
    every live block is reachable from the entry ({!Verifier} checks
    this). *)

(** Is the bit set? *)
val may_have_unreachable : t -> bool

(** Delete every block not reachable from the entry (dropping their edges
    into reachable blocks, with the matching phi inputs), and clear the
    bit.  Returns true if anything was removed.  While the bit is clear
    it returns false without walking the graph. *)
val remove_unreachable_blocks : t -> bool

(** [keep_reachability g f] runs [f], an edit that strands no block of a
    graph whose blocks are all reachable (it may move edges, but every
    block keeps a path from the entry), and leaves a clear bit clear.
    A set bit stays set, and so does the bit after an exception. *)
val keep_reachability : t -> (unit -> 'a) -> 'a

(** {2 Copy / snapshot / restore} *)

(** Independent deep copy (effect chains and allocation index included):
    same instruction and block ids, generation 0, an empty analysis cache
    and an empty mutation log. *)
val copy : t -> t

(** The whole state of a graph: arenas, generation, mutation-log
    position and analysis-cache slot. *)
type snapshot

val snapshot : t -> snapshot

(** [restore g s] puts [g] into [s]'s state.  When [s] is [g]'s own
    snapshot, [g] gets back the generation and cache slot it had then,
    so the analyses cached at snapshot time are valid again — the undo
    of a failed or rejected attempt.  The log rewinds to the snapshot's
    length with them, so the clean stamps in the restored cache see no
    entry of the undone attempt.  Snapshots share the log's storage and
    nest: after restoring a snapshot, do not restore one taken later.
    A snapshot of another graph gives
    [g] that graph's contents under a new generation with an empty
    cache.  [g] adopts the snapshot's storage, so a snapshot restores
    once.
    @raise Invalid_argument on a second restore of the same snapshot. *)
val restore : t -> snapshot -> unit
