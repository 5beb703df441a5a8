(** SSA reconstruction after code duplication.

    When the duplication transform copies a merge block into a
    predecessor, every value originally defined in the merge gains a
    second definition (its copy).  Uses of the original value in blocks
    the merge no longer dominates must be rewritten to see the correct
    reaching definition, inserting phis where control flow re-joins.
    Implemented as on-demand value lookup (in the style of LLVM's
    SSAUpdater / Braun et al.'s SSA construction): phis are created lazily
    at join points while walking predecessors, then trivial phis are
    cleaned up.

    This is exactly the "complex analysis to generate valid φ instructions
    for usages in dominated blocks" that the paper's Section 3.1 cites as
    the expensive part of the real transformation (and the reason the
    simulation tier avoids it). *)

open Types

(** Reaching-definition state for one repaired variable, exposed so other
    passes (scalar replacement) can reuse the lookup machinery for their
    own "memory variable" promotion. *)
type var_state = {
  defs : (block_id, value) Hashtbl.t;  (** reaching def at end of block *)
  live_in : (block_id, value) Hashtbl.t;  (** memoized value live into block *)
  mutable inserted : value list;  (** phis created during repair *)
  mutable visited : int;
      (** block lookups {!value_at_end} and {!value_live_into} made,
          memoized ones included *)
}

(** Raised when a lookup walks off the entry without meeting a
    definition (a caller bug: every path to a use must pass a def). *)
exception No_reaching_def of block_id

(** Value of the variable at the end of a block (its own def, or the
    value live into it). *)
val value_at_end : Graph.t -> var_state -> block_id -> value

(** Value of the variable on entry to a block; inserts phis at joins on
    demand (memoized, loop-safe). *)
val value_live_into : Graph.t -> var_state -> block_id -> value

(** Delete the phis of [inserted] that are trivial: [phi [x, ..., x]]
    or [phi [x, self]] become [x], repeatedly, so a phi made trivial by
    another's removal goes too.  Phis already deleted are skipped. *)
val simplify_inserted_phis : Graph.t -> value list -> unit

(** [repair g ~classes] fixes uses after duplication.  Each class is
    [(original, copies)]: the original value together with its alternate
    definitions, given as [(block, value)] pairs — the value that acts as
    the reaching definition at the end of [block].  Uses of [original]
    that are no longer dominated by its definition are rewritten; phis are
    inserted at join points as needed.  Returns the inserted phis that
    survive trivial-phi cleanup.  [charge] (default: ignore) receives
    what the repair examined, in work units: one per class, one per use
    of its original and one per block a lookup visited. *)
val repair :
  ?charge:(int -> unit) ->
  Graph.t ->
  classes:(value * (block_id * value) list) list ->
  value list
