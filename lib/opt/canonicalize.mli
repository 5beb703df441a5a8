(** The canonicalizer: constant folding, algebraic simplification and
    strength reduction, expressed as a pure decision function
    ({!simplify}) plus a phase that applies it.

    The decision function is the shared engine behind both the real
    optimization phase and the DBDS applicability checks (paper §4.1
    splits optimizations into a {e precondition} and an {e action step}
    following Chang et al.; [simplify] computes both — returning the
    action's result rather than mutating the IR).

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

(** Does this kind statically produce a non-null reference? *)
val never_null : instr_kind -> bool

(** [simplify ~kind_of ~mk_const kind] decides how [kind] simplifies given
    the (possibly synonym-resolved) kinds of its operands.  [mk_const] is
    called to materialize fresh integer-constant operands for strength
    reductions.  [self] is the value id of the instruction itself when
    known (it lets loop phis of the shape [phi(x, self)] collapse). *)
val simplify :
  ?self:value ->
  kind_of:(value -> instr_kind) ->
  mk_const:(int -> value) ->
  instr_kind ->
  action

(** A hash-consing constant materializer for one graph: reused constants
    are hoisted to the head of the entry block so they dominate every use
    site. *)
val materialize_const : Ir.Graph.t -> int -> value

(** [materialize_const g] as called now, but reading the entry block on
    its first call: a caller that may make no constant builds nothing.
    Sound when, until that call, the caller only changes the kinds of
    instructions that are not constants, with the log on
    ({!Ir.Graph.start_log}). *)
val materialize_const_on_use : Ir.Graph.t -> int -> value

(** The phase entry point. *)
val run : Phase.ctx -> Ir.Graph.t -> bool

val phase : Phase.t
