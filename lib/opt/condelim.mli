(** Conditional elimination (paper §2, after Stadler et al.): walk the
    dominator tree maintaining facts established by dominating branches —
    the truth of condition values, integer ranges of values compared
    against constants, and non-nullness — and fold comparisons (and hence
    branches) that the facts imply.

    A fact from branch [p: branch c ? t : f] holds in the dominator
    subtree of [t] provided [t]'s only predecessor is [p] (otherwise other
    paths enter [t] without establishing the fact).

    The fact environment is exposed so the DBDS simulation tier can reuse
    the same implication engine as its conditional-elimination
    applicability check. *)

open Ir.Types

type range = { lo : int; hi : int }

(** Immutable fact environment (persistent maps: pushing facts for a
    dominator subtree is just a rebinding). *)
type env

val empty_env : env

(** Can the environment decide this condition?  [v] is the value id of
    the condition (for direct truth lookups); [kind] its (resolved)
    kind. *)
val implied :
  kind_of:(value -> instr_kind) -> env -> value -> instr_kind -> bool option

(** [edge_env g env bid succ]: [env] plus the facts that hold on the
    edge [bid] -> [succ], i.e. [bid]'s branch condition when exactly one
    of its arms is [succ].  Sound inside a block whose only way in is
    that edge. *)
val edge_env : Ir.Graph.t -> env -> block_id -> block_id -> env

(** [iter_children g dom env bid f] calls [f env' child] for each
    dominator child of [bid] in order, [env'] being the facts the walk
    carries into [child] from [bid]'s facts [env]: the edge's facts when
    [bid] is [child]'s sole predecessor, [env] otherwise.  The fact
    hand-off of the pass's own walk. *)
val iter_children :
  Ir.Graph.t ->
  Ir.Dom.t ->
  env ->
  block_id ->
  (env -> block_id -> unit) ->
  unit

(** The phase entry point. *)
val run : Phase.ctx -> Ir.Graph.t -> bool

val phase : Phase.t
