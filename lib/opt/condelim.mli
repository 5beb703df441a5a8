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

(** Add the facts implied by [cond = truth].  [kind_of] resolves operand
    kinds (synonym-aware in simulation). *)
val assume : kind_of:(value -> instr_kind) -> env -> value -> bool -> env

(** Can the environment decide this condition?  [v] is the value id of
    the condition (for direct truth lookups); [kind] its (resolved)
    kind. *)
val implied :
  kind_of:(value -> instr_kind) -> env -> value -> instr_kind -> bool option

(** The phase entry point. *)
val run : Phase.ctx -> Ir.Graph.t -> bool

val phase : Phase.t
