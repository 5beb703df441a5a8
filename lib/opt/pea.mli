(** Escape analysis and scalar replacement (paper §2, after Stadler et
    al.'s partial escape analysis).

    An allocation escapes if its reference leaves the function's scalar
    world: stored into another object or a global, passed to a call,
    returned, merged through a phi, or compared against anything but null.
    A non-escaping allocation is {e scalar replaced}: its fields become
    SSA values, loads are rewritten, its [==] / [!=] null compares fold to
    constants (an allocation is never null), and the allocation and its
    stores are deleted.  One run replaces a whole nested allocation chain:
    replacing an object exposes the allocations held in its fields.

    The {e partial} aspect of the paper's PEA arises through duplication:
    an allocation that escapes only through a phi becomes non-escaping on
    a predecessor path once the merge block is duplicated — which is the
    opportunity the DBDS applicability check looks for. *)

(** Why an allocation escapes (exposed for the simulation tier: an
    allocation escaping only through phis is a duplication candidate). *)
type escape = No_escape | Through_phi_only | Escapes

val escape_state : Ir.Graph.t -> Ir.Types.value -> escape

val run : Phase.ctx -> Ir.Graph.t -> bool
val phase : Phase.t
