(** Read elimination (paper §2): replace a load that is fully redundant —
    an available load or store of the same location dominates it with no
    intervening kill — by the available value.

    Availability is propagated along the dominator tree, but only into
    children whose sole CFG predecessor is the current block (through a
    merge, facts from one side would be unsound).  Partially redundant
    reads therefore survive this phase — duplication promotes them to
    fully redundant, which is exactly the paper's Listing 5/6 scenario. *)

val run : Phase.ctx -> Ir.Graph.t -> bool
val phase : Phase.t
