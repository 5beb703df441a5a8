(** Read elimination (paper §2): replace a load that is fully redundant —
    an available load or store of the same location dominates it with no
    intervening kill — by the available value.

    Availability is propagated along the dominator tree, but only into
    children whose sole CFG predecessor is the current block (through a
    merge, facts from one side would be unsound).  Partially redundant
    reads therefore survive this phase — duplication promotes them to
    fully redundant, which is exactly the paper's Listing 5/6 scenario. *)

(** [step ctx st id kind]: one instruction's memory step,
    {!Memstate.transfer} then, for a [New] whose class [ctx]'s program
    knows, its fields seeded with the constructor arguments.  Returns
    the new state and, for a redundant load, the available value.
    Charges nothing. *)
val step :
  Phase.ctx ->
  Memstate.t ->
  Ir.Types.value ->
  Ir.Types.instr_kind ->
  Memstate.t * Ir.Types.value option

(** [state_for_child g st bid child]: the state the walk carries from
    [bid]'s outgoing state [st] into its dominator child [child] — [st]
    when [bid] is [child]'s sole predecessor, empty otherwise. *)
val state_for_child :
  Ir.Graph.t ->
  Memstate.t ->
  Ir.Types.block_id ->
  Ir.Types.block_id ->
  Memstate.t

val run : Phase.ctx -> Ir.Graph.t -> bool
val phase : Phase.t
