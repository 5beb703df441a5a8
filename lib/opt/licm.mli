(** Loop-invariant code motion.

    Pure instructions whose operands are all defined outside a loop (or
    already hoisted) move to the loop's unique outside predecessor.  Our
    arithmetic is total (division by zero is defined), so hoisting is
    plain speculation — safe, at worst wasted cycles on the non-loop
    path.  Memory reads stay put.

    This phase is {e not} part of the calibrated default pipeline
    ({!Pipeline.classic_names}): the evaluation's baseline/DBDS/dupalot
    comparison uses a fixed phase plan (as the paper's Graal configuration
    does), and adding a phase would shift every measured ratio.  Enable it
    by naming [licm] in a pipeline spec ([dbdsc --passes '...,licm']). *)

val run : Phase.ctx -> Ir.Graph.t -> bool
val phase : Phase.t
