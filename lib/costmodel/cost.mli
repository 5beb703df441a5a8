(** The IR node cost model (paper §5.3).

    Each instruction kind carries a platform-agnostic estimate of its
    execution latency in abstract {e cycles} and its machine-code
    {e size} in abstract bytes — the OCaml analogue of Graal's
    [@NodeInfo(cycles = ..., size = ...)] annotations.  The published
    data points are preserved: division costs 32 cycles, a shift costs 1
    (Figure 3d's strength reduction saves 31 cycles), an allocation costs
    8 ("tlab alloc + header init", Listing 7). *)

(** Revision of the cost tables: bump on any change to the constants.
    Folded into the compilation-service digest so artifacts cached under
    one cost model are never reused under another. *)
val revision : int

type estimate = { cycles : float; size : int }

val of_term : Ir.Types.terminator -> estimate
val cycles_of_kind : Ir.Types.instr_kind -> float
val size_of_kind : Ir.Types.instr_kind -> int
