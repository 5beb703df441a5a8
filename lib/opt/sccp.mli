(** Sparse conditional constant propagation (Wegman–Zadeck).

    Runs the classic two-worklist algorithm over the CFG and SSA edges:
    values live in the lattice Top → Const → Bottom, branch conditions
    that evaluate to lattice constants keep their dead successor edge
    non-executable, and phis meet only over executable incoming edges.
    This catches what the per-instruction canonicalizer cannot: constants
    threaded through cycles and through branches whose direction is
    itself determined by constants. *)

val run : Phase.ctx -> Ir.Graph.t -> bool
val phase : Phase.t
