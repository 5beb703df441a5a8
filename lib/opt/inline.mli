(** Function inlining.

    Graal runs DBDS on post-inlining compilation units: hot leaf logic
    sits inside its caller's loops, which is what makes relative block
    frequencies (the trade-off's [p] factor) meaningful and what produces
    the large units the paper's evaluation compiles.  This inliner
    reproduces that: functions are processed callee-first and call sites
    are spliced in place — the call block is split, the callee's blocks
    are copied with parameters bound to arguments, and returns jump to
    the continuation (merging results through a phi).

    Self-recursive calls (and any call that would exceed the size budget)
    stay as calls; the interpreter executes them out-of-line. *)

type limits = {
  max_callee_size : int;  (** don't inline callees larger than this *)
  max_caller_size : int;  (** stop growing a caller beyond this *)
  max_sites_per_caller : int;
}

(** 400-instruction callees, 4000-instruction callers, 64 sites. *)
val default_limits : limits

(** Splice one call site (the callee must be a different graph).
    Exposed for tests; most callers want {!inline_program}. *)
val inline_site : Ir.Graph.t -> Ir.Types.instr_id -> Ir.Graph.t -> unit

(** Inline a whole program bottom-up (callees before callers, so a callee
    spliced into its caller already contains its own inlined calls).
    One run of the [inline] row of the per-pass table. *)
val inline_program : ?limits:limits -> Phase.ctx -> Ir.Program.t -> bool
