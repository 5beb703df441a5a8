(** Adversarial workload lab: CFG shapes engineered to stress specific
    optimization tiers — irreducible multi-entry rings (authored in
    textual IR; the mini-language cannot express them), interpreter-style
    giant-switch dispatch loops, deeply nested diamond ladders, and
    exception-ish cold early exits ending in [unreachable].  All
    generators are deterministic in their seed. *)

(** Textual IR for a [nodes]-node ring ([nodes >= 2]) with entries at
    node 0 and node [nodes/2] — no natural loop, yet duplication
    candidates inside the cycle. *)
val irr_ring_text : nodes:int -> seed:int -> string

(** Mini-language source for a [handlers]-way (power of two) decode +
    dispatch interpreter loop. *)
val dispatch_src : handlers:int -> seed:int -> string

(** The four lab suites, in this order: irreducible rings, dispatch
    loops, diamond ladders, abnormal exits. *)
val suites : Suite.t list

(** Fresh programs for every adversarial benchmark ([suite/benchmark]
    names), for harnesses wanting raw client programs. *)
val programs : unit -> (string * Ir.Program.t) list
