(** The pass manager: executes a declarative pipeline {!Spec} over one
    graph, resolving pass names through a caller-supplied registry.
    Every pass execution goes through {!Phase.run_pass}, so per-pass
    stats, preservation contracts and paranoid hooks are attached once,
    uniformly. *)

(** Maps a spec name and its options to a pass. *)
type resolver = string -> (string * string) list -> (Phase.t, string) result

(** A spec name (or option) the resolver rejected; raised at run time
    only for specs that skipped {!validate}. *)
exception Unresolved of string

(** Check every name and option of a spec against a resolver without
    running anything. *)
val validate : resolver -> Spec.t -> (unit, string) result

(** Run a spec's items in order over a graph; [fix(...)] groups iterate
    their body to a fixpoint (option [rounds], default 8; a group that
    stops at the cap instead is counted in {!Phase.ctx.fix_capped}).
    Returns true if any pass fired.
    @raise Unresolved on names/options [validate] would reject. *)
val run : resolver -> Spec.t -> Phase.ctx -> Ir.Graph.t -> bool
