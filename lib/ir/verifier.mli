(** Structural and SSA well-formedness checks: edge/pred consistency,
    instruction placement, phi arity and fill, input liveness, use-list
    accuracy, the SSA dominance property, and that a graph whose
    reachability bit is clear ({!Graph.may_have_unreachable}) has no
    unreachable block.  Tests run the verifier
    after every transformation; a failure message pinpoints the broken
    invariant. *)

exception Invalid of string

(** Run all checks.
    @raise Invalid with a description of the first violation. *)
val verify : Graph.t -> unit

(** [Ok ()] or [Error message]. *)
val verify_result : Graph.t -> (unit, string) result
