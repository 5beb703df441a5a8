(** The pass manager: executes a declarative pipeline {!Spec} over one
    graph, resolving pass names through a caller-supplied registry.

    Every pass execution goes through {!Phase.run_pass}, so the
    instrumentation (per-pass stats, preservation contracts, paranoid
    hooks) is attached once, uniformly — fixpoint groups, DBDS tiers and
    standalone passes all look the same to it.

    The classic per-graph passes resolve in {!Pipeline.resolve_classic};
    the driver layers the duplication tiers ([dbds], [dupalot],
    [backtracking], [condelim_dup]) on top. *)

type resolver = string -> (string * Spec.value) list -> Phase.t

(** Run [spec]'s items in order over [g]; a [fix(...)] group iterates
    its body until a full round changes nothing (or its [rounds] option
    is exhausted, which {!Phase.ctx.fix_capped} counts).
    Returns true if any pass fired. *)
let rec run_item resolve ctx g = function
  | Spec.Pass { name; opts } -> Phase.run_pass ctx (resolve name opts) g
  | Spec.Fix { opts; body } ->
      let max_rounds = Spec.int opts "rounds" in
      let any = ref false in
      let round = ref 0 in
      let changed = ref true in
      while !changed && !round < max_rounds do
        incr round;
        changed := false;
        List.iter
          (fun it -> if run_item resolve ctx g it then changed := true)
          body;
        if !changed then any := true
      done;
      if !changed then ctx.Phase.fix_capped <- ctx.Phase.fix_capped + 1;
      !any

and run resolve spec ctx g =
  List.fold_left
    (fun fired it -> if run_item resolve ctx g it then true else fired)
    false spec
