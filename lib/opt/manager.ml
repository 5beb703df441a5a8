(** The pass manager: executes a declarative pipeline {!Spec} over one
    graph, resolving pass names through a caller-supplied registry.

    Every pass execution goes through {!Phase.run_pass}, so the
    instrumentation (per-pass stats, preservation contracts, paranoid
    hooks) is attached once, uniformly — fixpoint groups, DBDS tiers and
    standalone passes all look the same to it.

    The classic per-graph passes resolve in {!Pipeline.resolve_classic};
    the driver layers the duplication tiers ([dbds], [dupalot],
    [backtracking]) and program-level [inline] on top. *)

type resolver = string -> (string * string) list -> (Phase.t, string) result

(** A spec name (or option) the resolver rejected; raised at run time
    only for specs that skipped {!validate}. *)
exception Unresolved of string

let () =
  Printexc.register_printer (function
    | Unresolved msg -> Some (Printf.sprintf "Opt.Manager.Unresolved(%s)" msg)
    | _ -> None)

let get = function Ok v -> v | Error msg -> raise (Unresolved msg)

let fix_rounds opts =
  Result.bind (Spec.check_opts ~pass:"fix" [ "rounds" ] opts) (fun () ->
      Spec.int_opt opts "rounds" ~default:8)

(** Check every name and option of [spec] against [resolve] without
    running anything — surfacing bad specs at configuration time (e.g.
    CLI parsing) instead of mid-compilation. *)
let validate resolve spec =
  let rec item = function
    | Spec.Pass { name; opts } ->
        Result.map (fun (_ : Phase.t) -> ()) (resolve name opts)
    | Spec.Fix { opts; body } ->
        Result.bind
          (Result.map (fun (_ : int) -> ()) (fix_rounds opts))
          (fun () -> items body)
  and items = function
    | [] -> Ok ()
    | it :: rest -> Result.bind (item it) (fun () -> items rest)
  in
  items spec

(** Run [spec]'s items in order over [g]; a [fix(...)] group iterates
    its body until a full round changes nothing (or its [rounds] option,
    default 8, is exhausted, which {!Phase.ctx.fix_capped} counts).
    Returns true if any pass fired. *)
let rec run_item resolve ctx g = function
  | Spec.Pass { name; opts } -> Phase.run_pass ctx (get (resolve name opts)) g
  | Spec.Fix { opts; body } ->
      let max_rounds = get (fix_rounds opts) in
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
