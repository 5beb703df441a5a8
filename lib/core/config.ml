(** DBDS configuration: the trade-off constants of paper §5.4 and the
    evaluation configurations of §6.1. *)

type t = {
  benefit_scale : float;  (** BS; the paper derived 256 empirically *)
  size_budget : float;  (** IB; 1.5 = max 150% of the initial code size *)
  max_unit_size : int;  (** MS; the VM's installed-code limit *)
  verify_between_phases : bool;
      (** paranoid mode: the compile runs {!Opt.Phase.check} after
          every fired pass and every duplication, and a violation is a
          contained crash *)
  fault_plan : Faults.plan option;
      (** deterministic fault injection (testing); [None] in production *)
  passes : Opt.Spec.t;
      (** the pipeline a compile runs ([dbdsc --passes]), checked; the
          tiers' iteration count and path extension are its options *)
}

(* The greedy [condelim_dup] tier and [backtracking] perform no
   embedded action steps (unlike the simulation tiers, which optimize
   after each round), so the opportunities they open need a trailing
   fixpoint group. *)
let pipeline ?(opts = []) tier =
  let fix = Opt.Pipeline.fix_group in
  let inline = Opt.Spec.Pass { name = "inline"; opts = [] } in
  let items =
    match tier with
    | None -> [ inline; fix ]
    | Some name ->
        let pass = Opt.Spec.Pass { name; opts } in
        if name = "dbds" || name = "dupalot" then [ inline; fix; pass ]
        else [ inline; fix; pass; fix ]
  in
  match Opt.Spec.check items with Ok spec -> spec | Error msg -> invalid_arg msg

let default =
  {
    benefit_scale = 256.0;
    size_budget = 1.5;
    max_unit_size = 65_536;
    verify_between_phases = false;
    fault_plan = None;
    passes = pipeline (Some "dbds");
  }

let dbds = default
let off = { default with passes = pipeline None }
let dupalot = { default with passes = pipeline (Some "dupalot") }
let backtracking = { default with passes = pipeline (Some "backtracking") }
let condelim_dup = { default with passes = pipeline (Some "condelim_dup") }

(** DBDS with the §8 path extension: up to three merges a candidate. *)
let dbds_paths =
  {
    default with
    passes = pipeline ~opts:[ ("paths", "3") ] (Some "dbds");
  }

(** DBDS with paranoid between-phase verification enabled. *)
let paranoid = { default with verify_between_phases = true }

let named =
  [
    ("baseline", off);
    ("off", off);
    ("dbds", dbds);
    ("dupalot", dupalot);
    ("backtracking", backtracking);
    ("condelim-dup", condelim_dup);
    ("condelim_dup", condelim_dup);
  ]

(* ------------------------------------------------------------------ *)
(* Line (de)serialization                                              *)
(* ------------------------------------------------------------------ *)

(* One space-separated key=value line covering every knob that shapes
   the produced IR: the crash-bundle header, the service protocol and
   the artifact-store digest all share it.  The fault plan has no
   pipeline effect and is deliberately excluded — two configs differing
   only there must collide in the cache.  [passes] is the whole
   pipeline in its checked form, every option written out, so two
   configs that run one pipeline under the same constants render one
   line however the spec was spelled, and a later change to a default
   changes the line (so the digest of every artifact compiled under
   it).  A key a later version removed
   ([mode], [max_iterations], [path_duplication], [max_path_length],
   [iteration_benefit_threshold], [loop_factor], [licm],
   [preserve_analyses]) is refused by {!of_line} like any unknown key,
   so an old bundle that carries one no longer parses.  [keys] is the
   one list both directions walk, in line order. *)

type key = {
  name : string;
  render : t -> string;
  parse : t -> string -> (t, string) result;
}

let key name show read get set =
  {
    name;
    render = (fun c -> show (get c));
    parse =
      (fun c v ->
        match read v with
        | Ok x -> Ok (set c x)
        | Error why -> Error (Printf.sprintf "config: bad %s=%s%s" name v why));
  }

let scalar read v = Option.to_result ~none:"" (read v)
let float_key name = key name (Printf.sprintf "%.17g") (scalar float_of_string_opt)
let int_key name = key name string_of_int (scalar int_of_string_opt)
let bool_key name = key name string_of_bool (scalar bool_of_string_opt)

let keys =
  [
    float_key "benefit_scale"
      (fun c -> c.benefit_scale)
      (fun c benefit_scale -> { c with benefit_scale });
    float_key "size_budget"
      (fun c -> c.size_budget)
      (fun c size_budget -> { c with size_budget });
    int_key "max_unit_size"
      (fun c -> c.max_unit_size)
      (fun c max_unit_size -> { c with max_unit_size });
    bool_key "paranoid"
      (fun c -> c.verify_between_phases)
      (fun c verify_between_phases -> { c with verify_between_phases });
    (* The spec is parsed and checked ({!Opt.Spec.of_string}); its
       rendering contains no spaces, so it stays one token of the
       line. *)
    key "passes" Opt.Spec.to_string
      (fun v -> Result.map_error (( ^ ) ": ") (Opt.Spec.of_string v))
      (fun c -> c.passes)
      (fun c passes -> { c with passes });
  ]

let to_line (c : t) =
  String.concat " " (List.map (fun k -> k.name ^ "=" ^ k.render c) keys)

(* A missing key takes the default.  Every other token must be a known
   key, given once, with a value that parses: a bare word, an unknown
   key (say, one a later version removed) or a bad value is refused
   rather than ignored — either way the request would silently get a
   pipeline it did not ask for. *)
let of_line line =
  let step acc token =
    Result.bind acc (fun (c, seen) ->
        match String.index_opt token '=' with
        | None -> Error (Printf.sprintf "config: malformed token %s" token)
        | Some i -> (
            let name = String.sub token 0 i in
            let v = String.sub token (i + 1) (String.length token - i - 1) in
            match List.find_opt (fun k -> k.name = name) keys with
            | None -> Error (Printf.sprintf "config: unknown key %s" name)
            | Some _ when List.mem name seen ->
                Error (Printf.sprintf "config: duplicate key %s" name)
            | Some k -> Result.map (fun c -> (c, name :: seen)) (k.parse c v)))
  in
  String.split_on_char ' ' line
  |> List.filter (fun token -> token <> "")
  |> List.fold_left step (Ok (default, []))
  |> Result.map fst
