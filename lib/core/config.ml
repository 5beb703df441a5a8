(** DBDS configuration: the trade-off constants of paper §5.4 and the
    evaluation configurations of §6.1. *)

type mode =
  | Off  (** baseline: classic optimizations only, no duplication *)
  | Dbds  (** full simulate → trade-off → optimize pipeline *)
  | Dupalot
      (** simulation tier finds opportunities; every candidate with any
          benefit is duplicated, ignoring cost (paper's dupalot) *)
  | Backtracking
      (** Algorithm 1: tentatively duplicate, optimize, keep on progress,
          restore otherwise — the expensive strategy DBDS replaces *)
  | Condelim_dup
      (** conditional elimination through duplication (arXiv 1106.3478):
          duplicate every (merge, predecessor) pair where the duplicate's
          branch or a compare would fold, with no trade-off — the greedy
          single-optimization comparator of the workload lab *)

type t = {
  mode : mode;
  benefit_scale : float;  (** BS; the paper derived 256 empirically *)
  size_budget : float;  (** IB; 1.5 = max 150% of the initial code size *)
  max_unit_size : int;  (** MS; the VM's installed-code limit *)
  max_iterations : int;  (** iterative DBDS applications; paper uses 3 *)
  path_duplication : bool;
      (** §8 future-work extension: let the simulation continue through a
          straight chain of merges and apply the whole path as one
          candidate (up to [max_path_length] merges) *)
  max_path_length : int;
  containment : bool;
      (** contain per-function crashes: roll the graph back, record a
          structured failure, keep optimizing the remaining functions *)
  verify_between_phases : bool;
      (** paranoid mode: run the IR verifier after every phase /
          duplication and treat violations as contained crashes *)
  fault_plan : Faults.plan option;
      (** deterministic fault injection (testing); [None] in production *)
  bundle_dir : string option;
      (** write a replayable crash bundle here on every containment *)
  passes : Opt.Spec.t option;
      (** explicit pipeline spec ([dbdsc --passes]); [None] = the
          mode-derived default ({!Driver.default_spec}) *)
}

let default =
  {
    mode = Dbds;
    benefit_scale = 256.0;
    size_budget = 1.5;
    max_unit_size = 65_536;
    max_iterations = 3;
    path_duplication = false;
    max_path_length = 3;
    containment = true;
    verify_between_phases = false;
    fault_plan = None;
    bundle_dir = None;
    passes = None;
  }

let dbds = default
let off = { default with mode = Off }
let dupalot = { default with mode = Dupalot }
let backtracking = { default with mode = Backtracking }
let condelim_dup = { default with mode = Condelim_dup }

(** DBDS with the §8 path extension enabled. *)
let dbds_paths = { default with path_duplication = true }

(** DBDS with paranoid between-phase verification enabled. *)
let paranoid = { default with verify_between_phases = true }

(* Every accepted spelling of a mode; the first one listed for a mode
   is its canonical name. *)
let mode_names =
  [
    ("baseline", Off);
    ("off", Off);
    ("dbds", Dbds);
    ("dupalot", Dupalot);
    ("backtracking", Backtracking);
    ("condelim-dup", Condelim_dup);
    ("condelim_dup", Condelim_dup);
  ]

let mode_to_string m = fst (List.find (fun (_, m') -> m' = m) mode_names)
let mode_of_string s = List.assoc_opt s mode_names

(* ------------------------------------------------------------------ *)
(* Line (de)serialization                                              *)
(* ------------------------------------------------------------------ *)

(* One space-separated key=value line covering every knob that shapes
   the produced IR: the crash-bundle header, the service protocol and
   the artifact-store digest all share it.  Keys without a pipeline
   effect (containment, fault_plan, bundle_dir) are deliberately
   excluded — two configs differing only there must collide in the
   cache.  [passes] was appended later and defaults when absent.  A key
   a later version removed ([iteration_benefit_threshold],
   [loop_factor], [licm], [preserve_analyses]) is refused by {!of_line}
   like any unknown key, so an old bundle that carries one no longer
   parses.  [keys] is the one list both directions walk, in line
   order. *)

type key = {
  name : string;
  render : t -> string option;  (** [None]: left off the line *)
  parse : t -> string -> (t, string) result;
}

let key name show read get set =
  {
    name;
    render = (fun c -> Some (show (get c)));
    parse =
      (fun c v ->
        match read v with
        | Some x -> Ok (set c x)
        | None -> Error (Printf.sprintf "config: bad %s=%s" name v));
  }

let float_key name = key name (Printf.sprintf "%.17g") float_of_string_opt
let int_key name = key name string_of_int int_of_string_opt
let bool_key name = key name string_of_bool bool_of_string_opt

let keys =
  [
    key "mode" mode_to_string mode_of_string
      (fun c -> c.mode)
      (fun c mode -> { c with mode });
    float_key "benefit_scale"
      (fun c -> c.benefit_scale)
      (fun c benefit_scale -> { c with benefit_scale });
    float_key "size_budget"
      (fun c -> c.size_budget)
      (fun c size_budget -> { c with size_budget });
    int_key "max_unit_size"
      (fun c -> c.max_unit_size)
      (fun c max_unit_size -> { c with max_unit_size });
    int_key "max_iterations"
      (fun c -> c.max_iterations)
      (fun c max_iterations -> { c with max_iterations });
    bool_key "path_duplication"
      (fun c -> c.path_duplication)
      (fun c path_duplication -> { c with path_duplication });
    int_key "max_path_length"
      (fun c -> c.max_path_length)
      (fun c max_path_length -> { c with max_path_length });
    bool_key "paranoid"
      (fun c -> c.verify_between_phases)
      (fun c verify_between_phases -> { c with verify_between_phases });
    (* The canonical spec rendering contains no spaces, so it stays one
       token of the line. *)
    {
      name = "passes";
      render = (fun c -> Option.map Opt.Spec.to_string c.passes);
      parse =
        (fun c v ->
          match Opt.Spec.of_string v with
          | Ok spec -> Ok { c with passes = Some spec }
          | Error msg -> Error ("config: passes: " ^ msg));
    };
  ]

let to_line (c : t) =
  String.concat " "
    (List.filter_map
       (fun k -> Option.map (fun v -> k.name ^ "=" ^ v) (k.render c))
       keys)

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
