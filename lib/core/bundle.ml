(** Replayable crash bundles.

    When the driver contains a per-function failure it can dump
    everything needed to re-execute the attempt into a small text file:
    the pre-attempt IR (the graph as it stood when the per-function
    pipeline started — i.e. after the containment rollback), the
    configuration knobs that shape the pipeline, and the fault plan (if
    the crash was injected).  [dbdsc --replay-bundle FILE] re-runs the
    bundle and reports whether the failure reproduces.

    Format (version 1) — a line-oriented header followed by the printed
    graph:
    {v
    dbds-bundle: v1
    function: <name>
    site: <crash site>
    exception: <Printexc.to_string>
    plan: <site:hit[:fn] | none>
    config: benefit_scale=<f> ... paranoid=<bool> passes=<spec>
    --- ir ---
    fn <name>(<n> params) entry=bK
    ...
    v}

    The [config:] line is {!Config.to_line}.  A bundle whose line carries
    a key a later version removed ([mode], [max_iterations],
    [path_duplication], [max_path_length], [licm], [loop_factor],
    [iteration_benefit_threshold]) is refused by {!Config.of_line}.

    Bundles written by the retired tiered VM could carry a
    [--- profile ---] section between the header and the IR: the branch
    profile the compile ran under.  Nothing can replay those
    probabilities any more, so the reader refuses such a bundle rather
    than replay it under the IR's static ones. *)

type t = {
  b_fn : string;  (** crashed function *)
  b_site : string;  (** crash site (or ["exception"]) *)
  b_exn : string;  (** rendered exception *)
  b_plan : Faults.plan option;
  b_config : Config.t;
  b_ir : string;  (** pre-attempt IR, {!Ir.Printer} format *)
}

exception Malformed of string

let ir_marker = "--- ir ---"
let profile_marker = "--- profile ---"

(* Config (de)serialization lives in {!Config.to_line} / {!Config.of_line}
   now — the service protocol and artifact store share the format. *)

(* ------------------------------------------------------------------ *)
(* Write / read                                                        *)
(* ------------------------------------------------------------------ *)

let render b =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "dbds-bundle: v1";
  line "function: %s" b.b_fn;
  line "site: %s" b.b_site;
  line "exception: %s" (String.map (function '\n' -> ' ' | c -> c) b.b_exn);
  line "plan: %s"
    (match b.b_plan with Some p -> Faults.to_string p | None -> "none");
  line "config: %s" (Config.to_line b.b_config);
  line "%s" ir_marker;
  Buffer.add_string buf b.b_ir;
  Buffer.contents buf

(* Function names come from the frontend (identifiers), but sanitize
   anyway: the file name must never escape the bundle directory. *)
let sanitize fn =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' -> c
      | _ -> '_')
    fn

(** Atomically publish [text] as [dir/name] (creating [dir] if
    missing); returns the path.  Temp file + rename in the same
    directory: readers see the previous complete file or the new one,
    never a truncation.  Shared by crash bundles and the simulator's
    schedule bundles. *)
let write_text ~dir ~name text =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir name in
  let tmp = path ^ ".tmp" in
  let committed = ref false in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () ->
      close_out_noerr oc;
      if not !committed then try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      output_string oc text;
      close_out oc;
      Sys.rename tmp path;
      committed := true);
  path

(** Write the bundle into [dir] (created if missing); returns the path.
    Deterministic file name per (function, site), so repeated runs
    overwrite rather than accumulate; the write itself is
    {!write_text}-atomic, so a run interrupted mid-write can never
    leave a truncated bundle for [--replay-bundle] to choke on. *)
let write ~dir b =
  let name =
    Printf.sprintf "dbds-crash-%s-%s.bundle" (sanitize b.b_fn)
      (sanitize b.b_site)
  in
  write_text ~dir ~name (render b)

let parse text =
  match String.split_on_char '\n' text with
  | magic :: _ when magic <> "dbds-bundle: v1" ->
      raise (Malformed "not a dbds-bundle v1 file")
  | _ :: rest ->
      let header = Hashtbl.create 8 in
      let rec split_header = function
        | [] -> raise (Malformed "missing IR section")
        | l :: rest when l = ir_marker -> rest
        | l :: _ when l = profile_marker ->
            raise
              (Malformed
                 "profile section: bundles of the retired tiered VM cannot \
                  replay")
        | l :: rest ->
            (match String.index_opt l ':' with
            | Some i ->
                let k = String.sub l 0 i in
                let v =
                  String.trim (String.sub l (i + 1) (String.length l - i - 1))
                in
                Hashtbl.replace header k v
            | None -> ());
            split_header rest
      in
      let ir_lines = split_header rest in
      let get k =
        match Hashtbl.find_opt header k with
        | Some v -> v
        | None -> raise (Malformed (Printf.sprintf "missing %S field" k))
      in
      let plan =
        match get "plan" with
        | "none" -> None
        | s -> (
            match Faults.of_string s with
            | Ok p -> Some p
            | Error e -> raise (Malformed e))
      in
      {
        b_fn = get "function";
        b_site = get "site";
        b_exn = get "exception";
        b_plan = plan;
        b_config =
          (match Config.of_line (get "config") with
          | Ok c -> c
          | Error e -> raise (Malformed e));
        b_ir = String.concat "\n" ir_lines;
      }
  | [] -> raise (Malformed "empty bundle")

(** Read and parse a bundle file.
    @raise Malformed on anything that is not a v1 bundle. *)
let read path =
  let ic = open_in_bin path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  parse text
