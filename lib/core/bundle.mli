(** Replayable crash bundles: the pre-attempt IR, configuration and
    fault plan of one contained per-function failure, serialized to a
    small text file.  {!Driver.replay_bundle} re-executes one;
    [dbdsc --replay-bundle FILE] is the CLI entry. *)

type t = {
  b_fn : string;  (** crashed function *)
  b_site : string;  (** crash site (or ["exception"]) *)
  b_exn : string;  (** rendered exception *)
  b_plan : Faults.plan option;
  b_config : Config.t;
  b_ir : string;  (** pre-attempt IR, {!Ir.Printer} format *)
}

exception Malformed of string

(** Serialize to the v1 text format. *)
val render : t -> string

(** Parse the v1 text format.
    @raise Malformed on anything else. *)
val parse : string -> t

(** Atomically publish [text] as [dir/name] (creating [dir] if
    missing); returns the path.  Temp file + rename in the same
    directory, so readers never observe a truncation.  Shared by crash
    bundles and the simulator's schedule bundles. *)
val write_text : dir:string -> name:string -> string -> string

(** Write the bundle into [dir] (created if missing); returns the path.
    Deterministic file name per (function, site); the write is atomic
    ({!write_text}). *)
val write : dir:string -> t -> string

(** Read and parse a bundle file.
    @raise Malformed on anything that is not a v1 bundle. *)
val read : string -> t
