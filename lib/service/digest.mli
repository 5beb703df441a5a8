(** Content addressing for compilation requests.

    The DBDS pipeline is deterministic: the same function IR under the
    same configuration (pipeline spec included) and cost model always
    produces the same optimized IR.  That makes compilation results
    cacheable — if two requests hash equal here, one artifact serves
    both.

    The hash is computed over the {e canonical} form of each component,
    so semantically identical requests collide:

    - IR is hashed by {!ir_hash_of_graph}, a single streaming traversal
      that renumbers blocks by reverse-postorder position and values by
      first appearance — the same normalization the print → parse →
      print round-trip performs ({!Ir.Parse} remaps textual ids to
      fresh dense ids in order of appearance and {!Ir.Printer} emits
      reachable blocks in reverse postorder), without materializing any
      text: any renumbering of blocks or instructions washes out.
    - The configuration is {!Dbds.Config.to_line} — only knobs that
      shape the produced IR, in a fixed key order, the pipeline spec
      canonically rendered among them, so [--mode dbds] and the
      equivalent explicit [--passes] collide.
    - {!Costmodel.Cost.revision} — artifacts produced under one cost
      table are never reused under another. *)

(** One hashable compilation request. *)
type request = {
  rq_fn : string;  (** function name *)
  rq_ir_hash : string;  (** canonical IR hash ({!ir_hash_of_graph}) *)
  rq_context : string;
      (** program context the pipeline can observe beyond the function's
          own IR — class layouts and globals ({!context_of_program}).
          Empty for a request that names none, so artifacts produced
          with program context never collide with ones produced
          without. *)
  rq_config : string;  (** {!Dbds.Config.to_line} rendering *)
  rq_cost_revision : int;  (** {!Costmodel.Cost.revision} *)
}

(** 64-bit FNV-1a over a string, rendered as 16 lowercase hex digits.
    Also used by {!Store} for artifact checksums. *)
val fnv64 : string -> string

(** Canonical IR text of a graph: what print → parse → print gives,
    written in one pass ({!Ir.Printer.canonical_to_string}).
    @raise Invalid_argument on a graph the parser would reject. *)
val canonical_of_graph : Ir.Graph.t -> string

(** Canonical IR text of printed IR: parse, then {!canonical_of_graph}.
    @raise Ir.Parse.Parse_error on malformed input. *)
val canonical_of_text : string -> string

(** Canonical IR hash of a graph: a single traversal feeding FNV-1a —
    equal for any two graphs that differ only by block/value id
    numbering (blocks keyed by reverse-postorder position, values by
    first appearance), and stable across the print → parse round-trip
    (branch probabilities are hashed at the printer's precision).  The
    cache-lookup hot path: no IR text is materialized. *)
val ir_hash_of_graph : Ir.Graph.t -> string

(** As {!ir_hash_of_graph}, from printed IR.
    @raise Ir.Parse.Parse_error on malformed input. *)
val ir_hash_of_text : string -> string

(** Canonical rendering of the program facts a per-function pipeline can
    observe beyond its own graph: class layouts (field order matters —
    scalar replacement reads it) and globals, in sorted order.  [""] for
    a program with neither. *)
val context_of_program : Ir.Program.t -> string

(** The facts a context names, [(classes, globals)] — what
    {!Ir.Program.of_graph} takes to rebuild them, so that
    [context_of_program] of the rebuilt program is the context in
    canonical order.  A compile request's [context] field is outside
    input: [Error] names the first bad line (a class line without [:],
    a repeated class or globals line, an empty class, field or global
    name, any other line). *)
val facts_of_context :
  string -> (Ir.Program.class_decl list * string list, string) result

(** Build the request for one function graph under a configuration.
    [context] defaults to [""] — a lone graph with no program facts;
    [fn] defaults to the graph's own name. *)
val request_of_graph :
  ?context:string -> ?fn:string -> config:Dbds.Config.t -> Ir.Graph.t -> request

(** As {!request_of_graph}, from printed IR (the wire form).
    @raise Ir.Parse.Parse_error on malformed input. *)
val request_of_text :
  ?context:string -> config:Dbds.Config.t -> fn:string -> string -> request

(** The content digest: hash of the framed canonical request.  Collides
    exactly when function IR (canonically), config line (pipeline spec
    included) and cost-model revision all agree. *)
val of_request : request -> string
