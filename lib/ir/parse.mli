(** Parser for the textual IR format produced by {!Printer} — the
    round-trip partner of {!Printer.graph_to_string}.  Lets tests and
    tools author IR fixtures directly, guards the printer against
    ambiguity, and reads the compile service's wire form.

    Instruction and block {e numbering} need not be dense: textual ids are
    remapped to fresh arena ids (so a round-trip preserves structure and
    semantics, not literal ids). *)

exception Parse_error of string

(** Parse a graph printed by {!Printer.graph_to_string}.
    @raise Parse_error on malformed input. *)
val parse_graph : string -> Graph.t
