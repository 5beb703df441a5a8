(** Textual dump of IR graphs, for the CLI driver, tests and debugging,
    and the wire form of the compile service.  {!Parse} reads it back. *)

(** Whole graph: a [fn] header, then the reachable blocks in reverse
    postorder (each with its predecessors, instructions and terminator),
    then any detached ones, flagged [; unreachable:]. *)
val graph_to_string : Graph.t -> string

(** One instruction's right-hand side, as [graph_to_string] writes it. *)
val pp_kind : Format.formatter -> Types.instr_kind -> unit

(** One terminator, as [graph_to_string] writes it. *)
val pp_term : Format.formatter -> Types.terminator -> unit
