(** Textual dump of IR graphs, for the CLI driver, tests and debugging,
    and the wire form of the compile service.  {!Parse} reads it back. *)

(** Whole graph: a [fn] header, then the reachable blocks in reverse
    postorder (each with its predecessors, instructions and terminator),
    then any detached ones, flagged [; unreachable:]. *)
val graph_to_string : Graph.t -> string

(** What [graph_to_string (Parse.parse_graph (graph_to_string g))]
    prints, in one pass over [g]: blocks numbered by print position,
    values by definition order, each block's predecessors ascending by
    canonical number and each listed once, phi inputs permuted to
    match, a block's phis ahead of its other instructions, and a branch
    whose two targets are one block printed as a jump.
    @raise Invalid_argument on a graph the parser would reject: an
    operand or terminator naming a value no block holds, a branch or
    jump to a dead block, a phi whose input count differs from its
    block's predecessor count, or no entry block. *)
val canonical_to_string : Graph.t -> string

(** A branch probability as the printer writes it: exactly
    [Printf.sprintf "%.2f" p]. *)
val prob_to_string : float -> string

(** One instruction's right-hand side, as [graph_to_string] writes it. *)
val pp_kind : Format.formatter -> Types.instr_kind -> unit

(** One terminator, as [graph_to_string] writes it. *)
val pp_term : Format.formatter -> Types.terminator -> unit
