(** Graphviz export of a function graph: one record-shaped node per basic
    block (entry in bold), control-flow edges with true/false branch
    probabilities.  Inspect with
    [dbdsc file.mj --dot out && dot -Tsvg out.main.dot]. *)

val to_string : Graph.t -> string

(** Write one function's graph to a .dot file. *)
val write_file : string -> Graph.t -> unit
