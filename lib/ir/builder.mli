(** Convenience layer for constructing graphs directly (tests, examples,
    and the paper's figure programs).  Keeps a current insertion block and
    offers one function per instruction kind. *)

open Types

type t

(** A fresh graph with its entry block as the insertion point. *)
val create : ?name:string -> n_params:int -> unit -> t

val graph : t -> Graph.t

val entry : t -> block_id

(** Create a fresh (empty, unconnected) block. *)
val new_block : t -> block_id

(** Move the insertion point. *)
val switch : t -> block_id -> unit

val const : t -> int -> instr_id
val param : t -> int -> instr_id
val binop : t -> binop -> value -> value -> instr_id
val cmp : t -> cmpop -> value -> value -> instr_id
val gstore : t -> string -> value -> instr_id

(** Add a phi to a block.  The block must already have all its
    predecessors; inputs align with the predecessor order.
    @raise Invalid_argument on an arity mismatch. *)
val phi : t -> block_id -> value list -> instr_id

val jump : t -> block_id -> unit
val branch : ?prob:float -> t -> value -> if_true:block_id -> if_false:block_id -> unit
val ret : t -> value -> unit

(** Verify and return the graph.
    @raise Verifier.Invalid when the construction is ill-formed. *)
val finish : t -> Graph.t
