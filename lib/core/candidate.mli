(** A duplication candidate: the outcome of simulating the duplication of
    one merge block into one of its predecessors (one "Sim Result" box of
    the paper's Figure 2). *)

type opportunity =
  | Constant_fold
  | Strength_reduce
  | Copy_propagation
  | Value_numbering
  | Read_elimination
  | Conditional_elimination
  | Escape_analysis

(** Number of distinct opportunity kinds. *)
val n_opportunities : int

(** Dense tag in [0, n_opportunities): index for flag arrays. *)
val opportunity_index : opportunity -> int

type t = {
  merge : Ir.Types.block_id;
  pred : Ir.Types.block_id;
  path : Ir.Types.block_id list;
      (** merges beyond [merge] along a straight path (paper §8's
          future-work extension); [] for ordinary tail duplication.
          Applying the candidate duplicates [merge] into [pred], then
          each path merge into the previous duplicate. *)
  benefit : float;  (** estimated cycles saved (unscaled) *)
  probability : float;
      (** the predecessor's execution frequency relative to the hottest
          block of the compilation unit (paper §5.4 factor p) *)
  size_delta : int;  (** estimated code-size increase, abstract bytes *)
  opportunities : opportunity list;
}

(** The sort key of the trade-off tier: expected cycles saved per unit of
    execution, i.e. benefit scaled by relative frequency. *)
val scaled_benefit : t -> float

val pp : Format.formatter -> t -> unit
