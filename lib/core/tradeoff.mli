(** The trade-off tier (paper §4.2 and §5.4): rank candidates by expected
    payoff and accept them against the cost model

    {v (b × p × BS) > c  ∧  (cs < MS)  ∧  (cs + c < is × IB) v}

    where [b] is estimated cycles saved, [p] the predecessor's relative
    frequency, [c] the estimated code-size increase, [cs] the current
    unit size, [is] the initial unit size, [BS] the benefit scale (256),
    [IB] the code-size increase budget (1.5) and [MS] the VM's maximum
    unit size.  The dupalot configuration accepts any positive benefit
    and only respects the hard VM limit. *)

type budget = {
  initial_size : int;
  mutable current_size : int;
}

(** Budget seeded from the graph's current cost-model size. *)
val budget_for : Ir.Graph.t -> budget

(** The paper's [shouldDuplicate] predicate (the [dbds] tier's). *)
val should_duplicate : Config.t -> budget -> Candidate.t -> bool

(** The dupalot predicate: any positive benefit, while the unit is under
    the VM's hard limit (MS).  Ignores BS and IB. *)
val dupalot_should_duplicate : Config.t -> budget -> Candidate.t -> bool

(** Record an accepted duplication against the budget. *)
val commit : budget -> Candidate.t -> unit

(** Sort candidates by expected payoff: scaled benefit descending, then
    smaller cost first (paper: "optimize the most likely and most
    beneficial ones first"). *)
val rank : Candidate.t list -> Candidate.t list
