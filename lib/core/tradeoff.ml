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

let budget_for g =
  let s = Costmodel.Estimate.graph_size g in
  { initial_size = s; current_size = s }

(** The paper's [shouldDuplicate] predicate. *)
let should_duplicate (config : Config.t) budget (c : Candidate.t) =
  let cost = float_of_int (max c.Candidate.size_delta 0) in
  Candidate.scaled_benefit c *. config.Config.benefit_scale > cost
  && budget.current_size < config.Config.max_unit_size
  && float_of_int budget.current_size +. cost
     < float_of_int budget.initial_size *. config.Config.size_budget

(** The dupalot predicate: any positive benefit, while the unit is under
    the VM's hard limit (MS). *)
let dupalot_should_duplicate (config : Config.t) budget (c : Candidate.t) =
  c.Candidate.benefit > 0.0 && budget.current_size < config.Config.max_unit_size

(** Record an accepted duplication against the budget. *)
let commit budget (c : Candidate.t) =
  budget.current_size <- budget.current_size + max c.Candidate.size_delta 0

(** Sort candidates by expected payoff: scaled benefit descending, then
    smaller cost first (paper: "optimize the most likely and most
    beneficial ones first"). *)
let rank candidates =
  List.stable_sort
    (fun a b ->
      match
        compare (Candidate.scaled_benefit b) (Candidate.scaled_benefit a)
      with
      | 0 -> compare a.Candidate.size_delta b.Candidate.size_delta
      | n -> n)
    candidates
