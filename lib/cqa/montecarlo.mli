(** Monte-Carlo estimation of the fraction of repairs satisfying a query.

    CERTAIN(q) asks whether {e all} repairs satisfy [q]; in data-quality
    practice one often also wants to know {e how close} to certain an answer
    is. Sampling repairs uniformly (one independent uniform choice per
    block) gives an unbiased estimator of
    [Pr_{r ~ U(repairs)} (r ⊨ q)], and a cheap one-sided certainty test:
    any sampled falsifying repair disproves certainty.

    {!estimate_g} is the one sampler served code runs: the degradation
    chain's fallback, the daemon's admission downgrade and [cqa estimate]
    (the REPL's [estimate] too). {!estimate} is the reference it is held to. *)

type estimate = {
  trials : int;
  satisfying : int;  (** Samples whose repair satisfied the query. *)
  frequency : float;  (** [satisfying / trials]. *)
  counterexample : Relational.Repair.t option;
      (** A sampled falsifying repair, if one was drawn. *)
}

(** [estimate rng ~trials q db] samples [trials] repairs of the database
    itself, one {!Relational.Repair.sample} each.
    @raise Invalid_argument when [trials < 1] — a zero-trial estimate would
    read as "certain" (frequency 1.0) with no evidence at all. *)
val estimate :
  Random.State.t ->
  trials:int ->
  Qlang.Query.t ->
  Relational.Database.t ->
  estimate

(** [estimate_g rng ~trials g] is {!estimate} on a solution graph (the
    compiled execution plane's view of the instance): sampling walks the
    graph's block partition and satisfaction is read off the self-loop and
    adjacency structure. The RNG consumption is identical to {!estimate} —
    one uniform choice per block in block order — so a seeded estimate
    agrees with the persistent-plane one, counterexample included. When
    [budget] is given, one tick (site ["montecarlo"]) is spent per sample;
    the degradation chain's fallback ([Core.Solver.solve]) passes none: by
    then the shared budget is exhausted, and the estimate is the last
    resort. *)
val estimate_g :
  ?budget:Harness.Budget.t ->
  Random.State.t ->
  trials:int ->
  Qlang.Solution_graph.t ->
  estimate
