(** Timing one algorithm run under a per-repeat budget.

    Kept deliberately simple — wall-clock medians over a few repeats with a
    fresh {!Harness.Budget.t} per repeat — because the benchmark suite's job
    is trend tracking across commits on identical seeded inputs, not
    microbenchmark-grade statistics (the [bechamel] experiments in
    [bench/main.ml] cover that niche). *)

type outcome = {
  median_ms : float;  (** Median wall-clock over all repeats. *)
  repeats : int;
  verdict : bool option;
      (** The algorithm's answer; [None] when every repeat exhausted its
          budget before answering. *)
  timed_out : bool;  (** At least one repeat exhausted its budget. *)
  steps : int;  (** Largest budget step count over the repeats. *)
  sites : (string * int) list;
      (** Per-site breakdown (hottest first) of the repeat that determined
          [steps], from {!Harness.Budget.steps_by_site} — which loop the
          benchmarked algorithm actually spent its budget in. *)
}

(** [sample ?budget_s ~repeats f] times [f] (given a fresh budget with
    wall-clock allowance [budget_s] seconds, unlimited if absent) [repeats]
    times. [Budget_exceeded] is absorbed into [timed_out]; other
    exceptions propagate.
    @raise Invalid_argument when [repeats < 1]. *)
val sample :
  ?budget_s:float ->
  repeats:int ->
  (Harness.Budget.t -> bool) ->
  outcome

(** [time_ms ~repeats f] is the median wall-clock of [f ()] in milliseconds
    over [repeats] runs, paired with the first run's result. For unbudgeted
    phase timing (e.g. the compile phase of the v3 report), where the
    budget/verdict machinery of {!sample} has nothing to say.
    @raise Invalid_argument when [repeats < 1]. *)
val time_ms : repeats:int -> (unit -> 'a) -> float * 'a
