(** The canonical {!Budget.tick} site names.

    Every solver hot loop ticks its budget under a stable site label; the
    label is what {!Chaos} targeting matches against and what the per-site
    step accounting in {!Budget} (and the metrics registry in [Obs]) keys
    on. All labels live here so that a chaos schedule, a metrics dashboard,
    or an exhaustion diagnostic can never drift out of sync with the
    solvers: adding a tick site means adding its name to this module (and
    to {!all}).

    The loops behind each site:

    - {!tripath} — the bounded tripath search of [Core.Tripath_search]
      (one tick per search node: every spine or arm growth step and every
      complete candidate). A classification runs its fork search and its
      triangle search on one budget of its own, capped at the search's
      [max_candidates] nodes and, in the daemon, at the fast tier's
      deadline; it carries no chaos schedule, and its ticks are not
      recorded in a metrics registry.
    - {!compile} — construction of the compiled execution plane
      ([Relational.Compiled.compile] ticks once per fact) and of the solution
      graph built on it (the keyed join of [Qlang.Pattern.iter_pairs], the
      one solution enumeration, ticks once per row of the first atom's
      relation range). The degradation chain compiles once and shares the
      result across its tiers, so these ticks are charged at most once per
      solve. The join's oracles ([Qlang.Solutions.query_pairs],
      [Qlang.Solution_graph.of_atoms_reference]) run only in tests and
      tick nothing.
    - {!certk} — the delta-driven [Cqa.Certk] worklist (one tick per
      derivation step explored).
    - {!certk_rounds} — the frozen round-driven baseline
      [Cqa.Certk_rounds] (one tick per candidate k-set per round). Before
      this module existed it shared the ["certk"] label, which made the
      baseline invisible to targeted chaos and conflated the two
      algorithms' step counts.
    - {!certk_naive} — the enumerate-everything oracle [Cqa.Certk_naive].
    - {!matching} — [Cqa.Matching_alg] and the Hopcroft–Karp phases it
      drives in [Graphs.Matching].
    - {!dpll} — the SAT tier, [Satsolver.Cdcl]: one tick on entry, one per
      decision and one per conflict (a conflict at level 0 included), so
      every call ticks at least once. The oracle [Satsolver.Dpll], which no
      tier runs, ticks the same site once per search node, unit-propagation
      and pure-literal steps included. The deadline is polled every
      [check_every] ticks (see {!Budget.make}), and a CDCL tick covers all
      the propagation after its decision, so one poll spans more work than
      a DPLL node did.
    - {!brute} — one tick per assignment enumerated by [Satsolver.Brute].
    - {!exact} — one tick per repair node explored by the backtracking
      falsifier search in [Cqa.Exact], a test oracle that no tier runs.
    - {!montecarlo} — one tick per sampled repair in [Cqa.Montecarlo]
      (only when a budget is passed; the degradation chain's estimate
      fallback deliberately runs it unbudgeted).
    - {!serve} — the [cqa serve] daemon's per-request admission point
      ([Serve.Daemon] ticks once per accepted frame before routing it), so
      chaos schedules can fault the service loop itself, not just the
      solvers it drives.

    {!Budget.tick} requires a label. The empty string is a legal one,
    which only tests use; reports print it as [(unnamed)] and the metrics
    registry counts it as [budget.tick.unnamed]. A {!Chaos} schedule may
    target only the names in {!all}. *)

val tripath : string
val compile : string
val certk : string
val certk_rounds : string
val certk_naive : string
val matching : string
val dpll : string
val brute : string
val exact : string
val montecarlo : string
val serve : string

(** All canonical site names, in request order (the serve admission point
    first, then the classification's tripath search, then the shared
    compilation, then PTIME loops, then SAT, then
    exact, then the estimate fallback). *)
val all : string list
