(** Certain-answer solver front-end: dispatch a classified query to the
    algorithm the dichotomy designates.

    For PTIME queries the designated polynomial algorithm is used ([Cert_2],
    [Cert_k], or [Cert_k ∨ ¬Matching]); for coNP-complete queries the SAT
    tier decides ({!Cqa.Satreduce}, a CDCL search for a falsifying repair
    that it checks); {!Cqa.Exact} is a test oracle only. For queries
    equivalent to a one-atom query the answer is computed directly: a
    one-atom query [R(C)] is certain iff some block consists entirely of
    facts matching [C].

    One decision list maps a verdict to its tiers (the designated PTIME
    algorithm, if any, then the SAT tier): {!certain} answers once,
    unbudgeted, with its head, and {!solve} / {!solve_plane} run all of it
    as the budgeted degradation chain over a database or a pre-compiled
    plane. The decision procedures in [Cqa] take the solution
    graph; to run one directly, build the graph with
    {!Qlang.Solution_graph.of_query} or
    {!Qlang.Solution_graph.of_query_compiled}. *)

type algorithm =
  | Alg_one_atom  (** Per-block matching test for trivial queries. *)
  | Alg_cert2
  | Alg_certk of int
  | Alg_combined of int
  | Alg_exact_sat  (** The SAT tier, printed ["exact (SAT)"]. *)

val pp_algorithm : Format.formatter -> algorithm -> unit

(** The single graph engine, named only so the end-to-end benchmark's
    replay (bench/e2e/replay.ml), which is frozen with the benchmark, keeps
    compiling. New code calls {!Qlang.Solution_graph.of_query_compiled}. *)
type engine = Engine_plane

(** [build_query_graph ~engine:Engine_plane] is
    {!Qlang.Solution_graph.of_query_compiled}. *)
val build_query_graph :
  engine:engine ->
  ?tick:(unit -> unit) ->
  Qlang.Query.t ->
  Relational.Compiled.t ->
  Qlang.Solution_graph.t

(** [conjunction_atom q] is [σ(A)] for [σ] the most general unifier of
    the two atoms of [q = A ∧ B] ({!Qlang.Unify.atoms}), the one atom
    equivalent to [q] over consistent databases when
    [key-bar(A) = key-bar(B)]: a fact [a] matches [σ(A)] iff some
    assignment [μ] has [μ(A) = a = μ(B)]. [None] when the atoms do not
    unify (two constants in conflict), so no single fact can match. *)
val conjunction_atom : Qlang.Query.t -> Qlang.Atom.t option

(** [certain_one_atom atom plane] decides certainty of the one-atom query
    [∃* atom] on a compiled execution plane: some block has all its facts
    matching [atom]. The block scan runs over the plane's int-tuple block
    partition with a compiled {!Qlang.Pattern}. *)
val certain_one_atom : Qlang.Atom.t -> Relational.Compiled.t -> bool

(** [min_k] (2) is the least Cert_k parameter [cqa certain -k] and
    [Serve.Daemon.create] accept: Cert_1 holds no two-fact solution, so its
    "not certain" can be wrong. *)
val min_k : int

(** [certain ?k report db] answers CERTAIN for the classified query on [db],
    returning the algorithm used: the PTIME algorithm the verdict
    designates, or the SAT tier for a coNP-complete verdict. [k] bounds the
    fixpoint parameter of [Cert_k] (default 3; the paper's bound
    {!Cqa.Certk.paper_k} is astronomically larger but never needed on
    practical instances — see EXPERIMENTS.md). Unbudgeted: use {!solve}
    for budgets and graceful degradation. The solution graph is built only
    when the designated algorithm needs it (trivial queries never build
    it). *)
val certain : ?k:int -> Dichotomy.report -> Relational.Database.t -> bool * algorithm

(** [certain_graph report ~plane ~graph] is {!certain} over a plane and a
    solution graph that arrive as lazy values ({!Answers.evaluate} shares
    one plane across its candidate tuples); only what the designated
    algorithm needs is forced. *)
val certain_graph :
  ?k:int ->
  Dichotomy.report ->
  plane:Relational.Compiled.t Lazy.t ->
  graph:Qlang.Solution_graph.t Lazy.t ->
  bool * algorithm

(** {2 Budgeted degradation chain}

    {!solve} replaces the bare boolean answer with a structured
    {!type:outcome} and runs a chain of solver tiers under a shared
    {!Harness.Budget.t}: the classifier-designated PTIME algorithm first
    (when the query is tractable), then the SAT reduction, and finally —
    when enabled — a seeded Monte Carlo estimate returned as an
    explicitly-labelled degraded answer. A tier that fails (an injected
    chaos fault, a refused instance, a repair that fails its check) falls
    through to the next tier; a failed SAT tier ends in the estimate, or in
    [Solver_error] without one. Budget exhaustion stops the chain, because
    the budget is shared and any later tier would hit the same wall. *)

type outcome = (bool * algorithm, Cqa.Montecarlo.estimate) Harness.Outcome.t

(** The decision tiers of the chain, in degradation order. *)
type tier = Tier_ptime | Tier_sat

val pp_tier : Format.formatter -> tier -> unit

type attempt_status =
  | Attempt_decided of bool
  | Attempt_failed of string  (** Injected fault or refused instance. *)
  | Attempt_out_of_budget of Harness.Budget.exhaustion

(** One entry of the chain's execution trace: what the tier did, plus what
    it cost — budget steps burned by this tier alone, their per-site
    breakdown (hottest first, from {!Harness.Budget.steps_by_site}), and
    elapsed seconds on {!Harness.Clock.now}. On [Attempt_out_of_budget], [sites] answers {e
    which} loop ate the budget; {!pp_attempt} prints the hottest one. *)
type attempt = {
  tier : tier;
  algorithm : algorithm;
  status : attempt_status;
  steps : int;  (** Budget ticks burned by this attempt (0 without a budget). *)
  sites : (string * int) list;  (** Per-site breakdown of [steps]. *)
  wall_s : float;  (** Duration of the attempt in seconds. *)
}

val pp_attempt : Format.formatter -> attempt -> unit

(** Stable machine-readable labels, used as trace attributes and metric
    name components: ["decided-true"], ["decided-false"], ["failed"],
    ["out-of-budget-steps"], ["out-of-budget-deadline"]. *)
val status_label : attempt_status -> string

(** ["decided-true"], ["estimated"], ["timeout"], ["budget-exhausted"],
    ["solver-error"], ... — the outcome's stable label. *)
val outcome_label : outcome -> string

(** [run_tiers tiers] is the chain engine, exposed for tests: run the given
    [(tier, algorithm, decide)] triples in order, first completed decision
    wins. With [verify] every tier runs and any two decisions must agree —
    a disagreement yields [Solver_error] with a per-tier diagnostic. When no
    tier decides, [fallback] (if given) produces the degraded [Estimated]
    answer; otherwise the outcome reports the budget exhaustion ([Timeout] /
    [Budget_exhausted]) or [Solver_error].

    [budget] is observed (never ticked) to attribute per-tier step and site
    deltas to the attempts — pass the same budget the tiers close over.
    [trace] records one [tier] span per attempt (attrs: [tier],
    [algorithm], [status], [reason] on failure, [steps], [steps.<site>])
    and an [estimate] span when the fallback runs. *)
val run_tiers :
  ?verify:bool ->
  ?fallback:(unit -> Cqa.Montecarlo.estimate) ->
  ?budget:Harness.Budget.t ->
  ?trace:Obs.Trace.t ->
  (tier * algorithm * (unit -> bool)) list ->
  outcome * attempt list

(** [solve report db] runs the degradation chain for a classified query.
    [estimate_trials] enables the Monte Carlo fallback tier with that many
    sampled repairs (seeded by [seed], default 0). [verify] additionally
    runs every tier and checks cross-solver agreement. [exact_only] skips
    the PTIME tier even when the classifier designates one, forcing the SAT
    tier to decide. Never raises on budget exhaustion or injected
    faults — these come back as structured outcomes together with the trace
    of attempted tiers.

    [check_certificate] is the {e certificate gate}: before the PTIME tier
    runs the algorithm the classification designated, the injected checker
    re-validates the report's certificate; on rejection the PTIME tier is
    recorded as failed ([Attempt_failed]) and the chain degrades to the SAT
    tier, which does not trust the classification. The checker is a
    closure (rather than a library dependency) so that [core] stays
    independent of the [analysis] audit kernel — the CLI's
    [--verify-certificate] passes [Analysis.Check.audit_report].

    [check_plane] is the {e plane gate}, the same pattern one layer down:
    the injected checker validates the compiled execution plane right after
    it is built and before any tier consumes it; on rejection every
    plane-consuming tier fails ([Attempt_failed] carrying the checker's
    message) and the run ends in [Solver_error] — the estimate fallback
    included: a corrupt plane must never produce a verdict or an estimate.
    The CLI passes [Analysis.Sanitize.gate] unless [--no-sanitize] is
    given.

    The chain compiles the database {e once}: the compiled execution plane
    and the solution graph built on it are shared by every tier, created on
    first demand inside the first tier that needs them. Compilation ticks
    [budget] at site {!Harness.Sites.compile} (one tick per fact for the
    plane, one per candidate row for the graph), so compile cost shows up
    in the attempts' per-site breakdown, and — when traced — as nested
    [compile] spans (attrs [phase=plane] / [phase=graph]). Memoization is
    success-only: a transient injected fault during compilation fails only
    the current tier, and the next tier retries the build. The Monte-Carlo
    fallback samples that graph ({!Cqa.Montecarlo.estimate_g}); when no
    tier built it, the fallback builds it without ticking, since the budget
    is spent by then.

    [trace] makes the run explain itself: a root [solve] span (attrs:
    [query], [verdict], [outcome], [total_steps]) wrapping the per-tier
    spans of {!run_tiers} — the machine-readable record of which tier ran,
    why it fell back, how long it took, and where its steps went. Serialize
    it with [Analysis.Obs_codec]. *)
val solve :
  ?k:int ->
  ?exact_only:bool ->
  ?check_certificate:(Dichotomy.report -> (unit, string list) result) ->
  ?check_plane:(Relational.Compiled.t -> (unit, string) result) ->
  ?budget:Harness.Budget.t ->
  ?verify:bool ->
  ?estimate_trials:int ->
  ?seed:int ->
  ?trace:Obs.Trace.t ->
  Dichotomy.report ->
  Relational.Database.t ->
  outcome * attempt list

(** [solve_plane report plane] is {!solve} atop a {e pre-compiled} execution
    plane: the plane is taken as-is (its compilation and its gate were paid
    by whoever built it — typically a serve-side plane cache, which
    sanitizes on insert), and only the solution graph is built here.
    Everything else — the tiers, the graph's [compile] span and ticks, the
    estimate fallback — is {!solve}'s one chain, so both entry points return
    the same outcome and the same attempts on the same instance. The
    certificate gate, the plane gate, [exact_only] and [verify] are
    {!solve}'s alone. *)
val solve_plane :
  ?k:int ->
  ?budget:Harness.Budget.t ->
  ?estimate_trials:int ->
  ?seed:int ->
  ?trace:Obs.Trace.t ->
  Dichotomy.report ->
  Relational.Compiled.t ->
  outcome * attempt list

(** [record_metrics m outcome attempts] meters one finished chain into [m]:
    a [solver.attempt.<tier>.<status>] counter per attempt, per-tier
    [solver.tier.<tier>.ms] / [solver.tier.<tier>.steps] histograms, and a
    [solver.outcome.<label>] counter. Both front-ends — [cqa certain
    --metrics] and the serve daemon's registry — record through this one
    bridge, so their names and bucket shapes agree. *)
val record_metrics : Obs.Metrics.t -> outcome -> attempt list -> unit

(** [record_journal j ~budget outcome attempts] journals one finished
    chain into [j]: a [tier.fallback] event (tier, algorithm, status,
    steps) per attempt that did not decide, then, when [outcome] is
    [Timeout] or [Budget_exhausted], one [budget.exhausted] event carrying
    [budget]'s steps and its hottest site ({!Harness.Budget.hottest_site}).
    [budget] is the whole request's — the ticks before the chain (the
    daemon's serve tick, a plane compile) included — so the event agrees
    with the [steps] and [steps.<site>] fields of the front end's own
    [request.completed]. Both front ends journal through this one
    function. *)
val record_journal :
  Obs.Journal.t -> budget:Harness.Budget.t -> outcome -> attempt list -> unit

(** [record_completion j ~op ~code ~ms fields budget] journals one
    [request.completed] event: [op], the response [code] name and the
    latency [ms], then [fields] (the daemon's [tier] and [cache]), then,
    when a budget metered the request, its [steps] and one [steps.<site>]
    per tick site, so [steps] is their sum. [cqa certain --journal] and
    the serve daemon both write the event through this one function, so
    [cqa obs report] reads their completions alike. *)
val record_completion :
  Obs.Journal.t ->
  op:string ->
  code:string ->
  ms:float ->
  (string * Obs.Trace.value) list ->
  Harness.Budget.t option ->
  unit
