(** A classify-once, compile-once, query-many session.

    Classification (in particular the tripath search) is orders of magnitude
    more expensive than solving one instance, and it depends only on the
    query. A session classifies up front and then serves certainty checks,
    estimates and explanations against an evolving database, caching the
    answer per database state. Sessions are immutable values: updates return
    new sessions sharing the classification.

    Each session state also caches its {e compiled execution plane}
    ({!Relational.Compiled.t}) and the solution graph built on it, lazily:
    the first operation that needs them pays the compilation, every later
    one — [certain], [estimate], [certificate], [falsifying_repair] —
    reuses them. Updating the database keeps the classification, patches a
    compiled plane in place of recompiling it, and drops the graph, which
    the next operation that needs it rebuilds on the patched plane. *)

type t

(** [create ?opts ?check_plane q db] classifies [q] and attaches the initial
    database. [check_plane] is the chain's plane gate
    ({!Solver.apply_plane_gate}): it validates every compiled plane the
    session builds — including the planes patched by {!update},
    {!add_fact} and {!remove_fact} — and a rejection surfaces as
    [Invalid_argument] from whichever operation first forces the plane.
    @raise Invalid_argument if facts of [db] do not fit the query schema. *)
val create :
  ?opts:Tripath_search.options ->
  ?check_plane:(Relational.Compiled.t -> (unit, string) result) ->
  Qlang.Query.t ->
  Relational.Database.t ->
  t

val query : t -> Qlang.Query.t
val report : t -> Dichotomy.report
val database : t -> Relational.Database.t

(** [compiled s] is the session's cached compiled execution plane (built on
    first use, shared by every solver the session runs). *)
val compiled : t -> Relational.Compiled.t

(** [update s d] applies a fact delta: the classification is always reused,
    the cached answer memo is invalidated, and — when the session's plane
    was already compiled — the plane is {e patched} with
    {!Relational.Compiled.apply_delta} instead of recompiled, and the
    solution graph is rebuilt lazily on it
    ({!Qlang.Solution_graph.of_query_compiled}). [check_plane] gates the
    patched plane like any fresh compile; a rejection surfaces as
    [Invalid_argument] on first force.
    @raise Invalid_argument if an inserted fact names an undeclared relation
    or has the wrong arity. *)
val update : t -> Relational.Delta.t -> t

(** [add_fact s f] / [remove_fact s f] are single-op {!update}s. *)
val add_fact : t -> Relational.Fact.t -> t

val remove_fact : t -> Relational.Fact.t -> t

(** [certain ?k s] answers CERTAIN with the algorithm the verdict
    designates ({!Solver.certain_graph} on the cached plane and graph),
    memoized per session state. *)
val certain : ?k:int -> t -> bool * Solver.algorithm

(** [estimate s rng ~trials] is the Monte-Carlo repair-sampling estimate,
    sampling on the session's cached solution graph
    ({!Cqa.Montecarlo.estimate_g}); seeded runs agree with the
    persistent-plane estimator. *)
val estimate : t -> Random.State.t -> trials:int -> Cqa.Montecarlo.estimate

(** [certificate ?k s] is the [Cert_k] derivation certificate, when [Cert_k]
    can prove certainty of the current state (PTIME verdicts only; [None]
    otherwise or when [Cert_k] answers no). *)
val certificate :
  ?k:int -> t -> (Qlang.Solution_graph.t * Cqa.Certk.certificate) option

(** [falsifying_repair s] is a repair falsifying the query, if any: the
    SAT tier's checked repair ({!Cqa.Satreduce.falsifying_repair}), one fact
    per block in block order; exponential in the worst case. *)
val falsifying_repair : t -> Relational.Fact.t list option
