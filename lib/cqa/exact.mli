(** Exact CERTAIN oracles (exponential-time baselines).

    [q] is {e not} certain for [D] iff some repair of [D] falsifies [q], iff
    one can pick one fact per block of the solution graph such that the picks
    form an independent set (no edge, no self-loop). {!falsifying_repair}
    searches for such a pick by backtracking with forward pruning and a
    fewest-candidates-first block order; {!certain_enum} enumerates repairs
    outright. No served path calls this module ({!Satreduce} is the coNP
    tier): it is the oracle the tests and the end-to-end benchmark's
    verdict check hold every solver to. *)

(** [falsifying_repair g] returns one vertex per block forming an independent
    set of [g], if any (i.e. a repair falsifying the query). Budget ticks
    (site ["exact"]) are spent per search node and candidate.
    @raise Harness.Budget.Budget_exceeded when [budget] runs out. *)
val falsifying_repair :
  ?budget:Harness.Budget.t -> Qlang.Solution_graph.t -> int list option

(** [certain g] decides CERTAIN on the solution graph: no falsifying repair.
    Same budget contract as {!falsifying_repair}. *)
val certain : ?budget:Harness.Budget.t -> Qlang.Solution_graph.t -> bool

(** [certain_query q db] builds the solution graph and runs {!certain}: the
    Database-level oracle the tests hold the other solvers to. *)
val certain_query :
  ?budget:Harness.Budget.t -> Qlang.Query.t -> Relational.Database.t -> bool

(** [certain_sjf s db] decides CERTAIN(sjf(q)) over a two-relation database. *)
val certain_sjf :
  ?budget:Harness.Budget.t -> Qlang.Sjf.t -> Relational.Database.t -> bool

(** [certain_enum q db] decides CERTAIN by enumerating every repair (one
    budget tick per repair).
    @raise Invalid_argument if [db] has more than [2^20] repairs. *)
val certain_enum :
  ?budget:Harness.Budget.t -> Qlang.Query.t -> Relational.Database.t -> bool
