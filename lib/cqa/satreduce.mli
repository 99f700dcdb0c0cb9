(** SAT-based CERTAIN solver — the paper's coNP upper bound made executable.

    [q] is not certain for [D] iff a falsifying repair exists, which is
    encoded as satisfiability of a CNF over one Boolean variable per fact:
    at least one fact per block is chosen, no chosen fact has a self-loop
    solution, and no two chosen facts form a solution. A model then always
    contains a falsifying repair (choose any one marked fact per block), and
    conversely every falsifying repair is a model. This mirrors the approach
    of SAT-based CQA systems such as CAvSAT.

    The encoding is enumerated straight from the solution graph into
    {!Satsolver.Cdcl} (one at-least-one clause per block, one unit per
    self-loop, one binary clause per edge); no CNF value is built on the
    served path. The same enumeration backs {!encode}, the {!Satsolver.Cnf}
    view that the [Dpll] oracle and the tests read. *)

(** [encode g] builds the CNF whose models are the solution-free block
    selections of the solution graph. Fact [i] is variable [i + 1]. *)
val encode : Qlang.Solution_graph.t -> Satsolver.Cnf.t

(** [certain g] is [true] iff the encoding is unsatisfiable. The CDCL search
    runs under [budget] (ticks at site ["dpll"]: once on entry, once per
    decision, once per conflict).
    @raise Harness.Budget.Budget_exceeded when [budget] runs out.
    @raise Invalid_argument when the solver's model fails the check of
    {!falsifying_repair}. *)
val certain : ?budget:Harness.Budget.t -> Qlang.Solution_graph.t -> bool

(** [falsifying_repair g] extracts one vertex per block (in block order) from
    a model, if the encoding is satisfiable. The repair is checked in one
    pass before it is returned: every block has a chosen fact, and no chosen
    fact has a self-loop or an edge to another. Same budget contract as
    {!certain}.
    This is the falsifying repair every served caller prints ([cqa explain],
    the REPL's [explain]).
    @raise Invalid_argument when the check fails; the degradation chain
    records the SAT attempt as failed, and ends in the estimate or in
    [Solver_error]. *)
val falsifying_repair :
  ?budget:Harness.Budget.t -> Qlang.Solution_graph.t -> int list option
