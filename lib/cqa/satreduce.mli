(** SAT-based CERTAIN solver — the paper's coNP upper bound made executable.

    [q] is not certain for [D] iff a falsifying repair exists, which is
    encoded as satisfiability of a CNF over one Boolean variable per fact:
    at least one fact per block is chosen, no chosen fact has a self-loop
    solution, and no two chosen facts form a solution. A model then always
    contains a falsifying repair (choose any one marked fact per block), and
    conversely every falsifying repair is a model. This mirrors the approach
    of SAT-based CQA systems such as CAvSAT. *)

(** [encode g] builds the CNF whose models are the solution-free block
    selections of the solution graph. Fact [i] is variable [i + 1]. *)
val encode : Qlang.Solution_graph.t -> Satsolver.Cnf.t

(** [certain g] is [true] iff the encoding is unsatisfiable. The DPLL search
    runs under [budget] (ticks at site ["dpll"]).
    @raise Harness.Budget.Budget_exceeded when [budget] runs out. *)
val certain : ?budget:Harness.Budget.t -> Qlang.Solution_graph.t -> bool

(** [falsifying_repair g] extracts one vertex per block from a model, if the
    encoding is satisfiable. Same budget contract as {!certain}. *)
val falsifying_repair :
  ?budget:Harness.Budget.t -> Qlang.Solution_graph.t -> int list option
