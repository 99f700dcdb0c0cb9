(** A conflict-driven clause-learning SAT solver.

    Clauses live in one int arena; each clause of two or more literals is
    watched by two of them, so an assignment visits only the clauses that
    watch the literal it falsifies. The trail records the reason of every
    implied literal; a conflict is analysed to its first unique implication
    point (1-UIP), the learnt clause is added, and the search backjumps to
    the second-highest level in it. Decisions take the unassigned variable
    of highest activity (VSIDS: bumped on every variable met in a conflict
    analysis, decayed by 0.95 per conflict; ties go to the lowest variable)
    with its saved phase (initially [true]). Restarts follow the Luby
    sequence, 100 conflicts a unit. No clause is ever deleted, and nothing
    is random: the same clauses in the same order give the same search.

    A solver is used once: {!create}, {!add_clause} for every clause, then
    {!solve}. *)

type result =
  | Sat of bool array  (** A model; index 0 is unused. *)
  | Unsat

type t

(** [create ~n_vars] is an empty solver over the variables [1 .. n_vars].
    @raise Invalid_argument if [n_vars < 0]. *)
val create : n_vars:int -> t

(** [add_clause s lits] adds the clause [lits] (DIMACS literals). Repeated
    literals are dropped, and a clause holding a literal and its negation is
    dropped whole, so no clause watches one literal twice. The empty clause
    makes the formula unsatisfiable.
    @raise Invalid_argument on a zero or out-of-range literal, or once
    {!solve} has been called. *)
val add_clause : t -> int list -> unit

(** [of_cnf f] is a solver holding the clauses of [f]. *)
val of_cnf : Cnf.t -> t

(** [solve ?budget s] decides the clauses added to [s]. It ticks [budget]
    at site ["dpll"] once on entry, once per decision and once per conflict
    (a conflict at level 0 included), so an instance decided without a
    decision costs one or two ticks.
    @raise Harness.Budget.Budget_exceeded when [budget] runs out.
    @raise Invalid_argument if [s] was solved before. *)
val solve : ?budget:Harness.Budget.t -> t -> result
