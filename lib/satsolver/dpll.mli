(** A DPLL SAT solver: unit propagation, pure-literal elimination and
    branching on a most-frequent literal.

    A reference, not a tier: it rebuilds the clause list on every
    assignment and rescans it at every node, so it is kept small and
    obviously correct. The SAT tier runs {!Cdcl}; this solver is the oracle
    the tests hold {!Cdcl} to past {!Brute}'s guard, the Lemma 13 check of
    [cqa gadget] and of the end-to-end benchmark, and the [sat] experiment. *)

type result =
  | Sat of bool array  (** A model; index 0 is unused. *)
  | Unsat

(** [solve ?budget f] searches for a model. One budget tick (site ["dpll"])
    is spent per search node, unit-propagation and pure-literal steps
    included.
    @raise Harness.Budget.Budget_exceeded when [budget] runs out. *)
val solve : ?budget:Harness.Budget.t -> Cnf.t -> result

(** [is_sat f] is [true] iff [f] is satisfiable. Same budget contract as
    {!solve}. *)
val is_sat : ?budget:Harness.Budget.t -> Cnf.t -> bool
