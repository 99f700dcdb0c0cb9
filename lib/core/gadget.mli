(** The coNP-hardness gadget of Theorem 12 (Figure 2): compiling a 3-SAT
    formula [φ] — every variable occurring at most three times, at least once
    per polarity, clauses of two or three distinct variables — into a
    database [D(φ)] such that [φ] is satisfiable iff [q] is {e not} certain
    for [D(φ)].

    The construction instantiates a {e nice fork-tripath} [Θ] of [q] once per
    (variable, clause) incidence: the nice witness elements [x, y, z] are
    renamed per copy (keeping the copies' interiors disjoint), the root
    element [u] becomes the clause identifier (so the roots of all literals
    of a clause merge into one {e clause block}), and the leaf elements
    [v, w] become shared pair identifiers that merge the leaves of the copies
    of the same variable across its clauses. Singleton blocks are padded with
    fresh facts forming no solution. Picking the root fact of [Θ_{l,C}] in
    the clause block of [C] reads as "literal [l] satisfies [C]"; the tripath
    chains propagate that choice to the shared leaves, where contradictory
    assignments of a variable force a solution.

    The module only builds [D(φ)]; deciding CERTAIN on it is the solvers'
    job. [cqa gadget] checks Lemma 13 with the SAT tier against the
    [Satsolver.Dpll] oracle, and the tests with the [Cqa.Exact] oracle. *)

type t = private {
  query : Qlang.Query.t;
  tripath : Tripath.t;  (** A nice fork-tripath of the query. *)
  witness : Tripath.nice_witness;
}

(** [of_tripath tp] packages a tripath after re-verifying that it is a nice
    fork-tripath. *)
val of_tripath : Tripath.t -> (t, string) result

(** [create q] searches for a nice fork-tripath of [q] (Proposition 8
    guarantees one whenever [q] admits any fork-tripath). [Error] means the
    search ended without one.
    @raise Harness.Budget.Budget_exceeded when the search runs out of its
    node budget ({!Tripath_search.find_nice}). *)
val create : ?opts:Tripath_search.options -> Qlang.Query.t -> (t, string) result

(** [database g φ] builds [D(φ)].
    @raise Invalid_argument if [φ] is not in gadget shape
    (see {!Satsolver.Threesat.in_gadget_shape}) or if padding-fact
    construction fails (which would indicate a non-nice tripath). *)
val database : t -> Satsolver.Cnf.t -> Relational.Database.t
