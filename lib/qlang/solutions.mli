(** Evaluation of two-atom queries: solutions [q(D)].

    A {e solution} to [q = AB] in a database [D] is a pair of (not necessarily
    distinct) facts [(μ(A), μ(B))] for a mapping [μ] with both images in [D]
    (Section 2). Functions are parameterised by the pair of atoms rather than
    a {!Query.t} so they also serve the self-join-free variant of the query
    used by Proposition 2, where [A] and [B] use different relation symbols. *)

(** [pairs a b db] lists all solutions to [a ∧ b] in [db], without duplicates,
    in lexicographic fact order. Pairs [(f, f)] appear when one fact matches
    both atoms. *)
val pairs : Atom.t -> Atom.t -> Relational.Database.t -> (Relational.Fact.t * Relational.Fact.t) list

(** [pairs_compiled a b plane] is {!pairs} on the compiled execution plane:
    the same solutions, as vertex index pairs in the same lexicographic
    order ([plane.facts.(i)] is the fact behind index [i]). This is the
    enumeration {!Solution_graph.of_compiled} is built on; the
    plane-equivalence suite pins its agreement with {!pairs}. *)
val pairs_compiled :
  Atom.t -> Atom.t -> Relational.Compiled.t -> (int * int) list

(** [satisfies a b facts] decides [facts ⊨ a ∧ b] for a set of facts given as
    a list (e.g. a repair). *)
val satisfies : Atom.t -> Atom.t -> Relational.Fact.t list -> bool

(** [holds a b db f g] decides whether [(f, g)] is a solution to [a ∧ b]
    in [db]: both facts are in [db] and some mapping sends [a] to [f] and
    [b] to [g]. *)
val holds : Atom.t -> Atom.t -> Relational.Database.t -> Relational.Fact.t -> Relational.Fact.t -> bool

(** [assignments a b db] lists the witnessing matches behind {!pairs}: every
    [(μ, f, g)] with [μ(a) = f ∈ db] and [μ(b) = g ∈ db]. One fact pair may
    admit several assignments; all are returned. Used for non-Boolean
    certain answers, where the projection of [μ] matters. *)
val assignments :
  Atom.t ->
  Atom.t ->
  Relational.Database.t ->
  (Subst.t * Relational.Fact.t * Relational.Fact.t) list

(** {2 Convenience wrappers on queries} *)

val query_pairs : Query.t -> Relational.Database.t -> (Relational.Fact.t * Relational.Fact.t) list
val query_satisfies : Query.t -> Relational.Fact.t list -> bool

(** [query_solution_pair q f g] decides whether [(f, g)] is a solution to
    [q = A ∧ B]: some mapping sends [A] to [f] and [B] to [g]. This is a
    property of the four terms only; the paper writes it [q(fg)]. *)
val query_solution_pair : Query.t -> Relational.Fact.t -> Relational.Fact.t -> bool

(** [query_solution_pair_sym q f g] is the paper's [q{fg}]: [q(fg)] or
    [q(gf)]. *)
val query_solution_pair_sym : Query.t -> Relational.Fact.t -> Relational.Fact.t -> bool
