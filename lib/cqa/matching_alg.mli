(** The bipartite-matching algorithm [Matching(q)] of Section 10.1.

    On input [D] it computes the solution graph [G(D, q)], its connected
    components, the quasi-cliques, and the bipartite graph [H(D, q)] whose
    left side is the blocks of [D] and whose right side is the set
    [{clique(a) | a ∈ D}] — [clique(a)] being [a]'s component when that
    component is a quasi-clique and the singleton [{a}] otherwise. There is
    an edge from block [v1] to [v2] iff [v1] contains a fact [a ∈ v2] with
    [D ⊭ q(aa)]. The algorithm answers yes iff some matching of [H(D, q)]
    saturates the block side.

    [¬Matching(q)] is a sound under-approximation of CERTAIN(q)
    (Proposition 15); it is exact on clique-databases (Proposition 16), hence
    for clique-queries such as [q6 = R(x | y z) ∧ R(z | x y)] (Theorem 17). *)

(** [run ?budget g] is [D ⊨ MATCHING(q)]: a saturating matching exists.
    Budget ticks are spent at site ["matching"] — once up front and once per
    vertex visit inside Hopcroft–Karp — so [--timeout]/[--max-steps] can
    interrupt the Matching tier like every other algorithm.
    @raise Harness.Budget.Budget_exceeded when [budget] runs out. *)
val run : ?budget:Harness.Budget.t -> Qlang.Solution_graph.t -> bool

(** [bipartite g] exposes the graph [H(D, q)] for inspection: the left side
    indexes blocks, the right side indexes cliques (numbered by first
    appearance over the facts). Its CSR rows are filled straight from the
    blocks and clique ids, by two counting passes, with no edge list; row
    [b] lists the clique ids of [b]'s facts [a] with [D ⊭ q(aa)], ascending
    and without repeats. *)
val bipartite : Qlang.Solution_graph.t -> Graphs.Bipartite.t
