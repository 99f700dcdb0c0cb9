(** The solution graph [G(D, q)] of Section 10.1, enriched with block
    structure.

    Vertices are the facts of [D] (indexed [0 .. n-1]); there is an undirected
    edge between distinct facts [a], [b] iff [D ⊨ q{ab}], and a self-loop on
    [a] iff [D ⊨ q(aa)]. The structure also records the block partition and
    the full directed solution list, and is the one input of the CERTAIN
    solvers in the [cqa] library (only the test oracles and repair sampling
    read a database): both a genuine self-join query and its self-join-free
    variant reduce to it.

    The graph is constructed on the compiled execution plane
    ({!Relational.Compiled}): the vertex array and block partition are
    shared with the plane (which stores them in exactly the order this
    graph defines), and the solution enumeration is the keyed join of
    {!Pattern.iter_pairs} over interned int tuples — no substitution maps,
    O(facts + pairs). Nothing is allocated per candidate row: the join
    allocates per call, and assembly allocates per solution pair (a
    [directed] entry and two adjacency cells) and sorts in place only the
    adjacency lists with two or more entries.
    {!of_atoms} compiles the database on the fly; callers holding a plane
    (the degradation chain, [Core.Answers]) use {!of_compiled} /
    {!of_query_compiled} to build the graph without recompiling. Both
    constructions produce a graph structurally identical to the frozen
    persistent-plane reference {!of_atoms_reference}, the oracle the
    cross-plane differential test compares against via {!equal} on a
    seeded pool and on every catalogue query. *)

type t = private {
  facts : Relational.Fact.t array;  (** Vertex [i] is [facts.(i)]. *)
  block_of : int array;  (** Block id of each vertex. *)
  blocks : int array array;  (** [blocks.(b)] lists the vertices of block [b]. *)
  adj : int list array;  (** Sorted adjacency lists (symmetric, no self edges). *)
  self : bool array;  (** [self.(i)] iff [q(a_i, a_i)]. *)
  directed : (int * int) list;  (** All ordered solutions, including [(i, i)]. *)
}

(** [of_atoms a b db] builds the solution graph of [a ∧ b] over [db],
    compiling the database first. [tick] (when given) is invoked once per
    fact during compilation and once per candidate row during solution
    enumeration — the degradation chain points it at its budget's
    ["compile"] site. *)
val of_atoms : ?tick:(unit -> unit) -> Atom.t -> Atom.t -> Relational.Database.t -> t

(** [of_query q db] is [of_atoms q.a q.b db]. *)
val of_query : ?tick:(unit -> unit) -> Query.t -> Relational.Database.t -> t

(** [of_compiled a b plane] builds the graph on an already-compiled plane
    (vertex array and block partition are shared with it, not rebuilt). *)
val of_compiled :
  ?tick:(unit -> unit) -> Atom.t -> Atom.t -> Relational.Compiled.t -> t

(** [of_query_compiled q plane] is [of_compiled q.a q.b plane]. *)
val of_query_compiled :
  ?tick:(unit -> unit) -> Query.t -> Relational.Compiled.t -> t

(** The frozen pre-compilation builder ([Fact.Map] index preamble +
    substitution-based {!Solutions.pairs}), kept as the reference the
    plane-equivalence suite and the benchmark's persistent-plane baseline
    compare against. Produces a graph {!equal} to {!of_atoms}'s. *)
val of_atoms_reference : Atom.t -> Atom.t -> Relational.Database.t -> t

(** Structural equality of graphs (facts, blocks, adjacency, self-loops,
    directed solution list). *)
val equal : t -> t -> bool

val n_facts : t -> int
val n_blocks : t -> int

(** [index g f] is the vertex of fact [f].
    @raise Not_found if [f] is not a vertex. *)
val index : t -> Relational.Fact.t -> int

(** [edge g i j] tests the undirected edge [q{ij}] (false when [i = j]; use
    {!t.self} for self-loops). *)
val edge : t -> int -> int -> bool

(** Connected components (ignoring self-loops): [components g] assigns a
    component id to every vertex, ids numbered [0 .. c-1] in order of first
    appearance. Breadth-first, on one int-array queue of [n] slots; no
    allocation per vertex. *)
val components : t -> int array * int

(** [quasi_cliques g ~member ~n_comps] flags every component of the
    assignment [member] (ids [0 .. n_comps-1], as {!components} returns
    them): [flags.(c)] holds iff component [c] is a quasi-clique, that is,
    any two non-key-equal facts in it are adjacent (Section 10.1). One
    pass for all components, O(facts + edges), with no allocation per
    vertex: each vertex's neighbours outside its block are counted against
    the size of its component less its block-mates there. *)
val quasi_cliques : t -> member:int array -> n_comps:int -> bool array

(** [is_clique_database g] decides whether every connected component is a
    quasi-clique — [db] is then a {e clique-database} for [q]. *)
val is_clique_database : t -> bool

val pp : Format.formatter -> t -> unit
