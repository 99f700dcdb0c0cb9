(** Compiled atom patterns: matching atoms against interned tuples with
    nothing but [int] comparisons.

    A pattern translates an atom once against a plane ([Relational.Compiled]):
    constants become interned ids (a constant the interner has never seen
    matches nothing, so the pattern is unsatisfiable up front), variables
    become environment slots shared across the pattern. Matching a fact is
    then a single pass over its int tuple — no substitution maps, no
    structural [Value.compare].

    Matching an atom against a ground fact is deterministic (at most one
    assignment of the atom's variables), so enumeration in ascending fact
    index order reproduces exactly the solution list of
    {!Solutions.pairs} — the property the plane-equivalence suite pins. *)

type pair
(** A compiled two-atom pattern [a ∧ b] with a shared environment. *)

type single
(** A compiled single-atom pattern. *)

(** [pair plane a b] compiles the atom pair against the plane. *)
val pair : Relational.Compiled.t -> Atom.t -> Atom.t -> pair

(** [iter_pairs ?tick p f] applies [f i j] to every solution pair — every
    [(i, j)] such that one assignment sends [a] to fact [i] and [b] to fact
    [j] — in lexicographic index order.

    The enumeration is one keyed join. The rows of [b]'s relation range
    that have [b]'s arity and hold [b]'s constants are bucketed by a hash
    of the columns where [b] repeats a variable [a] binds (the [Check]
    slots of [a]'s variables; with no such column, every row shares one
    bucket). The index is built per call, in arrays sized to the range,
    with the rows of each bucket in ascending order. Each row of [a]'s
    range that matches [a] probes the one bucket its bindings hash to, and
    every candidate there is re-verified by the full matcher, so a hash
    collision never yields a pair. The cost is O(facts + pairs), plus one
    failed check per colliding candidate.

    Nothing is allocated per row: the index is two arrays built per call,
    the matcher is a top-level recursion over the slot program, and the
    one environment array is never reset. A [Bind] always writes its slot,
    which is sound because it is the variable's first occurrence in the
    pattern (the static analyzer's PL111): every [Check] reads a slot that
    the current row, or the [a]-row being probed, has already written, so
    a value left from an earlier row is overwritten before it is read.

    [tick] is invoked once per row of [a]'s relation range, matched or not
    (a pattern whose relation or constants are unknown to the plane ticks
    nothing); building the index ticks nothing. The degradation chain
    points it at its budget, so step counts equal the [a]-range size.

    This is the only solution enumeration the solvers run. Its oracles
    live outside the hot path: {!Solutions.query_pairs} (substitution-based,
    on the persistent database) and {!Solution_graph.of_atoms_reference};
    the cross-plane differential test holds the join to both, pair for
    pair and in order, on a seeded pool and on every catalogue query. *)
val iter_pairs : ?tick:(unit -> unit) -> pair -> (int -> int -> unit) -> unit

(** [single plane a] compiles one atom. *)
val single : Relational.Compiled.t -> Atom.t -> single

(** [matches p i] decides whether fact [i] of the plane matches the atom. *)
val matches : single -> int -> bool

(** {2 Program view}

    The static-analysis layer ([Analysis.Verify_pattern]) proves safety
    properties of compiled patterns — no read-before-bind, slot indices in
    bounds, constants inside the interner domain — which requires seeing the
    slot programs themselves. The view below exposes them read-only; the
    matcher's internal representation stays private. *)

(** One tuple position of a compiled atom. [Const id] matches the interned
    id; [Bind x] writes environment slot [x], unconditionally (first
    occurrence of the variable anywhere in the pattern); [Check x] reads
    slot [x] (every later occurrence). *)
type op = Const of int | Bind of int | Check of int

type program = {
  rel : int;  (** Index into the plane's schemas; [-1] when unsatisfiable. *)
  ops : op array;  (** One op per tuple position. *)
  ok : bool;  (** Relation known and every constant interned. *)
}

(** [pair_programs p] is [(prog_a, prog_b, n_vars)]: both atom programs in
    pattern order and the size of the shared environment. The op arrays are
    fresh copies — mutating them cannot corrupt the matcher. *)
val pair_programs : pair -> program * program * int
