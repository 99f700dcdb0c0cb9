(** Maximum matching in bipartite graphs.

    Two implementations with identical specifications: {!hopcroft_karp} in
    [O(E sqrt V)] (the algorithm cited as [5] in the paper) and the textbook
    augmenting-path algorithm {!augmenting} in [O(V E)], kept as an
    independent oracle for tests. This is the only Hopcroft–Karp in the
    system: [Cqa.Matching_alg] runs it on the graph [H(D, q)].

    Both walk the CSR rows of {!Bipartite.t} in ascending order; the
    Hopcroft–Karp BFS queue is an int array, and neither search allocates
    per vertex visit (the result arrays and, for Hopcroft–Karp, the
    distance array and queue are allocated once per call). *)

type t = {
  pair_left : int array;  (** [pair_left.(u)] is the partner of [u], or -1. *)
  pair_right : int array;  (** [pair_right.(v)] is the partner of [v], or -1. *)
  size : int;  (** Number of matched pairs. *)
}

(** Maximum matching via Hopcroft–Karp. [tick] (default: no-op) is called
    once per vertex visit in the BFS layering (each left vertex popped from
    the queue) and DFS augmenting phases (each call on a left vertex). The
    rows' order fixes the visit order, and so the tick count. Pass a
    closure that raises to make long runs interruptible — the [graphs]
    library stays dependency-free, so metering (e.g. [Harness.Budget]) plugs
    in from the caller's side. *)
val hopcroft_karp : ?tick:(unit -> unit) -> Bipartite.t -> t

(** Maximum matching via repeated DFS augmenting paths. [tick] as in
    {!hopcroft_karp}. *)
val augmenting : ?tick:(unit -> unit) -> Bipartite.t -> t

(** [saturates_left g m] holds iff every left vertex is matched. *)
val saturates_left : Bipartite.t -> t -> bool

(** [is_valid g m] checks that [m] is a matching of [g]: partners are
    mutual, edges exist, no vertex is used twice. *)
val is_valid : Bipartite.t -> t -> bool
