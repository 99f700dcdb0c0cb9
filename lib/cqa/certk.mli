(** The greedy fixpoint algorithm [Cert_k(q)] of Section 5 (introduced in
    Figueira–Padmanabha–Segoufin–Sirangelo, ICDT 2023).

    The algorithm computes the inflationary fixpoint [Δ_k(q, D)] of k-sets
    (sets of at most [k] facts extendable to a repair), starting from the
    k-sets that satisfy [q], and closing under: add [S] whenever some block
    [B] is such that every fact [u ∈ B] has some [S' ⊆ S ∪ {u}] already in
    [Δ_k(q, D)]. It answers yes iff [∅] is eventually derived.

    [Cert_k(q)] is always an under-approximation of CERTAIN(q) (Section 5);
    it is exact for the query classes of Theorems 4 and 9, and provably not
    exact for 2way-determined queries admitting a triangle-tripath
    (Theorem 14).

    The implementation maintains only the {e minimal} sets of [Δ_k(q, D)]
    (an antichain): a set [S] is in the fixpoint iff it contains a minimal
    derived set, so this loses nothing and keeps the state small. The state
    is flat int arrays (an arena of interned k-sets, per-vertex id buckets),
    reused by the next call on the same domain once it holds nothing of
    its run. *)

(** [run ?budget ~k g] runs [Cert_k] on a solution graph. [k >= 1] required.
    One budget tick (site ["certk"]) is spent per derivation step; when the
    budget runs out the fixpoint is abandoned and [Budget_exceeded]
    propagates, so the caller (the degradation chain) can fall back to
    another tier instead of trusting a half-finished under-approximation.
    @raise Harness.Budget.Budget_exceeded when [budget] runs out. *)
val run : ?budget:Harness.Budget.t -> k:int -> Qlang.Solution_graph.t -> bool

(** [derived ~k g] exposes the fixpoint's minimal sets (sorted vertex lists),
    for inspection and tests. [run] returns [true] iff this contains [[]]. *)
val derived : k:int -> Qlang.Solution_graph.t -> int list list

(** {2 Derivation certificates}

    When [Cert_k] answers yes, the inflationary derivation of the empty set
    is a checkable proof of certainty; [certificate] reconstructs it. *)

(** How a set entered the fixpoint. *)
type reason =
  | Initial of int * int
      (** The set covers the solution pair [(i, j)] ([i = j] for a
          self-loop solution). *)
  | Via_block of int * (int * int list) list
      (** Derived through the given block: for each fact [u] of the block,
          the premise [T_u ∈ Δ] used (with [T_u ⊆ S ∪ {u}]). *)

type certificate = {
  set : int list;  (** The derived k-set (vertex indices). *)
  why : reason;
  premises : certificate list;  (** Sub-derivations of the [Via_block] premises. *)
}

(** [certificate ~k g] is the derivation of [∅], when [run ~k g] holds.
    Every derived set has one node, built once and shared by every
    derivation that uses it as a premise, so the value is a DAG whose size
    is linear in the number of derived sets, although unfolding it as a
    tree can be exponential. Structural equality ([=]) sees the unfolded
    tree. *)
val certificate : k:int -> Qlang.Solution_graph.t -> certificate option

(** [pp_certificate g ppf cert] prints the derivation with fact names, one
    node per line, premises indented under the set they derive. A premise
    whose set was already printed is printed once more as
    [{...} (derived above)], without its sub-derivation, so the output is
    linear in the number of distinct sets; a certificate with no repeated
    set prints in full. *)
val pp_certificate : Qlang.Solution_graph.t -> Format.formatter -> certificate -> unit

(** [kappa q] is the paper's [κ = l^l] where [l] is the key length. *)
val kappa : Qlang.Query.t -> int

(** [paper_k q] is [2^(2κ+1) + κ - 1], the (non-optimal) bound under which
    Proposition 10 and Theorem 18 are stated. Saturates at [max_int] for
    large key lengths. *)
val paper_k : Qlang.Query.t -> int
