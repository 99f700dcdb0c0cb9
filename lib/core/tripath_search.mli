(** Bounded symbolic search for tripaths (the decision procedure behind the
    dichotomy classification).

    The paper shows that tripath existence is decidable — if a fork-tripath
    exists there is one of exponential size — but gives no practical
    procedure. This module implements a unification-based search: candidate
    tripaths are built from {e symbolic facts} (atoms over fresh variables).
    The center [d, e, f] is the most general unifier of the branching pattern
    [q(de) ∧ q(ef)]; the spine and the two arms are grown by chase-like
    unification steps (one block at a time, two possible orientations of the
    parent/child solution); block siblings take fresh non-key variables.
    Remaining variables are finally instantiated with pairwise distinct fresh
    constants and the candidate is handed to the independent verifier
    {!Tripath.check}.

    Because the most general unifier may be {e too} general (some tripaths —
    and especially nice ones — require identifying variables that unification
    does not force, cf. Figure 1c), the search also enumerates additional
    identifications of center variables, up to [max_merges] merged pairs.

    Three cuts keep the search small without losing a witness.
    - {b Shared keys.} The blocks of a tripath have pairwise distinct keys.
      The search keeps one atom per tree block placed so far (the center's
      [d], [e] and [f], the spine, the root, the arms and the leaves) and
      drops a partial candidate as soon as two of their key tuples are
      syntactically equal. Unification only ever identifies terms, so equal
      keys stay equal in every completion, and {!Tripath.check} would reject
      each one.
    - {b Kind first.} When a kind is wanted, a candidate's kind is decided
      on its two center facts ([q(f d)], on the same injective grounding by
      fresh constants) before it is instantiated and verified, and a
      candidate of the other kind is skipped. The grounding preserves
      exactly which terms are equal, so this is the kind {!Tripath.check}
      would report.
    - {b Kind at the center.} A fork search decides [q(f d)] once per
      center variant, on the variant's own [d] and [f], and skips the whole
      variant, spending no node on it, when the solution already holds.
      The later steps of a search only extend the variant's substitution,
      and the final grounding is injective, so the solution [q(f d)]
      carries over to every completion: each one is a triangle. A triangle search (and {!find_any}) keeps every
      variant, since one where [q(f d)] fails can still become a triangle.
    No cut changes the exploration order: the nodes that remain are
    visited in the same order and each still ticks the budget, so a search
    that finished within its budget returns the same witness as one without
    the cuts.

    {b Budget.} Every search node (each spine or arm growth step and each
    complete candidate) ticks a {!Harness.Budget.t} at the
    {!Harness.Sites.tripath} site. By default a search makes its own,
    capped at [max_candidates] nodes ({!budget}); a caller can share one
    budget between searches ({!Dichotomy.classify} runs its fork and
    triangle searches on one) and give it a deadline. A search that runs
    out raises {!Harness.Budget.Budget_exceeded} ([Steps] or [Deadline]);
    it never returns [Not_found] for it.

    The search is sound (every [Found] result is independently verified) and
    complete up to its bounds: [Not_found] means no tripath with at most
    [max_spine] spine blocks, [max_arm] blocks per arm and [max_merges]
    center identifications. With the three cuts, every classification over
    the query catalogue (the paper's q1–q7 and nine more) and over the
    signature atlases [\[2,1\]], [\[3,1\]], [\[2,2\]], [\[3,2\]],
    [\[4,1\]] and [\[4,2\]] at the default bounds runs at most 120 nodes
    in all: the largest, that of
    [R(v0 v1 | v2 v1) R(v2 v1 | v3 v0)], runs 60 fork and 60 triangle nodes. *)

type options = {
  max_spine : int;  (** Internal blocks between root and center (default 3). *)
  max_arm : int;  (** Internal blocks between center and each leaf (default 3). *)
  max_merges : int;  (** Extra center-variable identifications (default 2). *)
  max_candidates : int;
      (** Budget in search nodes, not candidates (default 200_000): every
          spine or arm growth step and every complete candidate ticks one.
          The search runs at most [max_candidates] nodes and raises
          {!Harness.Budget.Budget_exceeded} [Steps] when it would need one
          more. *)
}

val default_options : options

(** [budget ?timeout opts] is a fresh search budget: at most
    [opts.max_candidates] nodes and, with [timeout], a deadline that many
    seconds from now (polled every 64 nodes). *)
val budget : ?timeout:float -> options -> Harness.Budget.t

type outcome =
  | Found of Tripath.t * Tripath.kind
  | Not_found
      (** No tripath within the search bounds: the search ran to its end
          without running out of budget. *)

(** [search ?opts ?budget ?want q] looks for a verified tripath of [q];
    [want] restricts the kind. Candidates are explored with fewer
    identifications first, so the returned witness is minimal in that
    sense. Every node ticks [budget] (default: a fresh {!budget} of
    [opts]); a given budget replaces [opts.max_candidates] as the cap.
    @raise Invalid_argument if [max_spine], [max_arm] or [max_merges] is
    negative or [max_candidates] is below 1.
    @raise Harness.Budget.Budget_exceeded when [budget] runs out (or
    already had) before the search ends. *)
val search :
  ?opts:options -> ?budget:Harness.Budget.t -> ?want:Tripath.kind -> Qlang.Query.t -> outcome

(** [find_any q], [find_fork q], [find_triangle q]: convenience wrappers. *)
val find_any : ?opts:options -> Qlang.Query.t -> outcome

val find_fork : ?opts:options -> ?budget:Harness.Budget.t -> Qlang.Query.t -> outcome
val find_triangle : ?opts:options -> ?budget:Harness.Budget.t -> Qlang.Query.t -> outcome

(** [find_nice ?opts ~want q] searches for a {e nice} tripath of the given
    kind (Proposition 8 guarantees one exists whenever a tripath of that kind
    does); used by the Theorem 12 gadget. It widens [max_spine] to at least
    3 and [max_arm] to at least 4, and runs on its own {!budget}.
    @raise Invalid_argument on the options {!search} refuses.
    @raise Harness.Budget.Budget_exceeded when the budget runs out. *)
val find_nice :
  ?opts:options ->
  want:Tripath.kind ->
  Qlang.Query.t ->
  (Tripath.t * Tripath.nice_witness) option
