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

    Two cuts keep the search small without losing a witness.
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
    Neither cut changes the exploration order: the nodes that remain are
    visited in the same order and each still spends budget, so a search that
    finished within its budget returns the same witness as one without the
    cuts.

    The search is sound (every [Found] result is independently verified) and
    complete up to its bounds: [Not_found] means no tripath with at most
    [max_spine] spine blocks, [max_arm] blocks per arm and [max_merges]
    center identifications, {e or} that the search ran out of
    [max_candidates] search nodes first. Within the defaults, every
    classification search ({!find_fork}, then {!find_triangle}) over the
    query catalogue (the paper's q1–q7 and nine more) and over the
    signature atlases
    [\[2,1\]], [\[3,1\]], [\[2,2\]] and [\[3,2\]] (at {!Atlas.bulk_options})
    finishes before its budget runs out: the largest, triangle-41's fork
    search, visits 55,860 nodes. (Before the cuts that search stopped at its
    200,000-node budget.) *)

type options = {
  max_spine : int;  (** Internal blocks between root and center (default 3). *)
  max_arm : int;  (** Internal blocks between center and each leaf (default 3). *)
  max_merges : int;  (** Extra center-variable identifications (default 2). *)
  max_candidates : int;
      (** Budget in search nodes, not candidates (default 200_000): every
          spine or arm growth step and every complete candidate spends one.
          The search runs at most [max_candidates] nodes and returns
          [Not_found] when it would need one more. *)
}

val default_options : options

type outcome =
  | Found of Tripath.t * Tripath.kind
  | Not_found
      (** No tripath within the search bounds, or the node budget ran out
          first. *)

(** [search ?opts ?want q] looks for a verified tripath of [q]; [want]
    restricts the kind. Candidates are explored with fewer identifications
    first, so the returned witness is minimal in that sense.
    @raise Invalid_argument if [max_spine], [max_arm] or [max_merges] is
    negative or [max_candidates] is below 1. *)
val search : ?opts:options -> ?want:Tripath.kind -> Qlang.Query.t -> outcome

(** [find_any q], [find_fork q], [find_triangle q]: convenience wrappers. *)
val find_any : ?opts:options -> Qlang.Query.t -> outcome

val find_fork : ?opts:options -> Qlang.Query.t -> outcome
val find_triangle : ?opts:options -> Qlang.Query.t -> outcome

(** [find_nice ?opts ~want q] searches for a {e nice} tripath of the given
    kind (Proposition 8 guarantees one exists whenever a tripath of that kind
    does); used by the Theorem 12 gadget. It widens [max_spine] to at least
    3 and [max_arm] to at least 4.
    @raise Invalid_argument on the options {!search} refuses. *)
val find_nice :
  ?opts:options ->
  want:Tripath.kind ->
  Qlang.Query.t ->
  (Tripath.t * Tripath.nice_witness) option
