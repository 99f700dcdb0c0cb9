(** Concrete tripath containment: does a {e database} [D] contain a tripath
    of [q] (a sub-database [Θ ⊆ D] meeting the Section 7 definition)?

    Propositions 10 and 19 are stated at this level: the greedy fixpoint is
    exact on databases containing no tripath, and the Proposition 19
    partition separates components without tripaths from clique components.
    The search enumerates branching centers [(d, e, f)] from the directed
    solution pairs of [D], then grows the spine and the two arms by
    depth-first search over the solution edges, drawing block-mates from
    [D]'s blocks and keeping the tree blocks key-disjoint. Every result is
    re-verified by {!Tripath.check}. *)

type options = {
  max_blocks : int;  (** Total block budget per candidate tree (default 12). *)
  max_candidates : int;
      (** Search nodes (default 200_000): exactly this many run, ticking a
          [Harness.Budget] at the [tripath] site, before the search stops and
          reports [`Exhausted]. *)
}

val default_options : options

(** [find ?opts ?want q db] returns a verified tripath contained in [db], of
    the requested kind if [want] is given. [None] means no tripath within
    the search bounds (exact when the budget was not exhausted, which the
    second component reports: [`Exhausted] or [`Complete]). *)
val find :
  ?opts:options ->
  ?want:Tripath.kind ->
  Qlang.Query.t ->
  Relational.Database.t ->
  (Tripath.t * Tripath.kind) option * [ `Complete | `Exhausted ]
