(** Fact-level deltas: the update language of the incremental plane.

    A delta is an ordered list of insertions and retractions applied
    left to right with {!Database.add}/{!Database.remove} semantics
    (inserting a present fact and retracting an absent one are no-ops).
    The same value drives both planes: {!apply} updates the persistent
    authoring plane, and {!Compiled.apply_delta} patches the compiled
    execution plane — with the law
    [Compiled.apply_delta plane d ≡ Compiled.compile (Delta.apply db d)]
    (verdicts, certificates, solution graphs) pinned by the delta qcheck
    suite. *)

type op = Insert of Fact.t | Retract of Fact.t
type t = op list

val op_name : op -> string

(** [apply db d] folds the delta over the database.
    @raise Invalid_argument if an inserted fact names an undeclared relation
    or has the wrong arity (the same structured error {!Database.add}
    raises). *)
val apply : Database.t -> t -> Database.t

(** [normalize db d] is the delta's {e net effect} on [db]: the facts it
    actually adds and the facts it actually removes, both sorted by
    [Fact.compare] and disjoint from each other. Sequential semantics make
    this last-op-wins per fact; no-op inserts/retracts disappear. Raises
    exactly when {!apply} would. *)
val normalize : Database.t -> t -> Fact.t list * Fact.t list

val pp : Format.formatter -> t -> unit
