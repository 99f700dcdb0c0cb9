(** Seeded random database generation.

    Databases are generated over a query's schema with a small value domain,
    so key collisions (blocks) and query solutions arise naturally. The
    generators are deterministic in the supplied [Random.State.t], making
    every experiment reproducible. *)

(** [random rng schema ~n_facts ~domain] draws [n_facts] facts with values
    uniform in a domain of [domain] elements. Duplicate facts collapse, so
    the result may be slightly smaller. *)
val random :
  Random.State.t ->
  Relational.Schema.t ->
  n_facts:int ->
  domain:int ->
  Relational.Database.t

(** [random_for_query rng q ~n_facts ~domain] additionally plants matches of
    the query's atoms: roughly half the facts are images of atom [A] or [B]
    under random assignments, so solution pairs are likely. *)
val random_for_query :
  Random.State.t ->
  Qlang.Query.t ->
  n_facts:int ->
  domain:int ->
  Relational.Database.t

(** [random_delta rng q db ~domain ~len] draws a trace of [len] delta ops
    against [db]: inserts of fresh facts drawn as in {!random_for_query},
    retracts of present facts, and redundant ops that must be net no-ops
    (inserting a present fact, retracting an almost surely absent one). *)
val random_delta :
  Random.State.t ->
  Qlang.Query.t ->
  Relational.Database.t ->
  domain:int ->
  len:int ->
  Relational.Delta.t

(** [q3_components rng ~components] draws [components] disjoint random
    components over {!Catalog.q3}'s schema, each of 60 fact draws over its
    own 7 values plus one "escape" fact per block whose value is no key. The
    escapes make the database not certain, so Cert_2 runs its fixpoint to
    saturation, and its cost is a sum over independent components: the
    shape of the end-to-end benchmark's fixpoint-bound databases. *)
val q3_components : Random.State.t -> components:int -> Relational.Database.t

(** [random_sjf rng s ~n_facts ~domain] draws a two-relation database for
    the self-join-free variant of a query, planting atom images as in
    {!random_for_query}. *)
val random_sjf :
  Random.State.t ->
  Qlang.Sjf.t ->
  n_facts:int ->
  domain:int ->
  Relational.Database.t

(** [hard_instance g phi] — re-exported gadget construction is in
    {!Core.Gadget}; this helper builds a random gadget-shaped formula and its
    database in one step, returning both. [None] if the random formula
    simplifies away. *)
val hard_instance :
  Random.State.t ->
  Core.Gadget.t ->
  n_vars:int ->
  n_clauses:int ->
  (Satsolver.Cnf.t * Relational.Database.t) option
