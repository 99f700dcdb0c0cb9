(** The compiled execution plane: an interned, array-backed image of a
    {!Database.t}.

    Every CERTAIN solver consumes the same derived structure — the fact set,
    the block partition, and (one level up, in [qlang]) the solution graph.
    The persistent {!Database} is the authoring plane: immutable, indexed for
    incremental updates, paying a structural {!Value.compare} per lookup.
    [Compiled.t] is the execution plane the solvers actually run on: facts
    are dense vertex indices [0 .. n-1], values are interned ids, and the
    block partition is a pair of int arrays. {!compile} is the only bridge
    from one plane to the other, and {!decompile} inverts it exactly
    ([Database.equal (decompile (compile db)) db] always holds — the qcheck
    suite pins this).

    Layout invariants, all load-bearing for solver-output stability:

    - [facts] is in sorted fact order, i.e. exactly [Database.facts db];
      vertex [i] of any solution graph built on the plane is [facts.(i)].
    - Facts of one relation are contiguous ([rel_range]), because sorted
      fact order is (relation, tuple) order.
    - Keys are tuple prefixes, so each block is a {e consecutive run} of the
      sorted fact array; [blocks] lists the runs in the same (relation, key)
      order that [Database.blocks] produces.
    - Interner ids are assigned in first-occurrence order over the sorted
      facts, so compiling equal databases yields identical planes.

    The interner belongs to the plane and lives exactly as long as it: ids
    never migrate between planes. An update patches the plane with
    {!apply_delta}, which shares the interner until an insert brings a
    value it lacks and then copies it; the solution graph over the patched
    plane is rebuilt from scratch by whoever next needs it (the serve
    daemon's next read of the updated database builds it on the patched
    plane). *)

type t = private {
  interner : Interner.t;  (** Owns the id [<->] value bijection. *)
  schemas : Schema.t array;  (** Sorted by relation name. *)
  facts : Fact.t array;  (** [Database.facts] order (sorted). *)
  tuples : int array array;  (** [tuples.(i)] is [facts.(i)] interned. *)
  rel_of : int array;  (** Index into [schemas] per fact. *)
  rel_range : (int * int) array;
      (** Per relation, the fact index range [\[start, stop)]. *)
  blocks : int array array;  (** Block partition, [Database.blocks] order. *)
  block_of : int array;  (** Block id of each fact. *)
  adom : int array;  (** Active domain as sorted interned ids. *)
}

(** [compile ?tick db] compiles the database; [tick] (when given) is invoked
    once per fact, which is how the degradation chain charges compilation to
    its step budget (site ["compile"]) without this library depending on the
    harness. It is per-fact work: the fact array is filled from the
    database's set, each value is interned into an {!Interner} grown with
    the active domain (a hit allocates nothing), and the block partition
    is counted, then filled, with no list or closure per block. *)
val compile : ?tick:(unit -> unit) -> Database.t -> t

(** [decompile c] reconstructs the persistent database from the interned
    tuples (a genuine round trip through the interner, not a cached copy). *)
val decompile : t -> Database.t

(** {2 Incremental maintenance}

    {!apply_delta} patches a plane under a {!Delta.t} instead of
    recompiling: surviving facts keep their interned tuple rows, inserts may
    mint new adom ids (on a {e copied} interner — see below), retractions
    never shrink the interner (stale value ids are legal; nothing requires
    every interned value to occur in a fact), and the relation ranges and
    block partition are recomputed by the linear scan {!compile} uses. The
    discipline is
    {e copy-on-patch}: the input plane shares its interner and tuple rows
    with the result but none of its top-level arrays, and the interner is
    copied before the first new id is minted — so a fault raised anywhere
    mid-patch (chaos, budget exhaustion) leaves the old plane fully valid,
    with no rollback needed.

    The governing law, pinned by the delta qcheck suite with
    [Analysis.Sanitize.run] as the invariant oracle:
    [apply_delta plane d] decompiles to [Delta.apply db d] and agrees with
    [compile (Delta.apply db d)] on verdicts, certificates and solution
    graphs for every query. The planes themselves may differ in interner
    id assignment (a fresh compile interns in first-occurrence order; a
    patch appends), which no solver observes. *)

(** [apply_delta c d] patches [c] under the net effect of [d]. [tick] is
    invoked once per net insert and once per net retract; surviving facts
    are moved in runs without ticks, and a net no-op ticks nothing and
    returns [c] itself. Copying the interner for a fresh value is two
    array copies ({!Interner.copy}).
    @raise Invalid_argument on an insert whose relation is undeclared or
    whose arity is wrong (the same structured error [Database.add] raises);
    deltas cannot change the schema set. *)
val apply_delta : ?tick:(unit -> unit) -> t -> Delta.t -> t

(** The result of {!apply_delta_patch}: the patched plane, nothing else. *)
type patch = { plane : t }

(** [apply_delta_patch c d] is [{ plane = apply_delta c d }], kept for the
    end-to-end benchmark's replay, which names it. *)
val apply_delta_patch : ?tick:(unit -> unit) -> t -> Delta.t -> patch

val n_facts : t -> int
val n_blocks : t -> int

(** Number of distinct interned values (the active-domain size). *)
val n_values : t -> int

val n_relations : t -> int

(** [fact c i] is the persistent fact behind vertex [i]. *)
val fact : t -> int -> Fact.t

(** [value c id] resolves an interned id. *)
val value : t -> int -> Value.t

(** [find_value c v] is the interned id of [v], or [None] if [v] occurs
    nowhere in the database. *)
val find_value : t -> Value.t -> int option

(** [rel_index c name] is the index of relation [name] into [schemas]. *)
val rel_index : t -> string -> int option

(** Consistency on the plane: every block is a singleton. Agrees with
    [Database.is_consistent] on the source database. *)
val is_consistent : t -> bool

(** One-line summary ([n] facts, [b] blocks, [v] values, [r] relations). *)
val pp : Format.formatter -> t -> unit

(** [set_test_corruption f] installs (or with [None] removes) a global hook
    applied to every plane {!compile} produces, {e after} construction. This
    is the chaos-injection point for the sanitizer's end-to-end tests: a
    corruption installed here flows through the solver chain, the serve
    plane cache, and every other compile site, exactly like a real invariant
    violation would. Never installed in production code paths; the [cqa
    serve --chaos-corrupt] flag and the test suites are the only callers. *)
val set_test_corruption : (t -> t) option -> unit

(** Raw construction and corruption operators for the sanitizer's mutation
    suite. Nothing here validates anything — that is the point: these exist
    so tests can build planes that violate the layout invariants and assert
    that {!Analysis.Sanitize} rejects each one with the right code. *)
module Unsafe : sig
  (** [of_parts ~interner ~schemas ~facts ~tuples ~rel_of ~rel_range ~blocks
      ~block_of ~adom] wraps the given arrays as a plane without copying or
      checking them. *)
  val of_parts :
    interner:Interner.t ->
    schemas:Schema.t array ->
    facts:Fact.t array ->
    tuples:int array array ->
    rel_of:int array ->
    rel_range:(int * int) array ->
    blocks:int array array ->
    block_of:int array ->
    adom:int array ->
    t

  (** [corrupt_first_cell_out_of_domain c] is a copy of [c] whose first
      tuple cell is replaced by [n_values c] — an id outside the interner's
      domain, which even the cheap {!Analysis.Sanitize.gate} scan rejects.
      This is the standard chaos corruption used by [cqa serve
      --chaos-corrupt].
      @raise Invalid_argument on an empty plane. *)
  val corrupt_first_cell_out_of_domain : t -> t
end
