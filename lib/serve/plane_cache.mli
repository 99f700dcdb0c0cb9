(** An LRU cache of compiled execution planes, keyed by database
    fingerprint.

    The two-plane architecture makes compilation a one-shot cost per
    solve ({!Core.Solver.solve} compiles once and shares the plane across
    its tiers); the daemon amortizes it {e across requests}: the first request to mention a
    database pays the interning (charged to that request's budget at site
    ["compile"]), every later request — whether it named the database or
    inlined byte-identical facts — reuses the plane. The key is a
    content fingerprint (a digest over the schemas, the XOR of per-fact
    digests and the fact count), so equality is semantic: two databases
    with equal fact sets and schemas share one plane regardless of how they
    reached the daemon or in which order their facts arrived.

    Capacity is bounded; eviction is least-recently-used. The cache stores
    the authoring-plane database alongside the compiled plane so evicted
    entries can be recompiled from a [load]ed registry without re-parsing.

    Fingerprints are {e unambiguous} and {e rolling}. Every variable-length
    field of the canonical rendering is length-prefixed, so no choice of
    relation name or string value can make two different databases hash to
    the same key; and the fact set enters the digest as an XOR of per-fact
    digests, so a delta update re-keys an entry in O(|delta|) by folding the
    toggled facts' digests into the cached accumulator ({!Fingerprint},
    used by the daemon's [update] op through {!replace}).

    {b Trust boundary.} A lookup re-derives the key from the entry's
    stored accumulator — [Fingerprint.finish entry.db
    ~facts_xor:entry.facts_xor] — and compares it with the key the entry
    is stored under: O(relations), never one digest per fact, and no walk
    of the facts either, since {!Relational.Database.size} is a kept
    count. The check
    catches any entry filed under a key its own fields do not produce (a
    wedged {!inject}, a wrong key handed to {!replace}). It trusts one
    invariant: an entry's [facts_xor] is the XOR of {!Fingerprint.fact_digest}
    over its [db]'s facts. {!find_or_compile} establishes it by
    construction ({!Fingerprint.of_db}); a caller of {!replace} must
    establish it itself — the daemon's [update] folds exactly the
    net-toggled facts' digests into the cached accumulator, and a test
    pins that the rolled key equals the from-scratch {!fingerprint}. *)

(** The fingerprint algebra. [of_db db] computes the accumulator and the
    key; an update computes
    [finish db' ~facts_xor:(List.fold_left xor acc (List.map fact_digest
    toggled))], which equals [of_db db'] whenever [toggled] is the symmetric
    difference of the two fact sets. *)
module Fingerprint : sig
  (** Raw 16-byte digest of one fact's length-prefixed canonical
      rendering (relation symbol, then each value via
      {!Relational.Value.to_token}, which is injective). The rendering is
      written into a buffer in place, each cell's token and frame length
      without an intermediate string. *)
  val fact_digest : Relational.Fact.t -> string

  (** Byte-wise XOR (self-inverse: folding a digest in twice removes it).
      @raise Invalid_argument on length mismatch. *)
  val xor : string -> string -> string

  (** The accumulator of the empty fact set (16 zero bytes). *)
  val empty : string

  (** XOR of {!fact_digest} over [Database.facts], rendered into one
      scratch buffer and folded into one accumulator in place: a digest
      per fact is all it allocates. *)
  val facts_xor : Relational.Database.t -> string

  (** Final hex key: digest over the framed schemas of [db], the
      accumulator bytes, and the fact count. *)
  val finish : Relational.Database.t -> facts_xor:string -> string

  (** [(facts_xor db, finish db ~facts_xor)] in one pass. *)
  val of_db : Relational.Database.t -> string * string
end

type entry = {
  fingerprint : string;
  facts_xor : string;
      (** The XOR accumulator behind [fingerprint], carried so an update
          can roll the key in O(|delta|) and a lookup can re-check it in
          O(relations). *)
  db : Relational.Database.t;
  plane : Relational.Compiled.t;
}

type t

(** Raised by {!find_or_compile} when the sanitize-on-insert gate rejects a
    freshly compiled plane; the payload is the gate's ["PLxxx: ..."]
    message. The plane is not cached and the cache is unchanged. *)
exception Corrupt_plane of string

(** [make ~capacity ()] — at most [capacity] planes are retained (≥ 1).
    [sanitize] (typically [Analysis.Sanitize.gate]) is run on every freshly
    compiled plane before it is cached; a rejection raises
    {!Corrupt_plane}. *)
val make :
  ?capacity:int ->
  ?sanitize:(Relational.Compiled.t -> (unit, string) result) ->
  unit ->
  t

(** Content fingerprint: [snd (Fingerprint.of_db db)]. [Database.equal db
    db'] implies equal fingerprints, and the length-prefixed rendering makes
    the converse hold up to digest collision — no separator ambiguity. *)
val fingerprint : Relational.Database.t -> string

(** [find t fp] returns the cached entry, marks it most recently used and
    counts a hit in {!type:stats}[.hits]. The key is re-derived from the
    entry's stored accumulator first (O(relations), see the trust boundary
    above): an entry whose schemas, accumulator and fact count do not
    produce [fp] is {e stale} — it is evicted (counted in
    {!type:stats}[.stale] and [.evictions]) and [None] is returned, never
    served. A lookup that finds nothing counts neither a hit nor a miss. *)
val find : t -> string -> entry option

(** [find_or_compile ?tick t db] fingerprints [db] in full (one digest per
    fact) and looks the key up with {!find}, so a hit is counted and
    validated exactly as there; on a miss it compiles (and caches, evicting
    the LRU entry if full) and counts a miss. The boolean is [true] on a
    hit. [tick] is threaded into {!Relational.Compiled.compile} on the
    miss path, so the requesting budget is charged one tick per fact — and
    a chaos fault or budget stop during compilation caches nothing. A
    stale hit (see {!find}) is evicted and recompiled. A freshly compiled
    plane passes the [sanitize] gate before it is cached; rejection raises
    {!Corrupt_plane} and caches nothing.
    @raise Corrupt_plane when the sanitize gate rejects the plane. *)
val find_or_compile :
  ?tick:(unit -> unit) -> t -> Relational.Database.t -> entry * bool

(** [inject t ~fingerprint entry] stores [entry] under [fingerprint]
    verbatim — no validation, no sanitizing, wrong keys welcome. This is a
    test hook: it is how the stale-eviction regression test plants an entry
    under a key that [Fingerprint.finish entry.db ~facts_xor:entry.facts_xor]
    does not produce, which the next {!find} evicts. Capacity {e is}
    enforced: planting a new key into a full cache evicts the LRU victim
    first, so the table never exceeds [capacity] (the pre-fix bypass grew
    it without bound). *)
val inject : t -> fingerprint:string -> entry -> unit

(** [replace t ~old_fingerprint entry] re-keys a cached entry after an
    in-place delta update: the slot under [old_fingerprint] (if present) is
    dropped — a re-key, not an eviction — and [entry] is stored under
    [entry.fingerprint], most recently used, evicting the LRU victim if the
    insertion would exceed capacity. The [sanitize] gate runs on
    [entry.plane] {e before} any slot changes, so a rejected patched plane
    leaves the cache unchanged. The caller owns the trust boundary:
    [entry.facts_xor] must be the accumulator of [entry.db]. An
    [entry.fingerprint] that [Fingerprint.finish entry.db
    ~facts_xor:entry.facts_xor] does not produce is stored, but the next
    {!find} under it evicts the entry as stale instead of serving it.
    @raise Corrupt_plane when the sanitize gate rejects the plane. *)
val replace : t -> old_fingerprint:string -> entry -> unit

type stats = {
  entries : int;
  hits : int;
      (** Lookups that returned a cached entry: every successful {!find},
          whether a named read, an [update]'s lookup of the entry it
          patches, or the hit branch of {!find_or_compile}. *)
  misses : int;  (** {!find_or_compile} calls that compiled a plane. *)
  evictions : int;  (** Capacity evictions {e plus} stale evictions. *)
  stale : int;  (** Entries evicted because content no longer matched key. *)
  rejected : int;  (** Planes refused by the sanitize-on-insert gate. *)
}

val stats : t -> stats
