(** The plane sanitizer: validates every layout invariant of a compiled
    execution plane ({!Relational.Compiled}).

    Every verdict the system emits rests on structural invariants of the
    plane that nothing re-checks after compile time — and that ROADMAP item
    4 wants to drop bounds checks on top of. This module is the independent
    re-derivation: it recomputes each invariant from first principles (the
    solution-graph check even re-enumerates solutions on the {e persistent}
    plane through {!Qlang.Solutions.pairs}, the substitution-based oracle)
    and reports violations as {!Lint.diagnostic}s with stable codes. Its
    authority is established the same way {!Check}'s was: a mutation suite
    injects single-field corruptions into valid planes and asserts every
    mutant is rejected with the right code.

    Stable codes (all severity {e error}):

    - [PL100] — interner round trip is not a bijection: some id's value
      does not resolve back to that id.
    - [PL101] — [adom] is not exactly the dense id range
      [0 .. n_values - 1].
    - [PL102] — the fact array is not strictly sorted (out of order, or a
      duplicate fact).
    - [PL103] — some [tuples.(i)] is not the interned image of
      [facts.(i)] (wrong arity, or a cell that is not the fact value's id).
    - [PL104] — the relation mapping is inconsistent: [schemas] not
      strictly sorted by name, [rel_range] not a contiguous cover of the
      fact array, or some fact's [rel_of]/relation symbol/arity disagreeing
      with its schema.
    - [PL105] — [blocks] is not a partition of the fact indices (an index
      missing, repeated, out of range, or an empty block).
    - [PL106] — [block_of] disagrees with the partition.
    - [PL107] — block grouping is wrong: a block mixes facts of different
      relations or key prefixes, or splits a maximal key-equal run.
    - [PL108] — the solution graph is unsound against the independent
      enumeration: its directed solution list, adjacency, self-loops, or
      shared arrays disagree with {!Qlang.Solutions.pairs} on the
      decompiled database.
    - [PL109] — a delta-patched plane is not the delta image of the plane
      it patched: the schema set changed, the fact array disagrees with the
      authoring-plane [Delta.apply], or a pre-delta interner id was dropped
      or remapped (reported by {!check_delta}, not by {!run}).

    Pattern-program codes [PL110–PL113] are produced by
    {!Verify_pattern} and included by {!run} when a query is given.

    No function here ever raises: a check that itself crashes on a corrupt
    plane reports the crash as a diagnostic under that check's code. *)

(** [run ?query plane] runs every plane check (PL100–PL107). With [query]
    it additionally verifies the compiled pattern programs (PL110–PL113 via
    {!Verify_pattern}) and re-derives the solution graph to check soundness
    (PL108). Returns [[]] on a healthy plane. *)
val run : ?query:Qlang.Query.t -> Relational.Compiled.t -> Lint.diagnostic list

(** [analyze ?opts ?block_threshold ?sanitize ?db ?plane parsed] is the one
    static-analysis pass over a query source, the body of [cqa lint],
    [cqa analyze] and the serve [lint] and [analyze] ops. It takes the
    source's {!Qlang.Parse.query_spanned} result, so the source is parsed
    once for the lints, the compile and the caller's own choices. In order:
    the source lints ({!Lint.lint_spanned} under [opts]); when the source
    parses and [sanitize] holds (the default), {!run} with the query on
    [plane]; with [db], the database-aware lints ({!Lint.lint_database}
    under [block_threshold]). [plane] defaults to [db] compiled, or else to
    the empty instance of the query's schema, which still compiles the
    pattern programs and checks the whole pipeline; a caller that already
    holds the compiled plane of [db] passes both. An unparsable source is
    its QL000 or QL003 diagnostic alone, and nothing is compiled. *)
val analyze :
  ?opts:Core.Tripath_search.options ->
  ?block_threshold:int ->
  ?sanitize:bool ->
  ?db:Relational.Database.t ->
  ?plane:Relational.Compiled.t ->
  (Qlang.Query.t * Qlang.Parse.query_spans, Qlang.Parse.error) result ->
  Lint.diagnostic list

(** [check_graph plane q g] checks an already-built solution graph [g] of
    [q] over [plane] against the independent substitution-based enumeration
    (PL108 only). *)
val check_graph :
  Relational.Compiled.t ->
  Qlang.Query.t ->
  Qlang.Solution_graph.t ->
  Lint.diagnostic list

(** [check_delta ~before ~delta after] validates an incremental-maintenance
    step (PL109): [after] must be exactly the delta image of [before] —
    unchanged schemas, a fact array equal to [Delta.apply] on the decompiled
    authoring plane, and every pre-delta interner id preserved (retractions
    never shrink the interner). Combine with {!run}[ after] for the full
    post-delta invariant oracle; never raises. *)
val check_delta :
  before:Relational.Compiled.t ->
  delta:Relational.Delta.t ->
  Relational.Compiled.t ->
  Lint.diagnostic list

(** [gate plane] is the cheap admission subset: a pure int scan (tuple-cell
    ids in the interner domain, arities, relation ranges, block partition,
    [block_of], key grouping, dense [adom]) with no hashing and no
    re-enumeration, suitable for sanitize-on-insert in the serve plane
    cache. The end-to-end benchmark's traced runs report its cost as
    [sanitize.ms], next to [compile.ms]. [Error msg] carries the first
    violation as ["PLxxx: ..."]. *)
val gate : Relational.Compiled.t -> (unit, string) result
