(** The query linter: stable diagnostic codes over parsed queries.

    Codes are stable identifiers (never renumbered) so editor integrations
    and CI policies can match on them:

    - [QL000] {e error} — the input does not parse (lexical or syntactic).
    - [QL001] {e warning} — a variable occurs exactly once in the query; it
      is existentially quantified away and can be replaced by a fresh
      variable name (or indicates a typo).
    - [QL002] {e warning} — a constant occurs in a key position; the paper's
      classification treats queries with constants soundly, but a constant
      key narrows the relation to a single block.
    - [QL003] {e error} — the two atoms do not form a self-join pair (the
      relation symbols, arities or key separators differ), so the query is
      outside the dichotomy's scope.
    - [QL004] {e info} — the verdict relies on tripath {e non}-existence
      within bounded search (Theorems 9/18); the message states the bounds.
    - [QL005] {e info} — the query is equivalent to a one-atom query
      (trivially PTIME); the two-atom classification machinery is not
      exercised.
    - [QL006] {e warning} — the two atoms are identical; the query is a
      roundabout spelling of a one-atom query.
    - [QL007] {e info} — CERTAIN(q) is coNP-complete; exact solving may
      take exponential time on adversarial databases.
    - [QL008] {e warning} — some block's size exceeds a threshold
      (database-aware; default 32): the repair space grows with the product
      of block sizes, which is what the coNP tier enumerates.
    - [QL009] {e info} — a relation of the database is never matched by
      either atom of the query (database-aware).
    - [QL010] {e warning} — the database is already consistent
      (database-aware): CERTAIN(q) coincides with standard evaluation.

    Exit-code contract of [cqa lint]: [0] when no diagnostic of severity
    {!Warning} or {!Error} was produced ({!Info} is fine), [1] otherwise,
    [2] on usage errors. *)

type severity = Error | Warning | Info

type diagnostic = {
  code : string;  (** ["QL000"] .. ["QL007"]. *)
  severity : severity;
  message : string;
  position : Qlang.Parse.position option;
      (** Source anchor, when the input came with positions. *)
}

val severity_to_string : severity -> string

(** Prints as ["2:7: warning QL002: ..."] (position prefix omitted when
    unknown). *)
val pp_diagnostic : Format.formatter -> diagnostic -> unit

(** [lint_spanned ?opts parsed] lints a query source from its
    {!Qlang.Parse.query_spanned} result, so a caller that needs the query
    too parses the source once; a parse failure becomes a single QL000 (or
    QL003, for self-join mismatches) diagnostic. Per-argument diagnostics
    carry source positions, and the classification-driven ones
    (QL004/QL005/QL007) run the {!Core.Dichotomy} classifier under
    [opts]. *)
val lint_spanned :
  ?opts:Core.Tripath_search.options ->
  (Qlang.Query.t * Qlang.Parse.query_spans, Qlang.Parse.error) result ->
  diagnostic list

(** [lint_database ?block_threshold ~query db] runs the database-aware
    lints (QL008/QL009/QL010) of [query] over the instance [db] — the
    [cqa lint --db] / [cqa analyze --db] path. [block_threshold] (default
    32) is the block size above which QL008 fires. *)
val lint_database :
  ?block_threshold:int ->
  query:Qlang.Query.t ->
  Relational.Database.t ->
  diagnostic list

(** The severity [cqa lint]'s exit code is computed from: [Some Error >
    Some Warning > Some Info > None]. *)
val max_severity : diagnostic list -> severity option
