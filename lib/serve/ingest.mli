(** Structured database and query ingestion, shared by the serve frame
    decoder and the CLI.

    Before this module, malformed facts and schema violations surfaced as a
    mix of raw parse errors and bare [Invalid_argument] noise, formatted
    differently by every command that read a database. Both front ends now
    route ingestion through one total function: any failure — a parse error
    with its source position, an undeclared relation, an arity mismatch, a
    fact cap overflow — becomes a {!Protocol.error} whose stable code maps
    to the documented exit contract (always exit 2, except [db-too-large]
    which the daemon also answers with exit 2). Nothing escapes as an
    exception. *)

(** [database ?max_facts text] parses and validates a database file body
    (one fact per line, [#] comments, optional [R\[k,l\]] schema
    declarations). [Error {code = Bad_db; _}] on malformed input or schema
    violations; [Error {code = Db_too_large; _}] when the parsed database
    holds more than [max_facts] facts (no cap by default). *)
val database :
  ?max_facts:int ->
  string ->
  (Relational.Database.t, Protocol.error) result

(** [facts text] parses the facts body of an [update] op: one fact per
    line, [#] comments and blank lines tolerated, {e no} schema
    declarations. Each fact comes with its inferred key length (bar
    position), if written with one, so the caller can cross-check it
    against the target database's schema. [Error {code = Bad_db; _}] with
    the offending line number on malformed input. *)
val facts :
  string ->
  ((Relational.Fact.t * int option) list, Protocol.error) result

(** [key_markers db parsed] checks the key lengths that {!facts} inferred
    from bar positions against [db]'s schemas: [Error {code = Bad_db; _}]
    naming the first fact whose bar disagrees. Facts written without a bar,
    and facts of undeclared relations (left to the delta's own error), pass. *)
val key_markers :
  Relational.Database.t ->
  (Relational.Fact.t * int option) list ->
  (unit, Protocol.error) result

(** [query src] parses a two-atom self-join query;
    [Error {code = Bad_query; _}] with the parser's positioned message. *)
val query : string -> (Qlang.Query.t, Protocol.error) result
