(** Concrete syntax for queries, facts and databases.

    Query syntax mirrors the paper's underlined-key notation using a bar:

    {v R(x u | x y) R(u y | x z) v}

    denotes [q2 = R(xu xy) ∧ R(uy xz)] over signature [\[4, 2\]]. The two
    atoms may be separated by whitespace, [","], ["&&"] or ["/\\"]. Tokens
    starting with a lowercase letter or [_] are variables; integers and
    capitalised or quoted tokens are constants. The bar may be omitted when
    all positions are key positions.

    Fact and database syntax uses the same shape with values only:

    {v
    # blocks of R[2,1]
    R(1 | a)
    R(1 | b)
    R(2 | a)
    v}

    A database file may start with schema declarations [R\[k,l\]]; otherwise
    the schema is inferred from the first fact of each relation together with
    the mandatory bar.

    All parse failures carry a source {!position} (1-based line and column)
    whenever one is known, so front-ends — and the query linter — can point at
    the offending token instead of echoing a bare message. *)

(** A 1-based source position. For multi-line inputs (database files, linted
    query files) [line] refers to the original input, comments included. *)
type position = { line : int; col : int }

(** A coarse classification of parse failures:
    - [Lex]: an unexpected character;
    - [Syntax]: a malformed atom, fact or file;
    - [Mismatch]: both atoms parsed but do not form a self-join pair
      (different relation symbols, arities, or key separators) — the linter's
      QL003. *)
type error_kind = Lex | Syntax | Mismatch

type error = { message : string; position : position option; kind : error_kind }

(** ["line 2, col 7: unexpected character '%'"] — or the bare message when no
    position is known. *)
val error_to_string : error -> string

(** [query s] parses a two-atom self-join query. *)
val query : string -> (Query.t, error) result

(** Source positions of one parsed atom: the relation symbol and each
    argument in order (key positions first). *)
type atom_span = { rel_pos : position; arg_positions : position list }

type query_spans = { span_a : atom_span; span_b : atom_span }

(** [query_spanned s] is {!query} together with the source positions of both
    atoms — the linter's anchor for per-argument diagnostics. *)
val query_spanned : string -> (Query.t * query_spans, error) result

(** [query_exn s] is [query] raising [Invalid_argument]. *)
val query_exn : string -> Query.t

(** [fact s] parses a single fact such as [R(1 2 | a b)], returning the fact
    and its inferred key length (position of the bar), if a bar is present.
    It is the reader {!database} runs on each fact line: each value is
    built from its identifier's bytes, with no token list. As if [s] were
    lexed whole before it is parsed, an illegal character anywhere in [s]
    is the error, over any earlier syntax error. *)
val fact : string -> (Relational.Fact.t * int option, error) result

(** [key_marker_error schema f bar] is the message refusing fact [f] when
    its bar (the key length {!fact} read) disagrees with [schema]:
    ["fact R(1 2) declares key length 2 but schema R has 1"]. [None] when
    they agree or [f] has no bar. *)
val key_marker_error :
  Relational.Schema.t -> Relational.Fact.t -> int option -> string option

(** [database s] parses a database file: one fact per line, [#] comments,
    optional [R\[k,l\]] schema declarations. Errors point at the offending
    line of the file. A fact's bar must agree with its relation's schema,
    declared or inferred from the relation's first barred fact: a fact of
    the schema's arity that contradicts it is refused at its line, column
    1, in {!key_marker_error}'s words (a fact of another arity keeps the
    database's wrong-arity error). *)
val database : string -> (Relational.Database.t, error) result

val database_exn : string -> Relational.Database.t

(** [csv ~schema s] loads a single relation from CSV text: one row per fact,
    [separator]-separated values (default [',']), columns in schema position
    order. Numeric cells become integer values, other cells strings; cells
    may be double-quoted. A first row that repeats the relation's column
    count but matches no data shape is {e not} skipped — strip headers before
    calling, or pass [skip_header:true]. *)
val csv :
  ?separator:char ->
  ?skip_header:bool ->
  schema:Relational.Schema.t ->
  string ->
  (Relational.Database.t, error) result
