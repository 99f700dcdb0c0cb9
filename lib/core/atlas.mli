(** Exhaustive classification atlas of small queries.

    The paper's classification is effective; this module makes that concrete
    by enumerating {e every} two-atom self-join query over a given signature
    [\[arity, key_len\]] (variables only, up to variable renaming and up to
    the [AB ~ BA] symmetry) and classifying each one. The result is the
    complexity landscape of a whole query class — e.g. all 2-ary queries
    with unary keys — rather than a hand-picked catalogue.

    Enumeration uses restricted-growth strings: a query is a length-[2k]
    sequence of variable indices in canonical first-occurrence order; the
    [AB]/[BA] symmetry is broken by keeping the lexicographically smaller of
    the two canonical forms. *)

(** [enumerate ~arity ~key_len] lists all canonical queries of the
    signature. The count grows like the Bell number of [2 * arity]; guard
    yourself for arity above 4.
    @raise Invalid_argument on invalid signatures. *)
val enumerate : arity:int -> key_len:int -> Qlang.Query.t list

type entry = { query : Qlang.Query.t; report : Dichotomy.report }

(** Aggregated class sizes of an atlas. *)
type summary = {
  total : int;
  trivial : int;
  cert2 : int;  (** PTIME via Theorem 4. *)
  no_tripath : int;  (** PTIME via Theorem 9. *)
  triangle : int;  (** PTIME via Theorem 18. *)
  fork : int;  (** coNP-complete via Theorem 12. *)
  sjf_hard : int;  (** coNP-complete via Theorem 3. *)
}

(** [classify_all ?opts queries] classifies every query with
    {!Dichotomy.classify} under the tripath-search options [opts] (default
    {!Tripath_search.default_options}). *)
val classify_all : ?opts:Tripath_search.options -> Qlang.Query.t list -> entry list

val summarize : entry list -> summary
val pp_summary : Format.formatter -> summary -> unit
