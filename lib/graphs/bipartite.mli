(** Bipartite graphs with integer-indexed sides.

    Side [U] has vertices [0 .. n_left - 1], side [V] has vertices
    [0 .. n_right - 1]; edges go between the sides. This is the input to the
    matching algorithms used by the [Matching(q)] certain-answer algorithm of
    Section 10.1 (the paper cites Hopcroft–Karp [5]).

    The edges are stored in compressed sparse rows (CSR): the
    right-neighbours of [u] are [targets.(offsets.(u))] up to
    [targets.(offsets.(u + 1) - 1)], ascending and without repeats. Two int
    arrays hold the whole graph, so a matching walks a row with no list and
    no allocation. *)

type t = private {
  n_left : int;
  n_right : int;
  offsets : int array;
      (** [n_left + 1] entries: row [u] is [offsets.(u) .. offsets.(u + 1) - 1]
          of [targets]; [offsets.(0) = 0], [offsets.(n_left)] is the edge count. *)
  targets : int array;  (** The right-neighbours, row after row, each row ascending. *)
}

(** [make ~n_left ~n_right edges] builds a graph from an edge list, in any
    order. Duplicate edges are collapsed.
    @raise Invalid_argument on out-of-range endpoints or negative sizes. *)
val make : n_left:int -> n_right:int -> (int * int) list -> t

(** [of_csr ~n_right ~offsets ~targets] takes the two arrays as they are
    (not copied); [n_left] is [Array.length offsets - 1]. For callers that
    can fill the rows directly, with no edge list.
    @raise Invalid_argument unless [offsets] starts at 0, never decreases
    and ends at [Array.length targets], and every row is strictly ascending
    within [0 .. n_right - 1]. *)
val of_csr : n_right:int -> offsets:int array -> targets:int array -> t

val n_edges : t -> int
val mem_edge : t -> int -> int -> bool
val pp : Format.formatter -> t -> unit
