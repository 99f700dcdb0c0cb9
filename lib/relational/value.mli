(** Domain elements of the relational substrate.

    The paper's constructions require structured elements: the reduction of
    Proposition 2 builds elements that are pairs [<variable, element>], and the
    3-SAT gadget of Theorem 12 uses triples such as [<C, C1, l>]. We therefore
    provide a small recursive value algebra with a total order, so pairs (and
    nested pairs encoding tuples) are first-class domain elements. *)

type t =
  | Int of int
  | Str of string
  | Pair of t * t

val int : int -> t
val str : string -> t
val pair : t -> t -> t

(** [triple a b c] encodes a 3-tuple as [Pair (a, Pair (b, c))]. *)
val triple : t -> t -> t -> t

(** [tag label v] tags a value with a string label; used to keep families of
    generated elements disjoint ([tag "x" v] never equals [tag "y" w]). *)
val tag : string -> t -> t

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** [to_token v] encodes [v] injectively into the identifier alphabet of
    database files (letters, digits, [_], ['], [-], [<], [>]): ints print
    plainly, pairs as [<a-b>], and every other character — as well as the
    leading digit of a digits-only string — as ['XX] hex escapes. Distinct
    values yield distinct tokens, so a database printed with [to_token]
    parses back with the same key-equality structure. *)
val to_token : t -> string

(** [add_token buf v] appends [to_token v] to [buf] without building the
    string: a nonnegative [Int]'s digits are written one by one. *)
val add_token : Buffer.t -> t -> unit

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
