(** In-memory databases: finite sets of facts over declared schemas.

    Databases may be inconsistent (contain distinct key-equal facts); that is
    the whole point of the library. A database may span several relations —
    the self-join-free reduction of Proposition 2 needs databases over two
    relation symbols [R1] and [R2]. *)

type t

(** [empty schemas] is the empty database over the given relations.
    @raise Invalid_argument on duplicate relation names or empty schema list. *)
val empty : Schema.t list -> t

(** [add db f] adds fact [f]. Adding an already-present fact is a no-op.
    @raise Invalid_argument if [f]'s relation is undeclared or its arity is
    wrong. *)
val add : t -> Fact.t -> t

val remove : t -> Fact.t -> t

(** [check_fact db f] validates [f] against the declared schemas without
    touching the database, raising exactly the structured [Invalid_argument]
    that {!add} would — the shared validation of every delta path.
    @raise Invalid_argument if [f]'s relation is undeclared or its arity is
    wrong. *)
val check_fact : t -> Fact.t -> unit

(** [of_facts schemas facts] is [List.fold_left add (empty schemas) facts]. *)
val of_facts : Schema.t list -> Fact.t list -> t

val mem : t -> Fact.t -> bool

(** Number of facts, in O(1): the count is kept by every constructor. *)
val size : t -> int

val is_empty : t -> bool
val facts : t -> Fact.t list
val fact_set : t -> Fact.Set.t
val schemas : t -> Schema.t list

(** [schema db rel] is the schema of relation [rel].
    @raise Invalid_argument if undeclared ("Database: undeclared relation
    ..."), the same structured error [add] raises — never a bare
    [Not_found], so CLI error guards report it as a user-input error. *)
val schema : t -> string -> Schema.t

(** [schema_of db f] is the schema governing fact [f].
    @raise Invalid_argument if [f]'s relation is undeclared. *)
val schema_of : t -> Fact.t -> Schema.t

(** All blocks of the database, over all relations, in (relation, key)
    order. *)
val blocks : t -> Block.t list

(** [block_count db] is [List.length (blocks db)] without materializing the
    block list (the count is the index cardinality). *)
val block_count : t -> int

(** [fold_blocks f acc db] folds over the blocks in the same (relation, key)
    order as {!blocks}, without materializing the list. *)
val fold_blocks : ('a -> Block.t -> 'a) -> 'a -> t -> 'a

(** [block_of db f] is the block of [f] in [db] (whether or not [f] is in
    [db]: the block of facts of [db] key-equal to [f], which may be empty and
    is then returned as [None]). *)
val block_of : t -> Fact.t -> Fact.t list

(** [siblings db f] are the facts of [db] key-equal to [f], excluding [f]. *)
val siblings : t -> Fact.t -> Fact.t list

(** A database is consistent iff no block has two distinct facts. *)
val is_consistent : t -> bool

(** [key_equal db f g] is [f ~ g] w.r.t. the schema of their relation. Facts
    over different relations are never key-equal. *)
val key_equal : t -> Fact.t -> Fact.t -> bool

(** [union d1 d2] merges two databases.
    @raise Invalid_argument if they declare conflicting schemas for the same
    relation name. *)
val union : t -> t -> t

(** [filter p db] keeps the facts satisfying [p]. *)
val filter : (Fact.t -> bool) -> t -> t

(** Set of all elements occurring in the database (active domain). *)
val adom : t -> Value.Set.t

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
