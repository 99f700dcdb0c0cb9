(** Value interning: dense integer ids for {!Value.t}.

    The compiled execution plane ({!Compiled}) replaces every structural
    [Value.compare] with an [int] comparison; the interner is the bridge. Ids
    are assigned densely in first-intern order starting from [0], so a plane
    compiled from a database assigns ids deterministically (facts are
    interned in sorted fact order, positions left to right) and an [int
    array] indexed by id is a valid side table for the whole domain.

    An interner is a mutable append-only table: values are never forgotten,
    and an id, once assigned, always resolves to the same value.

    The reverse map is open addressing over two flat arrays: a slot array
    of [id + 1] entries ([0] is empty), probed linearly from
    {!Value.hash} and doubled whenever its load would pass 1/2, and the
    value array indexed by id. A table starts small and grows with what is
    interned, so a plane's interner is sized by its active domain, not by
    its fact count. *)

type t

(** [create ()] is an empty interner. *)
val create : unit -> t

(** [intern t v] is the id of [v], assigning the next dense id on first
    sight. A value already interned allocates nothing. *)
val intern : t -> Value.t -> int

(** [find t v] is the id of [v] if it has been interned, without assigning
    one. This is how compiled query patterns translate constants: a constant
    absent from the interner occurs nowhere in the database and the pattern
    can be declared unsatisfiable up front. *)
val find : t -> Value.t -> int option

(** [copy t] is an independent interner with the same id [<->] value
    assignment: interning new values in the copy never disturbs [t]. It is
    two array copies (the slots and the values), allocating no cell per
    value. This is
    how {!Compiled.apply_delta} minds the copy-on-patch discipline — a delta
    that mints fresh ids works on a copied interner, so the pre-delta plane
    (whose [adom] length must equal its interner's size) stays valid even if
    the patch is abandoned halfway. *)
val copy : t -> t

(** [value t id] resolves an id back to its value.
    @raise Invalid_argument if [id] was never assigned. *)
val value : t -> int -> Value.t

(** Number of interned values (ids are [0 .. size - 1]). *)
val size : t -> int

(** [iter f t] applies [f id value] in increasing id order. *)
val iter : (int -> Value.t -> unit) -> t -> unit

(** [unsafe_alias t ~keep ~clobber] overwrites the value slot of id
    [clobber] with the value of id [keep] {e without} touching the reverse
    map — deliberately breaking the id [<->] value bijection so that
    [value t clobber] resolves to a value whose id is [keep]. This is a
    corruption operator for the sanitizer's mutation suite
    ([Analysis.Sanitize] must reject the resulting plane with PL100); it has
    no legitimate production use.
    @raise Invalid_argument if either id was never assigned. *)
val unsafe_alias : t -> keep:int -> clobber:int -> unit
