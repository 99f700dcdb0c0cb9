(** Component partition of a database (the shape of Proposition 19).

    Two blocks are connected when some of their facts form a solution; the
    partition groups whole blocks by the connected components of that
    quotient of the solution graph. Solutions never cross components, so:

    - a repair of [D] falsifies [q] iff its restriction to every component
      falsifies [q]: [D ⊨ CERTAIN(q)] iff some component is certain
      (property (2) of Proposition 19);
    - [Cert_k] and [Matching] distribute over components (properties (3)
      and (4)).

    Proposition 19 additionally shows that for 2way-determined queries
    without fork-tripaths the components can be chosen so that each one has
    no tripath or is a clique-database; the integration tests check the
    behavioural consequences on the paper's examples. *)

(** [split q db] materialises the components as sub-databases (whole blocks,
    in component order). Their union is [db]. *)
val split : Qlang.Query.t -> Relational.Database.t -> Relational.Database.t list

(** [certain_by_components solve q db] decides CERTAIN(q) by applying the
    component-local decision procedure [solve] to each component: certain
    iff some component is certain. With an exact [solve] this is exact, and
    often exponentially faster than solving [db] whole. *)
val certain_by_components :
  (Relational.Database.t -> bool) ->
  Qlang.Query.t ->
  Relational.Database.t ->
  bool
