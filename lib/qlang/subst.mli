(** Substitutions: finite maps from variables to terms.

    Substitutions are kept idempotent ({e fully applied}): no variable in the
    range is also in the domain. [extend] and [Unify] maintain this invariant,
    so [apply] never needs to chase chains. *)

type t

val empty : t
val is_empty : t -> bool

(** [find x s] is the binding of [x], if any. *)
val find : Term.var -> t -> Term.t option

(** [bindings s] lists the bindings in variable order. *)
val bindings : t -> (Term.var * Term.t) list

(** [apply_term s t] applies the substitution to a term. *)
val apply_term : t -> Term.t -> Term.t

(** [apply_atom s a] applies the substitution to every argument of [a]. *)
val apply_atom : t -> Atom.t -> Atom.t

(** [extend x t s] binds [x := t], first applying [s] to [t] and rewriting the
    existing range so idempotence is preserved. Binding [x] to [Var x] is the
    identity. Returns [None] if [x] is already bound to a different term. *)
val extend : Term.var -> Term.t -> t -> t option

val pp : Format.formatter -> t -> unit
