(** [Cert_2] as an inflationary first-order fixpoint, literally.

    Section 5 of the paper remarks that "the initial and inductive steps
    \[of the greedy fixpoint algorithm\] can be expressed in FO". This
    module runs that observation: the database is encoded as a finite
    structure over the facts, with relations

    - [Sol(x, y)] — the directed solutions, including self-solutions;
    - [SameBlock(x, y)] — key-equality;
    - [Delta0/Delta1/Delta2] — the fixpoint family [Δ_2(q, D)] stratified by
      set size (the Boolean [Delta0] is a nullary relation stored as a
      0-tuple),

    and one FO update formula per size is evaluated by the generic model
    checker {!Folog.Eval} and iterated inflationarily until nothing changes.
    The answer is [Delta0]. Polynomially slower than {!Certk} but an
    independent implementation straight from the paper's description —
    property-tested equal to both {!Certk} and {!Certk_naive}. *)

(** The update formulas, for inspection: [(step0, step1, step2)] with free
    variables [()], [(x)] and [(x, y)] respectively. *)
val formulas : unit -> Folog.Formula.t * Folog.Formula.t * Folog.Formula.t

(** [structure g] encodes a solution graph as a finite structure (without
    the [Delta] relations). *)
val structure : Qlang.Solution_graph.t -> Folog.Structure.t

(** [run g] computes [D ⊨ Cert_2(q)] by the FO fixpoint. *)
val run : Qlang.Solution_graph.t -> bool
