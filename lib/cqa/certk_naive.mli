(** Textbook reference implementation of [Cert_k(q)] (Section 5), kept as an
    oracle for the optimised antichain implementation in {!Certk}.

    It materialises {e all} k-sets of the database and computes the
    inflationary fixpoint [Δ_k(q, D)] literally: initialise with the k-sets
    satisfying [q]; repeatedly add a k-set [S] whenever some block [B] is
    such that every [u ∈ B] has some [S' ⊆ S ∪ {u}] already in the fixpoint;
    answer yes iff [∅] enters the fixpoint. Exponential in [k] — use only on
    small instances (the implementation refuses more than [10^6] candidate
    k-sets). *)

(** [run ~k g] computes [D ⊨ Cert_k(q)] by the literal definition. One
    budget tick (site ["certk-naive"]) is spent per candidate k-set and per
    fixpoint probe.
    @raise Invalid_argument if [k < 1] or the instance has too many k-sets.
    @raise Harness.Budget.Budget_exceeded when [budget] runs out. *)
val run : ?budget:Harness.Budget.t -> k:int -> Qlang.Solution_graph.t -> bool

(** [delta ~k g] exposes the full fixpoint (sorted vertex lists). *)
val delta :
  ?budget:Harness.Budget.t -> k:int -> Qlang.Solution_graph.t -> int list list
