(** The pre-worklist [Cert_k] fixpoint, frozen as a correctness oracle.

    This is the antichain implementation that {!Certk} used before it became
    delta-driven: every round re-derives {e every} block against the whole
    antichain, and k-sets are compared as sorted integer lists rather than
    interned ids. It computes exactly the same fixpoint, and the
    differential and delta tests use it (together with {!Certk_naive} and
    {!Exact}) as an independent oracle. No benchmark times it any more.

    Do not "optimise" this module: its value is precisely that it stays an
    independent, unchanged implementation. *)

(** [run ?budget ~k g] runs the round-driven fixpoint on a solution graph.
    Budget ticks are spent at site ["certk-rounds"], one per derivation step, like
    {!Certk.run}.
    @raise Harness.Budget.Budget_exceeded when [budget] runs out.
    @raise Invalid_argument when [k < 1]. *)
val run : ?budget:Harness.Budget.t -> k:int -> Qlang.Solution_graph.t -> bool

(** [derived ~k g] is the minimal antichain of the fixpoint, as sorted vertex
    lists in lexicographic order — comparable 1:1 with {!Certk.derived}. *)
val derived : k:int -> Qlang.Solution_graph.t -> int list list
