(** The combined polynomial-time decision procedure of Theorem 18:
    [Cert_k(q) ∨ ¬Matching(q)].

    For 2way-determined queries with no fork-tripath this computes CERTAIN(q)
    exactly, with [k = 2^(2κ+1) + κ - 1] (the paper's non-optimal bound); the
    implementation takes [k] as a parameter since small values of [k] already
    suffice on all known instances. The procedure is a sound
    under-approximation of CERTAIN(q) for {e every} query, because both
    disjuncts are. *)

(** [run ~k g] is [Cert_k(q) ∨ ¬Matching(q)] on a solution graph, both
    disjuncts under [budget]: [Cert_k] runs first, ticking at site
    ["certk"], and the matching disjunct, at site ["matching"], only when
    [Cert_k] answers no.
    @raise Harness.Budget.Budget_exceeded when [budget] runs out. *)
val run : ?budget:Harness.Budget.t -> k:int -> Qlang.Solution_graph.t -> bool
