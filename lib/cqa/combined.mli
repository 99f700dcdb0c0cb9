(** The combined polynomial-time decision procedure of Theorem 18:
    [Cert_k(q) ∨ ¬Matching(q)].

    For 2way-determined queries with no fork-tripath this computes CERTAIN(q)
    exactly, with [k = 2^(2κ+1) + κ - 1] (the paper's non-optimal bound); the
    implementation takes [k] as a parameter since small values of [k] already
    suffice on all known instances. The procedure is a sound
    under-approximation of CERTAIN(q) for {e every} query, because both
    disjuncts are. *)

(** [run ~k g] is [Cert_k(q) ∨ ¬Matching(q)] on a solution graph. Both
    disjuncts run under [budget]: [Cert_k] ticks at site ["certk"], the
    matching disjunct at site ["matching"].
    @raise Harness.Budget.Budget_exceeded when [budget] runs out. *)
val run : ?budget:Harness.Budget.t -> k:int -> Qlang.Solution_graph.t -> bool

(** Which disjunct answered, for explanation output. *)
type witness =
  | Via_certk  (** [Cert_k] derived the empty set. *)
  | Via_matching  (** No saturating matching exists. *)
  | Neither  (** Both algorithms answered no. *)

val explain : ?budget:Harness.Budget.t -> k:int -> Qlang.Solution_graph.t -> witness
