(** The dichotomy classifier (Theorem 1, via the decision procedure of
    Section 3).

    Given a two-atom self-join query [q], decide whether CERTAIN(q) is in
    PTIME or coNP-complete, and {e which} polynomial-time algorithm computes
    it in the former case:

    + [q] equivalent to a one-atom query: trivial, PTIME.
    + Theorem 3 syntactic conditions hold: coNP-complete (self-join-free
      reduction).
    + Theorem 4 hypothesis holds (condition (1) of Theorem 3 fails):
      PTIME, computed by [Cert_2].
    + Otherwise [q] is 2way-determined and tripaths decide:
      fork-tripath → coNP-complete (Theorem 12); no tripath → PTIME by
      [Cert_k] (Theorem 9); triangle-tripath only → PTIME by
      [Cert_k ∨ ¬Matching] (Theorem 18), with [Cert_k] alone provably
      insufficient (Theorem 14).

    Tripath existence is decided by the bounded symbolic search of
    {!Tripath_search}; a [No_tripath]-based verdict therefore carries a
    [bounded_search = true] flag: it is exact for every query of the paper's
    catalogue, and in general sound for "Found" and bounded-complete for
    "not found". A search that runs out of budget raises instead of
    returning "not found", so no verdict rests on an exhausted budget. *)

type ptime_method =
  | Trivial of Qlang.Query.triviality
      (** Equivalent to a one-atom query; constant-per-block test. *)
  | Cert2  (** Theorem 4: [Cert_2] is exact. *)
  | Certk_no_tripath  (** Theorem 9: [Cert_k] is exact; no tripath. *)
  | Combined_triangle of Tripath.t
      (** Theorem 18: [Cert_k ∨ ¬Matching] is exact; the witness
          triangle-tripath shows [Cert_k] alone is not (Theorem 14). *)

type hardness =
  | Sjf_hard  (** Theorem 3 via the Kolaitis–Pema dichotomy. *)
  | Fork_tripath of Tripath.t  (** Theorem 12; the witness fork-tripath. *)

type verdict = Ptime of ptime_method | Conp_complete of hardness

type report = {
  query : Qlang.Query.t;
  verdict : verdict;
  certificate : Certificate.t;
      (** The machine-checkable evidence backing [verdict]: evaluated
          condition atoms, triviality derivation, witness tripath, or the
          search bounds behind a non-existence claim. Re-validated
          independently by the [Analysis.Check] kernel. *)
  two_way_determined : bool;
  bounded_search : bool;
      (** The verdict relies on a tripath {e non}-existence within the search
          bounds. *)
}

(** [classify ?opts ?timeout q] runs the decision procedure. A
    2way-determined query runs its fork search, then its triangle search,
    on one {!Tripath_search.budget}: at most [opts.max_candidates] nodes in
    all and, with [timeout], a deadline that many seconds from now.
    @raise Harness.Budget.Budget_exceeded ([Steps] or [Deadline]) when
    that budget runs out before the searches end. *)
val classify :
  ?opts:Tripath_search.options -> ?timeout:float -> Qlang.Query.t -> report

val pp_verdict : Format.formatter -> verdict -> unit
val pp_report : Format.formatter -> report -> unit

(** [explain ppf report] prints the full decision trace: the variable and
    key sets of both atoms, the triviality analysis, which Theorem 3
    conditions hold, 2way-determinacy, and the tripath findings backing the
    verdict (including the witness tripath, when there is one). *)
val explain : Format.formatter -> report -> unit

(** One-line summary, e.g. ["coNP-complete (fork-tripath)"]. *)
val verdict_summary : verdict -> string
