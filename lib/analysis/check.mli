(** The trusted certificate checker.

    [Check] is the independent kernel of the audit story: it re-validates a
    {!Core.Certificate.t} against the query it claims to classify, using only

    - {!Qlang} set and homomorphism primitives (the six inclusions and the
      triviality claims are {e recomputed from scratch} here, on purpose
      duplicating the classifier's [Core.Syntactic] logic rather than calling
      it), and
    - the direct tripath-validity predicate {!Core.Tripath.check} for witness
      tripaths.

    It never consults the classifier's decision procedure, so a bug in
    [Core.Dichotomy] — or a tampered certificate — cannot vacuously pass.
    What the checker {e cannot} re-establish is a tripath {e non}-existence
    claim (that would require re-running the search); for those certificates
    it verifies that the claim is conditional on exactly the expected search
    bounds, keeping the audit honest about the one bounded step.

    A note on direction: the checker validates that the certificate's claims
    are {e true of the query}, not that they are what the classifier would
    have emitted. A mutation that rewrites a certificate into a different but
    equally valid derivation is accepted — only {e falsifying} mutations are
    rejected, which is exactly the guarantee a certificate is for. *)

(** The complexity class a certificate licenses. *)
type verdict_class = Ptime | Conp_complete

val verdict_class_to_string : verdict_class -> string

(** [check ?expected_bounds q cert] re-validates every claim of [cert]
    against [q] in one pass and returns the complexity class the certificate
    licenses, or the list of violated conditions. [expected_bounds] (default:
    the bounds of {!Core.Tripath_search.default_options}) is what a
    non-existence claim must be conditional on. *)
val check :
  ?expected_bounds:Core.Certificate.bounds ->
  Qlang.Query.t ->
  Core.Certificate.t ->
  (verdict_class, string list) result

(** [audit_report ?expected_bounds r] checks [r]'s certificate against [r]'s
    query and then audits the report itself: the verdict must be the one the
    certificate licenses (same class, matching method, identical witness
    tripath) and the [two_way_determined] / [bounded_search] flags must agree
    with the certificate kind. This is the predicate the solver's
    [--verify-certificate] gate runs before trusting a PTIME-tier result. *)
val audit_report :
  ?expected_bounds:Core.Certificate.bounds ->
  Core.Dichotomy.report ->
  (unit, string list) result
