(** Machine-checkable classification certificates.

    Every {!Dichotomy} verdict is backed by a certificate: the syntactic
    facts that licensed it, in a shape an {e independent} checker (the
    [Analysis.Check] kernel) can re-validate from the query alone — the same
    move the Koutris–Wijsen LogSpace work makes by pinning complexity claims
    to explicit syntactic witnesses. A certificate is either

    - a {e triviality derivation} (the query is equivalent to a one-atom
      query);
    - the evaluated {e Theorem 3 condition atoms} — which of the six
      [key(·)/shared ⊆ ·] inclusions held — establishing coNP-hardness;
    - the same atoms plus the {e Theorem 4 orientation} (which disjunct of
      the hypothesis held), licensing [Cert_2];
    - a witness {e tripath} (fork: coNP-complete by Theorem 12; triangle:
      PTIME by Theorem 18), carried as its defining fact pattern; or
    - for verdicts relying on tripath {e non}-existence, the exact search
      bounds within which nothing was found (Theorems 9/18) — such a
      certificate is honest about being conditional on the bounds.

    The type is deliberately a plain data record: no closures, no references
    back into the classifier, so a certificate can be serialised, audited,
    and rejected when tampered with. *)

(** The six subset tests the classifier evaluates, where
    [shared = vars(A) ∩ vars(B)]. Condition (1) of Theorem 3 is the failure
    of the first four; condition (2) is the failure of one of the last two. *)
type inclusions = {
  shared_in_key_a : bool;  (** [shared ⊆ key(A)] *)
  shared_in_key_b : bool;  (** [shared ⊆ key(B)] *)
  key_a_in_key_b : bool;  (** [key(A) ⊆ key(B)] *)
  key_b_in_key_a : bool;  (** [key(B) ⊆ key(A)] *)
  key_a_in_vars_b : bool;  (** [key(A) ⊆ vars(B)] *)
  key_b_in_vars_a : bool;  (** [key(B) ⊆ vars(A)] *)
}

(** Which disjunct of the Theorem 4 hypothesis held — the {e orientation}:
    the first two apply the theorem with the atoms as given resp. swapped via
    the key-inclusion disjunct, the last two via the shared-variables
    disjunct. *)
type thm4_orientation =
  | Key_a_in_key_b
  | Key_b_in_key_a
  | Shared_in_key_b
  | Shared_in_key_a

(** The tripath-search bounds backing a non-existence claim (a data mirror of
    {!Tripath_search.options}, kept separate so certificates do not capture
    live search state). *)
type bounds = {
  max_spine : int;
  max_arm : int;
  max_merges : int;
  max_candidates : int;
}

type t =
  | Trivial of Qlang.Query.triviality
  | Thm3_hard of inclusions
  | Thm4_ptime of inclusions * thm4_orientation
  | Fork_hard of inclusions * Tripath.t
  | Triangle_ptime of inclusions * Tripath.t * bounds
      (** The witness triangle; {e no fork}-tripath exists within [bounds]. *)
  | No_tripath_ptime of inclusions * bounds

(** [inclusions_of q] evaluates the six subset tests (emission side; the
    checker re-derives them independently). *)
val inclusions_of : Qlang.Query.t -> inclusions

(** The first orientation that holds, in the fixed order
    [Key_a_in_key_b, Key_b_in_key_a, Shared_in_key_b, Shared_in_key_a];
    [None] iff condition (1) of Theorem 3 holds. *)
val thm4_orientation_of : inclusions -> thm4_orientation option

val bounds_of_options : Tripath_search.options -> bounds

(** Accessors: [None] when the certificate kind does not carry the field. *)
val inclusions : t -> inclusions option

val tripath : t -> Tripath.t option
val search_bounds : t -> bounds option

(** Stable one-word tag of the certificate kind (used by the JSON encoder
    and the CLI): ["trivial"], ["thm3-hard"], ["thm4-ptime"], ["fork-hard"],
    ["triangle-ptime"], ["no-tripath-ptime"]. *)
val kind_name : t -> string

val pp_orientation : Format.formatter -> thm4_orientation -> unit
val pp_bounds : Format.formatter -> bounds -> unit
val pp : Format.formatter -> t -> unit
