(** Structured hard instances for the triangle query
    [q6 = R(x | yz) ∧ R(z | xy)], built from triple systems.

    For [q6], every solution pair lies inside the 3-clique of facts obtained
    by rotating a triple [(α, β, γ)]:
    [R(α | βγ)], [R(γ | αβ)], [R(β | γα)]. A database made of such rotation
    cliques is certain iff no {e system of distinct representatives} assigns
    each block (key) a triple — i.e. iff Hall's condition fails in the
    key/triple incidence bipartite graph. Combinatorial designs with good
    expansion make that global argument invisible to local propagation, which
    is exactly what Theorem 14 needs: instances where CERTAIN holds but
    [Cert_k] answers no. *)

(** [db_of_triples ts] is the [q6]-database of all rotation cliques: for
    each triple [(a, b, c)], the facts [R(a | b c)], [R(c | a b)] and
    [R(b | c a)]. *)
val db_of_triples : (int * int * int) list -> Relational.Database.t

(** The seven lines of the Fano plane (each point on three lines). *)
val fano_lines : (int * int * int) list

(** [fano_minus i] drops the [i]-th line: seven keys compete for six
    triples, so [q6] is certain — yet [Cert_2] fails on it while [Cert_3]
    succeeds (verified in the test suite).
    @raise Invalid_argument if [i] is outside [0, 6]. *)
val fano_minus : int -> Relational.Database.t

(** Two opposite orientations of one triangle: three keys, two triples.
    [q6] is certain but [Cert_1] fails (and [Cert_2] succeeds) — the
    smallest member of the Theorem 14 family. *)
val two_orientations : Relational.Database.t

(** [rotation_system rng ~n_keys ~n_triples] draws a random triple system
    database, the workload for the matching-algorithm benchmarks. *)
val rotation_system :
  Random.State.t -> n_keys:int -> n_triples:int -> Relational.Database.t
