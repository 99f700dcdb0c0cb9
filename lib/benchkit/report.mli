(** Machine-readable benchmark reports ([BENCH_certk.json]).

    The document is versioned JSON produced with the project's own
    {!Analysis.Json}; {!decode} is the strict inverse of {!encode}, and
    {!validate_round_trip} (exercised by [cqa bench] and the [@bench-smoke]
    alias) guarantees that what lands on disk parses back to the identical
    report.

    Schema (version 6, one object per file; v2 added the per-run ["sites"]
    object, v3 the compile-phase split, v4 an incremental-maintenance
    split, v5 the observability-overhead split, v6 an evaluation-VM split;
    the v4 and v6 fields are no longer written. Older documents still
    decode, with empty sites and absent compile/obs fields, and the decoder
    ignores the [delta_*] fields of v4–v6 documents and the VM fields of
    older v6 ones):
    {v
    { "schema_version": 6,
      "suite": "certk-fixpoint" | "obs-overhead",
      "profile": "smoke" | "default",
      "seed": <int>,
      "cases": [
        { "name": <string>, "query": <string>, "k": <int>,
          "n_facts": <int>, "n_blocks": <int>, "budget_s": <float>,
          "compile_ms": <float> | null,
          "runs": [
            { "algorithm": <string>, "status": "ok" | "timeout",
              "median_ms": <float>, "repeats": <int>,
              "certain": <bool> | null, "steps": <int>,
              "sites": { <site>: <int>, ... } } ],
          "speedup_vs_rounds": <float> | null,
          "speedup_e2e": <float> | null,
          "plane_equivalent": <bool> | null,
          "obs_overhead_pct": <float> | null } ],
      "summary": { "cases": <int>, "agreement": <bool>,
                   "plane_equivalence": <bool> | null,
                   "geomean_speedup_vs_rounds": <float> | null,
                   "geomean_e2e": <float> | null,
                   "obs_overhead_pct": <float> | null,
                   "obs_bar_pct": <float> | null,
                   "obs_within_bar": <bool> | null } }
    v} *)

val schema_version : int

type run = {
  algorithm : string;
  status : string;  (** ["ok"] or ["timeout"]. *)
  median_ms : float;
  repeats : int;
  certain : bool option;  (** The verdict; [None] on timeout. *)
  steps : int;  (** Budget ticks spent (max over repeats). *)
  sites : (string * int) list;
      (** Per-site breakdown of [steps] (hottest first), naming the
          {!Harness.Sites} tick sites the algorithm burned its budget in. *)
}

type case = {
  name : string;
  query : string;  (** Concrete syntax, re-parseable with [Qlang.Parse]. *)
  k : int;
  n_facts : int;
  n_blocks : int;
  budget_s : float;
  compile_ms : float option;
      (** Median wall-clock of compiling the case's database to the
          execution plane and building the solution graph on it — the
          one-off cost the compiled end-to-end runs amortise. [None] in
          pre-v3 documents. *)
  runs : run list;
  speedup_vs_rounds : float option;
      (** [rounds.median_ms / delta.median_ms] when both completed. *)
  speedup_e2e : float option;
      (** End-to-end persistent-plane vs compiled-plane speedup:
          [e2e-persistent.median_ms / e2e-compiled.median_ms], both runs
          rebuilding their graph from scratch each repeat. [None] in
          pre-v3 documents. *)
  plane_equivalent : bool option;
      (** The compiled-plane solution graph is structurally identical
          ({!Qlang.Solution_graph.equal}) to the persistent-plane
          reference one. [None] in pre-v3 documents. *)
  obs_overhead_pct : float option;
      (** Worst instrumented-vs-control slowdown of the case, in percent:
          [max] over the instrumented variants (sharded metrics, journal,
          both) of [(variant median / control median - 1) * 100], the
          control being the identical solve with no observability attached.
          [None] outside the [obs-overhead] suite and in pre-v5
          documents. *)
}

type t = {
  suite : string;
  profile : string;
  seed : int;
  cases : case list;
  agreement : bool;
      (** All completed algorithms agreed on every case's verdict. *)
  plane_equivalence : bool option;
      (** [plane_equivalent] held on every case ([None] pre-v3). A [false]
          here fails [cqa bench] and the [@bench-smoke] alias. *)
  geomean_speedup : float option;
      (** Geometric mean of the per-case speedups. *)
  geomean_e2e : float option;
      (** Geometric mean of the per-case end-to-end speedups. *)
  obs_overhead_pct : float option;
      (** Worst per-case [obs_overhead_pct] across the suite ([None]
          outside the [obs-overhead] suite). *)
  obs_bar_pct : float option;
      (** The acceptance bar the suite was run against (5% by default). *)
  obs_within_bar : bool option;
      (** [obs_overhead_pct <= obs_bar_pct]. A [false] here fails
          [cqa bench] and the [@bench-smoke] alias, exactly like
          [plane_equivalence]. *)
}

val encode : t -> Analysis.Json.t
val decode : Analysis.Json.t -> (t, string) result
val to_string : t -> string
val of_string : string -> (t, string) result
val equal : t -> t -> bool

(** Serialise, re-parse, compare. *)
val validate_round_trip : t -> (unit, string) result

(** [write path t] writes the compact JSON document plus a final newline. *)
val write : string -> t -> unit
