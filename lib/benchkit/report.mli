(** Machine-readable reports of the observability-overhead benchmark
    ([BENCH_obs.json]).

    The document is versioned JSON produced with the project's own
    {!Analysis.Json}; {!decode} is the strict inverse of {!encode}, and
    {!validate_round_trip} (exercised by [cqa bench] and the [@bench-smoke]
    alias) guarantees that what lands on disk parses back to the identical
    report.

    Schema (version 7, one object per file). Version 7 is version 5 without
    the fields only the retired Cert_k suite filled; {!decode} also reads
    version 5 documents, such as the committed BENCH_obs.json, and ignores
    those fields:
    {v
    { "schema_version": 7,
      "suite": "obs-overhead",
      "profile": "smoke" | "default",
      "seed": <int>,
      "cases": [
        { "name": <string>, "query": <string>, "k": <int>,
          "n_facts": <int>, "n_blocks": <int>, "budget_s": <float>,
          "runs": [
            { "algorithm": <string>, "status": "ok" | "timeout",
              "median_ms": <float>, "repeats": <int>,
              "certain": <bool> | null, "steps": <int>,
              "sites": { <site>: <int>, ... } } ],
          "obs_overhead_pct": <float> | null } ],
      "summary": { "cases": <int>, "agreement": <bool>,
                   "obs_overhead_pct": <float> | null,
                   "obs_bar_pct": <float>,
                   "obs_within_bar": <bool> | null } }
    v} *)

val schema_version : int

type run = {
  algorithm : string;  (** The variant: ["control"], ["journal"], ... *)
  status : string;  (** ["ok"] or ["timeout"]. *)
  median_ms : float;
  repeats : int;
  certain : bool option;  (** The verdict; [None] on timeout. *)
  steps : int;  (** Budget ticks of one solve. *)
  sites : (string * int) list;
      (** Per-site breakdown of [steps] (hottest first), naming the
          {!Harness.Sites} tick sites the solve burned its budget in. *)
}

type case = {
  name : string;
  query : string;  (** Concrete syntax, re-parseable with [Qlang.Parse]. *)
  k : int;
  n_facts : int;
  n_blocks : int;
  budget_s : float;
  runs : run list;
  obs_overhead_pct : float option;
      (** Worst instrumented-vs-control slowdown of the case, in percent:
          [max] over the instrumented variants (metrics, journal,
          both) of [(variant median / control median - 1) * 100], the
          control being the identical solve with no observability attached.
          [None] when the control solve is too short to carry a
          percentage. *)
}

type t = {
  suite : string;
  profile : string;
  seed : int;
  cases : case list;
  agreement : bool;
      (** Every variant that finished reproduced the control's verdict. *)
  obs_overhead_pct : float option;
      (** Worst per-case [obs_overhead_pct] across the suite. *)
  obs_bar_pct : float;
      (** The acceptance bar the suite was run against (5% by default). *)
  obs_within_bar : bool option;
      (** [obs_overhead_pct <= obs_bar_pct]. A [false] here fails
          [cqa bench] and the [@bench-smoke] alias. *)
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
