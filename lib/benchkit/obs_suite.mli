(** The observability-overhead benchmark ([cqa bench --profile obs-overhead],
    [BENCH_obs.json]): what the serving-grade observability plane costs.

    Each case runs the same seeded Cert_k solve under four variants that
    differ only in the observability attached to it:

    - [control] — no sink, no registry, no journal;
    - [metrics] — a {!Obs.Metrics.tick_sink} on the budget (one closure
      call per budget tick) plus a per-solve counter bump and histogram
      observation, i.e. what the daemon's registry costs;
    - [journal] — one {!Obs.Journal} [request.completed] event per solve,
      flushed to disk, i.e. what [--journal] costs;
    - [metrics+journal] — both.

    Variants are measured round-robin (repeat [r] of every variant before
    repeat [r+1] of any) with a minor collection before each timed region,
    and each region performs many solves so a per-solve journal flush is
    amortised the way a real request stream amortises it. The per-case
    overhead is the {e worst} instrumented-vs-control slowdown; the summary
    carries the worst case across the suite, the acceptance bar, and the
    verdict [obs_within_bar], a [false] of which fails [cqa bench].
    Instrumented variants must reproduce the control's verdict (the
    report's [agreement] bit). *)

type profile = Smoke | Default

val profile_name : profile -> string

(** The default acceptance bar: 5% worst-case overhead. *)
val default_bar_pct : float

(** [run ~profile ~seed ()] builds the seeded workload, measures the four
    variants and assembles a {!Report.t} (suite ["obs-overhead"]).
    [bar_pct] overrides the acceptance bar; [budget_s] caps each solve
    (an exhausted region records a timeout run and contributes no
    overhead). The journal variant writes to a temp file that is removed
    before returning. *)
val run :
  ?bar_pct:float ->
  ?budget_s:float ->
  profile:profile ->
  seed:int ->
  unit ->
  Report.t
