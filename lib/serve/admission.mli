(** Tier-aware admission control: the dichotomy as an SLO.

    The classifier splits every query into a PTIME tier ({!Fast}) and a
    coNP-complete tier ({!Heavy}); this module turns that split into the
    daemon's load-shedding policy. A token bucket holds a budget of "heavy
    work units" refilled at a constant rate: fast requests are always
    admitted (the polynomial algorithms {e are} the fast path — declining
    them buys nothing), while a heavy request must afford a full unit. When
    the bucket cannot cover one, the request is {e downgraded} to a
    Monte-Carlo estimate (a cheaper, explicitly degraded answer costing a
    fraction of a unit), and when it cannot even cover that, the request is
    {e shed} with an [overloaded] response. Under a saturating coNP
    workload the daemon therefore keeps answering — with estimates, then
    refusals — instead of queueing without bound.

    The clock is injectable so tests can pin the refill; decisions and
    counters are deterministic given the request sequence and clock. The
    refill is robust to clocks that step backwards: a negative elapsed span
    credits nothing and does not rewind the refill watermark, so a recovered
    clock never re-credits time it already paid out. *)

type tier = Fast | Heavy

(** Order of degradation: admit, else downgrade, else shed. *)
type decision = Admit | Downgrade | Shed

val tier_name : tier -> string
val decision_name : decision -> string

type config = {
  capacity : float;  (** Bucket capacity in heavy units (burst headroom). *)
  refill_per_s : float;  (** Heavy units restored per second. *)
  heavy_cost : float;  (** Cost of an admitted coNP-tier solve. *)
  fast_cost : float;
      (** Cost of a PTIME-tier solve (small but nonzero: a flood of fast
          requests still drains headroom for heavy ones). *)
  estimate_cost : float;  (** Cost of a downgraded Monte-Carlo estimate. *)
}

(** Capacity 8, refill 4/s, costs 1 / 0.02 / 0.25. *)
val default_config : config

type t

(** [make ?clock config] — [clock] defaults to {!Harness.Clock.now}, the
    monotonic clock, so the bucket is immune to wall-clock steps unless a
    stepping clock is injected deliberately — and even then {!decide} never
    credits a backwards step.
    @raise Invalid_argument on non-positive capacity or costs, a negative
    refill rate, or costs that do not satisfy
    [estimate_cost <= heavy_cost]. *)
val make : ?clock:(unit -> float) -> config -> t

(** [decide t tier] refills the bucket from the clock, charges the tier's
    cost, and returns the decision. Fast requests always admit. *)
val decide : t -> tier -> decision

(** Remaining tokens (after the refill implied by the last {!decide}). *)
val tokens : t -> float

(** Decision counters, in decision order. *)
val admitted : t -> int

val downgraded : t -> int
val shed : t -> int
