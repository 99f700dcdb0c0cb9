(** A process-local metrics registry: named counters and histograms with
    a single writer.

    Dependency-light by design (no JSON, no I/O): the registry is mutable
    state to bump from hot paths, {!snapshot} freezes it into plain data,
    and [Analysis.Obs_codec] serializes snapshots. The canonical metric
    names are documented in the manual's "Observability" section; the
    producers in-tree are {!record_ticks} (per-site budget tick counters,
    read once from a finished budget's own breakdown, so no tick site pays
    for metering), [Core.Solver.record_metrics]
    (per-tier latency and step histograms derived from the degradation
    chain's attempts), and the serve daemon, which writes every request's
    counters, ticks and histograms straight into its one registry.

    {b Concurrency contract.} A registry has one writer and takes no lock:
    write to it and read it from the same domain. *)

type t

val create : unit -> t

(** [incr t name] bumps counter [name] by [by] (default 1), creating it at
    zero on first use. *)
val incr : ?by:int -> t -> string -> unit

(** Current value of a counter; 0 when it was never bumped. *)
val counter_value : t -> string -> int

(** Upper bounds (inclusive) used for histograms created without explicit
    [bounds]: decades from 0.01 to 10^5 — a span that covers microsecond
    ticks through multi-minute tier latencies in milliseconds. *)
val default_bounds : float list

(** [observe t name x] records [x] into histogram [name], creating it on
    first use with [bounds] — the first observation fixes the shape. Each
    histogram keeps one count per bucket [x <= bound], an overflow bucket,
    the total count, and the sum. A later call whose [~bounds] disagree with
    the recorded shape is counted under the [obs.bounds_mismatch] counter
    and warned about once per name on stderr ({!set_debug}[ true] upgrades
    the warning to [Invalid_argument]); the observation itself still lands
    in the original buckets. *)
val observe : ?bounds:float list -> t -> string -> float -> unit

(** [record_ticks t budget] adds [budget]'s per-site tick counts
    ({!Harness.Budget.steps_by_site}) to the counters
    ["budget.tick.<site>"] (the empty label counts as
    ["budget.tick.unnamed"]). Call it once per budget, when the work it
    metered has ended, returned or raised: the counts are read, not
    reset, so a second call counts them again. *)
val record_ticks : t -> Harness.Budget.t -> unit

(** When the debug flag is set, a bounds mismatch in {!observe} raises
    [Invalid_argument] instead of warning — wire this on in tests and
    debugging sessions so disagreeing call sites fail loudly. Off by
    default. *)
val set_debug : bool -> unit

(** {2 Snapshots} *)

type histogram_snapshot = {
  bounds : float list;  (** Inclusive upper bounds, strictly increasing. *)
  counts : int list;
      (** One count per bound, plus a final overflow bucket —
          [List.length counts = List.length bounds + 1]. *)
  count : int;  (** Total observations. *)
  sum : float;  (** Sum of observed values. *)
}

type snapshot = {
  counters : (string * int) list;  (** Sorted by name. *)
  histograms : (string * histogram_snapshot) list;  (** Sorted by name. *)
}

(** A frozen copy of the registry, deterministically ordered. *)
val snapshot : t -> snapshot

(** An empty snapshot (what [create |> snapshot] yields). *)
val empty_snapshot : snapshot

(** [quantile h q] estimates the [q]-quantile ([0 <= q <= 1], clamped) of
    the values recorded in [h] by linear interpolation inside the bucket
    where the [q]-th observation falls (the first bucket's lower edge is
    taken as 0, so the estimate assumes non-negative observations — true of
    every histogram in-tree: latencies and step counts). Observations in the
    overflow bucket are clamped to the last bound — the tightest claim the
    histogram can back. [None] when the histogram is empty. *)
val quantile : histogram_snapshot -> float -> float option
