(** The [cqa serve] daemon: a fault-tolerant request loop over the compiled
    solver stack.

    One daemon value owns the long-lived state — the plane cache, the named
    database registry, the classification cache, the admission controller,
    the daemon-wide metrics registry, and the (optional) chaos schedule —
    and serves decoded {!Protocol} requests against it. Robustness
    invariants, enforced by construction and pinned by the soak suite:

    - {b The loop never dies.} Every frame, however malformed, and every
      fault raised while serving it — chaos injections, budget exhaustion,
      schema violations, oversized databases — produces exactly one
      well-formed response frame with a stable {!Protocol.code}.
    - {b Requests are budgeted.} Each attempt at a request runs under its
      own {!Harness.Budget} (timeout and step caps derived from its
      dichotomy tier), whose per-site ticks enter the one daemon-wide
      {!Obs.Metrics} registry once, when the attempt ends, returned or
      raised ({!Obs.Metrics.record_ticks}). Everything else about a request
      is metered in one place after its handler answers: the response
      code, the latency, the plane outcome ([serve.plane.hit], [.miss],
      [.patched], read from the response's [cache] field) and its journal
      events. A fault raised mid-request is answered by the same loop, so
      its metrics are those of a completed request with an error code.
    - {b Transient faults are retried.} A {!Harness.Chaos.Injected_fault}
      raised outside the degradation chain (at the serve admission point,
      or while compiling a plane) is retried with exponential backoff on a
      fresh budget; only when retries are exhausted does the client see a
      [fault-injected] response naming the faulting site. Inside the chain
      a faulted tier falls through to the next, and a chain whose tiers all
      failed ends in the estimate.
    - {b Degradation is graceful and explicit.} Admission control
      ({!Admission}) sheds or downgrades coNP-tier work under load; budget
      exhaustion inside an admitted solve falls back to the Monte-Carlo
      estimate tier. Both surface as [degraded-estimate] / [overloaded]
      responses, never as silence.

    The [stats] request exposes the daemon-wide registry (request, response,
    retry, fault, downgrade and shed counters, plus the per-site budget tick
    counters of every request), daemon uptime, and per-tier request-latency
    summaries with bucket-derived quantiles. A request is counted under
    [serve.request.<op>] after its handler runs, so a [stats] frame never
    counts itself.

    {b Observability.} Unless [trace_capacity] is 0, every request runs
    inside a root [request] span (attributes [trace_id] — also echoed as a
    [trace_id] response field — [op], and the final [code]) with the
    admission decision, the plane-cache probe, and the solver chain's spans
    nested under it, recorded into a bounded span ring; the [trace] request
    returns the last N request traces as [Obs_codec] documents. A daemon
    created with [~journal] appends one {!Obs.Journal} event per admission
    verdict, plane lifecycle step (compiled / patched / rejected), tier
    fallback, budget exhaustion (with the hottest tick site), and request
    completion (op, code, latency, tier, cache outcome, per-site steps). *)

type chaos_spec = {
  fail_p : float;
  delay_p : float;
  delay_s : float;
  pressure_p : float;
  chaos_seed : int;
  sites : string list;  (** Empty = every tick site. *)
}

type config = {
  fast_timeout : float option;
      (** Per-request deadline, PTIME tier. It also bounds a query's first
          classification (its tripath search), in the [classify] op and in
          a [certain] whose query is not classified yet; a search that runs
          out answers [timeout] and caches nothing. *)
  fast_max_steps : int option;
  heavy_timeout : float option;  (** Per-request deadline, coNP tier. *)
  heavy_max_steps : int option;
  estimate_trials : int;
      (** Sampled repairs for downgraded requests and for the degradation
          chain's estimate fallback. *)
  retries : int;  (** Re-runs allowed on a transient fault. *)
  backoff_s : float;  (** Initial backoff between retries (doubles). *)
  max_frame_bytes : int;
  max_facts : int;  (** Ingestion cap; larger databases are refused. *)
  plane_capacity : int;  (** LRU capacity of the plane cache. *)
  admission : Admission.config;
  chaos : chaos_spec option;
  seed : int;  (** Seed of the per-request estimate RNG. *)
  k : int;  (** Cert_k fixpoint parameter. *)
  sanitize : bool;
      (** Run {!Analysis.Sanitize.gate} on every freshly compiled plane
          before it enters the cache; a rejected plane produces a
          [corrupt-plane] response and is never cached or served. Disabled
          by [cqa serve --no-sanitize]. *)
  trace_capacity : int;
      (** Capacity of the request-trace span ring; 0 disables tracing
          entirely (no spans, no [trace_id] response fields). *)
}

(** Fast tier: 1 s / 200k steps; heavy tier: 10 s / 5M steps; 200 trials;
    2 retries with 10 ms initial backoff; 1 MiB frames; 100k facts;
    8 planes; {!Admission.default_config}; no chaos; sanitize on; a
    4096-span trace ring. *)
val default_config : config

type t

(** [create config] — [clock] feeds the admission token bucket (default
    {!Harness.Clock.now}, the monotonic clock); [sleep] implements retry
    backoff (default [Unix.sleepf]); both injectable for deterministic
    tests. [journal] attaches a structured event journal (the daemon logs
    to it but does not close it — the creator owns its lifecycle). Uptime
    and request latencies always read {!Harness.Clock.now}, never the
    injected [clock], so a virtual admission clock's readings are not
    perturbed by metering. The daemon's one {!Obs.Metrics} registry is
    created here.
    @raise Invalid_argument on a malformed config, among others a [k] below
    {!Core.Solver.min_k} or [estimate_trials < 1]. *)
val create :
  ?clock:(unit -> float) ->
  ?sleep:(float -> unit) ->
  ?journal:Obs.Journal.t ->
  config ->
  t

(** [handle_line t line] serves one frame: [None] for a blank line (framing
    tolerance), otherwise exactly one newline-terminated response frame.
    Never raises. *)
val handle_line : t -> string -> string option

(** Total non-blank frames received. *)
val requests : t -> int

(** Set once a [shutdown] request was served; the loops exit. *)
val stopped : t -> bool

(** The daemon-wide metrics registry (what [stats] reports). *)
val metrics : t -> Obs.Metrics.t

(** [run_pipe t ic oc] serves frames from [ic] to [oc] (one response per
    request, flushed) until EOF or [shutdown]. *)
val run_pipe : t -> in_channel -> out_channel -> unit

(** [run_socket t ~path] binds a Unix-domain socket at [path] (unlinking a
    stale one), then accepts connections sequentially, serving each with
    {!run_pipe} semantics until the client disconnects. Returns after a
    [shutdown] request; the socket file is removed on exit. I/O errors on a
    connection drop that connection, never the daemon. *)
val run_socket : t -> path:string -> unit
