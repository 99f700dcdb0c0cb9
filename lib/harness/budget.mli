(** Cooperative resource budgets for the exponential solvers.

    A budget combines a deadline with a step counter. Solvers
    thread a budget through their hot loops and call {!tick} once per unit
    of work; when the budget runs out, [tick] raises {!Budget_exceeded},
    which the degradation chain in [Core.Solver] catches to fall back to a
    cheaper tier instead of hanging or crashing.

    Budgets are shared: the same value can be passed through several solver
    tiers in sequence, and exhaustion is sticky — once exceeded, every
    further [tick] raises again, so later expensive tiers cannot silently
    restart the work. A {!Chaos} schedule can be attached to inject
    deterministic delays, failures, and budget pressure at tick sites.

    Every tick carries a site label (the canonical names live in {!Sites});
    the budget keeps an always-on per-site step breakdown, so exhaustion
    diagnostics can say {e which} loop ate the budget. That breakdown is
    the only tick count: a metrics registry reads it once per finished
    budget ([Obs.Metrics.record_ticks]), never per tick. The per-site
    accounting is a pointer comparison in the common case (consecutive
    ticks from the same loop).

    The deadline is read on {!Clock.now}, the monotonic clock, so a
    wall-clock step can neither exhaust a budget early nor extend it. *)

(** Which resource ran out. *)
type exhaustion =
  | Deadline  (** The deadline passed. *)
  | Steps  (** The step counter reached [max_steps]. *)
  | Pressure of string
      (** A {!Chaos} schedule injected budget pressure; the payload is the
          tick-site label that drew the injection, so exhaustion diagnostics
          (and the serve daemon's error responses) can name the faulting
          loop instead of reporting a bare step exhaustion. *)

exception Budget_exceeded of exhaustion

val pp_exhaustion : Format.formatter -> exhaustion -> unit

type t

(** A fresh budget with no deadline and no step cap; {!tick} never raises
    (injection-free). Use as the default for unconstrained runs. *)
val unlimited : unit -> t

(** [make ()] builds a budget. [timeout] is a relative allowance in
    seconds (converted to an absolute {!Clock.now} deadline now);
    [max_steps] caps the number of ticks; [check_every] is the
    clock-polling granularity in ticks (default 64 — deadline detection
    lags by at most that many ticks);
    [chaos] attaches a fault-injection schedule.
    @raise Invalid_argument on a negative allowance or [check_every < 1]. *)
val make :
  ?timeout:float ->
  ?max_steps:int ->
  ?check_every:int ->
  ?chaos:Chaos.t ->
  unit ->
  t

(** [tick ~site b] records one unit of work at the tick site [site] (used by
    chaos targeting and the per-site step accounting; solver loops pass a
    {!Sites} name).
    @raise Budget_exceeded when the budget is (or already was) exhausted, or
    when the chaos schedule injects budget pressure.
    @raise Chaos.Injected_fault when the chaos schedule injects a failure. *)
val tick : site:string -> t -> unit

(** Ticks recorded so far. *)
val steps : t -> int

(** [steps_by_site b] is the per-site breakdown of {!steps}: every site
    that ticked at least once with its tick count, in {!hottest_first}
    order. The lists always sum to [steps b]. *)
val steps_by_site : t -> (string * int) list

(** The order of a site profile: most steps first, ties broken by name. *)
val hottest_first : string * int -> string * int -> int

(** The site that burned the most ticks, with its count. [None] before the
    first tick. *)
val hottest_site : t -> (string * int) option

(** Prints a {!steps_by_site} breakdown as ["certk=40, dpll=2"] (the empty
    site label prints as [(unnamed)]). *)
val pp_site_breakdown : Format.formatter -> (string * int) list -> unit

(** [Some reason] once the budget has been exceeded (sticky). *)
val exhausted : t -> exhaustion option
