(** Deterministic fault injection for the solver harness.

    A chaos configuration is consulted at every {!Budget.tick} site and can
    inject a delay, a failure ({!Injected_fault}), or budget pressure (the
    budget treats it as step exhaustion). All draws come from a seeded RNG in
    a fixed order, so a given seed replays the exact same injection schedule
    — tests use this to prove that every fallback edge of the degradation
    chain actually fires. *)

(** What the budget should do after a tick survived injection. *)
type action =
  | Pass  (** Nothing injected (or only a delay). *)
  | Pressure  (** Treat this tick as if the step budget were exhausted. *)

(** Raised at a tick site selected for failure; carries the site label. *)
exception Injected_fault of string

type t

(** [make ()] builds an injection schedule. [fail_p], [delay_p] and
    [pressure_p] are per-tick probabilities (default 0); [delay_s] is the
    injected sleep in seconds (default 1ms). [sites] restricts injection to
    the named tick sites ([[]], the default, targets every site) — e.g.
    [~sites:["dpll"]] makes only the SAT tier fail. Draws at non-targeted
    sites consume no randomness, so the schedule at targeted sites does not
    depend on what other solvers ran.
    @raise Invalid_argument on probabilities outside [0, 1], or on a site
    that is not in {!Sites.all} (a schedule that could never fire). *)
val make :
  ?seed:int ->
  ?fail_p:float ->
  ?delay_p:float ->
  ?delay_s:float ->
  ?pressure_p:float ->
  ?sites:string list ->
  unit ->
  t

(** [tick c ~site] draws the injections for one tick at [site].
    @raise Injected_fault when a failure is drawn. *)
val tick : t -> site:string -> action

(** Injection counters, for tests and diagnostics. *)

val ticks : t -> int
val faults : t -> int
val delays : t -> int
val pressures : t -> int
