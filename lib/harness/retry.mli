(** Bounded retries with exponential backoff for transient faults.

    The serve daemon (and any other long-lived driver of the solver stack)
    must distinguish {e transient} failures — a {!Chaos.Injected_fault}, a
    flaky I/O layer — from deterministic ones: retrying a malformed query
    burns budget for nothing, while giving up on the first injected fault
    turns recoverable noise into user-visible errors. [Retry.run] re-runs a
    thunk while [retryable] classifies the raised exception as transient,
    sleeping an exponentially growing backoff between attempts.

    The sleep function is injectable so tests (and the soak suite) retry
    without real delays, and the per-retry hook lets callers count or log
    retries without threading state through the thunk. *)

(** Outcome of {!run}: the thunk's result (or the exception that ended the
    attempts) together with how many retries were spent. [retries] counts
    re-runs, not attempts: a first-try success has [retries = 0]. *)
type 'a outcome = { result : ('a, exn) result; retries : int }

(** [run ~retryable f] runs [f ()], re-running it up to [max_attempts]
    times total (default 3) while the raised exception satisfies
    [retryable]. Between attempts it sleeps [backoff_s] seconds (default 0),
    doubling each retry; [sleep] defaults to [Unix.sleepf].
    [on_retry ~attempt exn] fires before each re-run with the 1-based number
    of the attempt that just failed. A non-retryable exception — or
    exhausting the attempts — returns [Error exn]; nothing is ever raised
    out of [run].
    @raise Invalid_argument when [max_attempts < 1] or [backoff_s < 0]. *)
val run :
  ?max_attempts:int ->
  ?backoff_s:float ->
  ?sleep:(float -> unit) ->
  ?on_retry:(attempt:int -> exn -> unit) ->
  retryable:(exn -> bool) ->
  (unit -> 'a) ->
  'a outcome

(** The transient classification the daemon uses: injected chaos faults are
    retryable, everything else ({!Budget.Budget_exceeded} included — the
    budget is sticky, so a re-run would exhaust instantly) is not. *)
val transient : exn -> bool
