(** Structured solver outcomes.

    The budgeted execution layer never returns a bare boolean: an answer is
    either a real decision, an explicitly-labelled degraded estimate, or a
    structured failure. [Core.Solver] instantiates ['decision] with
    [bool * algorithm] and ['estimate] with [Cqa.Montecarlo.estimate]. *)

type ('decision, 'estimate) t =
  | Decided of 'decision  (** A tier ran to completion and decided. *)
  | Estimated of 'estimate
      (** No tier decided within budget; a sampling fallback produced an
          explicitly degraded answer. *)
  | Timeout  (** The wall-clock deadline passed before any tier decided. *)
  | Budget_exhausted
      (** The step budget ran out before any tier decided. *)
  | Solver_error of string
      (** Every tier failed, or two tiers decided and disagreed. *)

(** An answer was not produced but the run terminated cleanly under budget
    (estimate, timeout, or step exhaustion). *)
val is_degraded : ('a, 'b) t -> bool

val pp :
  (Format.formatter -> 'decision -> unit) ->
  (Format.formatter -> 'estimate -> unit) ->
  Format.formatter ->
  ('decision, 'estimate) t ->
  unit
