type ('decision, 'estimate) t =
  | Decided of 'decision
  | Estimated of 'estimate
  | Timeout
  | Budget_exhausted
  | Solver_error of string

let is_degraded = function
  | Estimated _ | Timeout | Budget_exhausted -> true
  | Decided _ | Solver_error _ -> false

let pp pp_decision pp_estimate ppf = function
  | Decided d -> Format.fprintf ppf "decided: %a" pp_decision d
  | Estimated e -> Format.fprintf ppf "estimated (degraded): %a" pp_estimate e
  | Timeout -> Format.pp_print_string ppf "timeout"
  | Budget_exhausted -> Format.pp_print_string ppf "budget exhausted"
  | Solver_error msg -> Format.fprintf ppf "solver error: %s" msg
