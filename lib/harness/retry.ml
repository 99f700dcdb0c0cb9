type 'a outcome = { result : ('a, exn) result; retries : int }

let transient = function Chaos.Injected_fault _ -> true | _ -> false

let run ?(max_attempts = 3) ?(backoff_s = 0.0) ?(sleep = Unix.sleepf)
    ?(on_retry = fun ~attempt:_ _ -> ()) ~retryable f =
  if max_attempts < 1 then invalid_arg "Retry.run: max_attempts must be >= 1";
  if backoff_s < 0.0 then invalid_arg "Retry.run: backoff_s must be >= 0";
  let rec go attempt pause =
    match f () with
    | v -> { result = Ok v; retries = attempt - 1 }
    | exception e ->
        if attempt >= max_attempts || not (retryable e) then
          { result = Error e; retries = attempt - 1 }
        else begin
          on_retry ~attempt e;
          if pause > 0.0 then sleep pause;
          go (attempt + 1) (pause *. 2.0)
        end
  in
  go 1 backoff_s
