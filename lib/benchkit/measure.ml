type outcome = {
  median_ms : float;
  repeats : int;
  verdict : bool option;  (* None when every repeat exhausted its budget *)
  timed_out : bool;
  steps : int;
  sites : (string * int) list;
}

let median sorted =
  let n = List.length sorted in
  if n = 0 then 0.
  else
    let arr = Array.of_list sorted in
    if n mod 2 = 1 then arr.(n / 2) else (arr.((n / 2) - 1) +. arr.(n / 2)) /. 2.

let sample ?budget_s ~repeats f =
  if repeats < 1 then invalid_arg "Measure.sample: repeats must be >= 1";
  let one () =
    let budget =
      match budget_s with
      | None -> Harness.Budget.unlimited ()
      | Some t -> Harness.Budget.make ~timeout:t ()
    in
    let t0 = Unix.gettimeofday () in
    let r =
      try Some (f budget)
      with Harness.Budget.Budget_exceeded _ -> None
    in
    let ms = (Unix.gettimeofday () -. t0) *. 1000. in
    (ms, r, Harness.Budget.steps budget, Harness.Budget.steps_by_site budget)
  in
  let runs = List.init repeats (fun _ -> one ()) in
  let times = List.sort Float.compare (List.map (fun (ms, _, _, _) -> ms) runs) in
  let verdict = List.find_map (fun (_, r, _, _) -> r) runs in
  let timed_out = List.exists (fun (_, r, _, _) -> r = None) runs in
  (* [sites] comes from the same repeat that determined [steps], so the
     breakdown always sums to the reported step count. *)
  let steps, sites =
    List.fold_left
      (fun ((best, _) as acc) (_, _, s, by_site) ->
        if s > best then (s, by_site) else acc)
      (0, []) runs
  in
  { median_ms = median times; repeats; verdict; timed_out; steps; sites }

let time_ms ~repeats f =
  if repeats < 1 then invalid_arg "Measure.time_ms: repeats must be >= 1";
  let one () =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    ((Unix.gettimeofday () -. t0) *. 1000., r)
  in
  let runs = List.init repeats (fun _ -> one ()) in
  let times = List.sort Float.compare (List.map fst runs) in
  (median times, snd (List.hd runs))
