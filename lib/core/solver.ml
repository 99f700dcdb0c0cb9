module Query = Qlang.Query
module Database = Relational.Database
module Compiled = Relational.Compiled

type algorithm =
  | Alg_one_atom
  | Alg_cert2
  | Alg_certk of int
  | Alg_combined of int
  | Alg_exact_sat

let pp_algorithm ppf = function
  | Alg_one_atom -> Format.pp_print_string ppf "one-atom block test"
  | Alg_cert2 -> Format.pp_print_string ppf "Cert_2"
  | Alg_certk k -> Format.fprintf ppf "Cert_%d" k
  | Alg_combined k -> Format.fprintf ppf "Cert_%d \u{2228} \u{00AC}Matching" k
  | Alg_exact_sat -> Format.pp_print_string ppf "exact (SAT)"

(* A fact [a] matches σ(A), for σ the most general unifier of the two
   atoms, iff some μ has μ(A) = a = μ(B): every such μ factors through σ. *)
let conjunction_atom (q : Query.t) =
  Option.map
    (fun s -> Qlang.Subst.apply_atom s q.Query.a)
    (Qlang.Unify.atoms Qlang.Subst.empty q.Query.a q.Query.b)

let certain_one_atom atom plane =
  let p = Qlang.Pattern.single plane atom in
  Array.exists
    (fun members -> Array.for_all (Qlang.Pattern.matches p) members)
    plane.Compiled.blocks

let certain_trivial (q : Query.t) triviality plane =
  let one_atom atom = certain_one_atom atom plane in
  match triviality with
  | Query.Hom_a_to_b -> one_atom q.Query.b
  | Query.Hom_b_to_a -> one_atom q.Query.a
  | Query.Equal_key_tuples -> (
      match conjunction_atom q with
      | None -> false (* no single fact can match both atoms *)
      | Some c -> one_atom c)

(* Kept only because the end-to-end benchmark's replay (bench/e2e/replay.ml)
   names the engine and is frozen with the benchmark; drop both with the
   next benchmark change. *)
type engine = Engine_plane

let build_query_graph ~engine:Engine_plane =
  Qlang.Solution_graph.of_query_compiled

type tier = Tier_ptime | Tier_sat

let pp_tier ppf = function
  | Tier_ptime -> Format.pp_print_string ppf "ptime"
  | Tier_sat -> Format.pp_print_string ppf "sat"

let min_k = 2

(* The one decision list from a verdict to the tiers that decide it, read
   whole by the chain and by its head in [certain_graph]: the algorithm a
   PTIME verdict designates, then the SAT tier, which decides any verdict.
   Each decide thunk forces only what its algorithm reads: the one-atom test
   touches the plane but never builds the solution graph. *)
let decisions ?(k = 3) ?budget (report : Dichotomy.report) ~plane ~graph =
  let q = report.Dichotomy.query in
  let ptime algorithm decide = [ (Tier_ptime, algorithm, decide) ] in
  (match report.Dichotomy.verdict with
  | Dichotomy.Ptime (Dichotomy.Trivial t) ->
      ptime Alg_one_atom (fun () -> certain_trivial q t (plane ()))
  | Dichotomy.Ptime Dichotomy.Cert2 ->
      ptime Alg_cert2 (fun () -> Cqa.Certk.run ?budget ~k:2 (graph ()))
  | Dichotomy.Ptime Dichotomy.Certk_no_tripath ->
      ptime (Alg_certk k) (fun () -> Cqa.Certk.run ?budget ~k (graph ()))
  | Dichotomy.Ptime (Dichotomy.Combined_triangle _) ->
      ptime (Alg_combined k) (fun () -> Cqa.Combined.run ?budget ~k (graph ()))
  | Dichotomy.Conp_complete _ -> [])
  @ [
      (Tier_sat, Alg_exact_sat, fun () -> Cqa.Satreduce.certain ?budget (graph ()));
    ]

let certain_graph ?k report ~plane ~graph =
  let plane () = Lazy.force plane and graph () = Lazy.force graph in
  let _, algorithm, decide = List.hd (decisions ?k report ~plane ~graph) in
  (decide (), algorithm)

let certain ?k (report : Dichotomy.report) db =
  let plane = lazy (Compiled.compile db) in
  certain_graph ?k report ~plane
    ~graph:
      (lazy
        (Qlang.Solution_graph.of_query_compiled report.Dichotomy.query
           (Lazy.force plane)))

(* ------------------------------------------------------------------ *)
(* The budgeted degradation chain. *)

type outcome = (bool * algorithm, Cqa.Montecarlo.estimate) Harness.Outcome.t

type attempt_status =
  | Attempt_decided of bool
  | Attempt_failed of string
  | Attempt_out_of_budget of Harness.Budget.exhaustion

type attempt = {
  tier : tier;
  algorithm : algorithm;
  status : attempt_status;
  steps : int;
  sites : (string * int) list;
  wall_s : float;
}

let pp_attempt ppf a =
  Format.fprintf ppf "%a tier (%a): " pp_tier a.tier pp_algorithm a.algorithm;
  match a.status with
  | Attempt_decided b -> Format.fprintf ppf "decided %b" b
  | Attempt_failed msg -> Format.fprintf ppf "failed (%s)" msg
  | Attempt_out_of_budget r ->
      Format.fprintf ppf "ran out of %a after %d steps" Harness.Budget.pp_exhaustion
        r a.steps;
      (match a.sites with
      | [] -> ()
      | (site, n) :: _ -> Format.fprintf ppf " (hottest site %s=%d)" site n)

let status_label = function
  | Attempt_decided true -> "decided-true"
  | Attempt_decided false -> "decided-false"
  | Attempt_failed _ -> "failed"
  | Attempt_out_of_budget Harness.Budget.Deadline -> "out-of-budget-deadline"
  | Attempt_out_of_budget Harness.Budget.Steps -> "out-of-budget-steps"
  | Attempt_out_of_budget (Harness.Budget.Pressure _) -> "out-of-budget-pressure"

(* Per-site step deltas between two [Budget.steps_by_site] snapshots: what
   this tier alone burned, hottest first. *)
let diff_sites ~before ~after =
  List.filter_map
    (fun (site, n) ->
      let n0 = match List.assoc_opt site before with Some n0 -> n0 | None -> 0 in
      if n > n0 then Some (site, n - n0) else None)
    after
  |> List.sort Harness.Budget.hottest_first

(* Run the tiers in order. Without [verify], the first tier to complete
   decides and the rest are skipped; a tier that fails (injected fault,
   refused instance) degrades to the next tier. Budget exhaustion stops the
   whole chain — the budget is shared, so any later tier would hit the same
   wall immediately. With [verify], every tier runs and all decisions
   must agree; a disagreement is a [Solver_error] carrying the per-tier
   diagnostic (the cross-solver check that backs the chaos tests).

   [budget] is only observed here (per-tier step and site deltas on the
   attempts); the tiers already close over it for their own ticking.
   [trace] records one span per attempt under the current open span. *)
let run_tiers ?(verify = false) ?fallback ?budget ?trace tiers =
  let steps_now () =
    match budget with None -> 0 | Some b -> Harness.Budget.steps b
  in
  let sites_now () =
    match budget with None -> [] | Some b -> Harness.Budget.steps_by_site b
  in
  let attempt_of tier algorithm decide =
    let before_steps = steps_now () and before_sites = sites_now () in
    let t0 = Harness.Clock.now () in
    let run () =
      let status =
        match decide () with
        | b -> Attempt_decided b
        | exception Harness.Budget.Budget_exceeded reason ->
            Attempt_out_of_budget reason
        | exception Harness.Chaos.Injected_fault site ->
            Attempt_failed ("injected fault at " ^ site)
        | exception Invalid_argument msg -> Attempt_failed msg
      in
      let a =
        {
          tier;
          algorithm;
          status;
          steps = steps_now () - before_steps;
          sites = diff_sites ~before:before_sites ~after:(sites_now ());
          wall_s = Harness.Clock.now () -. t0;
        }
      in
      (match trace with
      | None -> ()
      | Some tr ->
          Obs.Trace.add_attr tr "status" (Obs.Trace.String (status_label a.status));
          (match a.status with
          | Attempt_failed msg ->
              Obs.Trace.add_attr tr "reason" (Obs.Trace.String msg)
          | Attempt_out_of_budget r ->
              Obs.Trace.add_attr tr "reason"
                (Obs.Trace.String
                   (Format.asprintf "ran out of %a" Harness.Budget.pp_exhaustion r))
          | Attempt_decided _ -> ());
          Obs.Trace.add_attr tr "steps" (Obs.Trace.Int a.steps);
          List.iter
            (fun (site, n) ->
              Obs.Trace.add_attr tr ("steps." ^ site) (Obs.Trace.Int n))
            a.sites);
      a
    in
    match trace with
    | None -> run ()
    | Some tr ->
        Obs.Trace.with_span tr "tier"
          ~attrs:
            [
              ("tier", Obs.Trace.String (Format.asprintf "%a" pp_tier tier));
              ( "algorithm",
                Obs.Trace.String (Format.asprintf "%a" pp_algorithm algorithm) );
            ]
          run
  in
  let attempts = ref [] in
  let record a = attempts := a :: !attempts in
  let rec go = function
    | [] -> ()
    | (tier, algorithm, decide) :: rest -> (
        let a = attempt_of tier algorithm decide in
        record a;
        match a.status with
        | Attempt_decided _ -> if verify then go rest
        | Attempt_out_of_budget _ -> ()
        | Attempt_failed _ -> go rest)
  in
  go tiers;
  let attempts = List.rev !attempts in
  let decisions =
    List.filter_map
      (fun a -> match a.status with Attempt_decided b -> Some (a, b) | _ -> None)
      attempts
  in
  let diagnostic () =
    Format.asprintf "%a"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
         pp_attempt)
      attempts
  in
  let outcome =
    match decisions with
    | (a0, b0) :: rest ->
        if List.for_all (fun (_, b) -> b = b0) rest then
          Harness.Outcome.Decided (b0, a0.algorithm)
        else
          Harness.Outcome.Solver_error ("solver tiers disagree: " ^ diagnostic ())
    | [] -> (
        match fallback with
        | Some estimate -> (
            let estimate () =
              match trace with
              | None -> estimate ()
              | Some tr -> Obs.Trace.with_span tr "estimate" estimate
            in
            match estimate () with
            | e -> Harness.Outcome.Estimated e
            | exception Invalid_argument msg ->
                Harness.Outcome.Solver_error ("estimate fallback failed: " ^ msg))
        | None -> (
            let out_of_budget =
              List.find_map
                (fun a ->
                  match a.status with Attempt_out_of_budget r -> Some r | _ -> None)
                attempts
            in
            match out_of_budget with
            | Some Harness.Budget.Deadline -> Harness.Outcome.Timeout
            | Some (Harness.Budget.Steps | Harness.Budget.Pressure _) ->
                Harness.Outcome.Budget_exhausted
            | None ->
                Harness.Outcome.Solver_error
                  (if attempts = [] then "no solver tier available"
                   else "every solver tier failed: " ^ diagnostic ())))
  in
  (outcome, attempts)

let tiers ?k ~exact_only ?check_certificate ~budget (report : Dichotomy.report)
    ~plane ~graph =
  (* The certificate gate: before trusting the classifier-designated PTIME
     algorithm, re-validate the certificate that licensed it with the
     (injected, independent) checker. A rejected certificate makes the PTIME
     tier fail — recorded in the attempt trace — and the chain degrades to
     the SAT tier, which does not rely on the classification. The checker is
     injected as a closure so [core] does not depend on [analysis]. *)
  let certificate_gate () =
    match check_certificate with
    | None -> ()
    | Some check -> (
        match check report with
        | Ok () -> ()
        | Error errors ->
            invalid_arg ("certificate rejected: " ^ String.concat "; " errors))
  in
  List.filter_map
    (fun (tier, algorithm, decide) ->
      match tier with
      | Tier_sat -> Some (tier, algorithm, decide)
      | Tier_ptime when exact_only -> None
      | Tier_ptime ->
          Some (tier, algorithm, fun () -> certificate_gate (); decide ()))
    (decisions ?k ~budget report ~plane ~graph)

let outcome_label : outcome -> string = function
  | Harness.Outcome.Decided (true, _) -> "decided-true"
  | Harness.Outcome.Decided (false, _) -> "decided-false"
  | Harness.Outcome.Estimated _ -> "estimated"
  | Harness.Outcome.Timeout -> "timeout"
  | Harness.Outcome.Budget_exhausted -> "budget-exhausted"
  | Harness.Outcome.Solver_error _ -> "solver-error"

(* The chain's root [solve] span: wraps [run] and stamps the outcome and
   total budget steps once the chain returns. *)
let in_solve_span ?trace (report : Dichotomy.report) budget run =
  match trace with
  | None -> run ()
  | Some tr ->
      Obs.Trace.with_span tr "solve"
        ~attrs:
          [
            ( "query",
              Obs.Trace.String (Qlang.Query.to_string report.Dichotomy.query) );
            ( "verdict",
              Obs.Trace.String (Dichotomy.verdict_summary report.Dichotomy.verdict)
            );
          ]
        (fun () ->
          let ((outcome, _) as result) = run () in
          Obs.Trace.add_attr tr "outcome" (Obs.Trace.String (outcome_label outcome));
          Obs.Trace.add_attr tr "total_steps"
            (Obs.Trace.Int (Harness.Budget.steps budget));
          result)

(* The plane gate: a rejected plane turns into [Invalid_argument], which
   [run_tiers] records as [Attempt_failed] for every tier that forces the
   plane — the whole chain fails rather than answer from corrupt arrays. *)
let apply_plane_gate check_plane p =
  match check_plane with
  | None -> ()
  | Some check -> (
      match check p with
      | Ok () -> ()
      | Error msg -> invalid_arg ("compiled plane rejected: " ^ msg))

let in_compile_span ?trace phase attrs f =
  match trace with
  | None -> f ()
  | Some tr ->
      Obs.Trace.with_span tr "compile"
        ~attrs:(("phase", Obs.Trace.String phase) :: attrs ())
        f

(* Success-only memoization: unlike [lazy], a transient injected fault is
   not cached, so it fails only the current tier and the next tier retries
   the build. [tick] reaches the build on a miss only. *)
let memo build =
  let cache = ref None in
  fun ?tick () ->
    match !cache with
    | Some v -> v
    | None ->
        let v = build ?tick () in
        cache := Some v;
        v

(* The one chain body behind [solve] and [solve_plane]. [plane ?tick ()]
   yields the gated plane. The whole chain shares ONE plane and ONE
   solution graph, built on first demand {e inside} the tier that needs
   them, so compile-phase budget exhaustion or chaos is charged to that
   tier's attempt. The estimate fallback samples the graph a tier built, or
   builds it without ticking: by the time it runs the shared budget is
   exhausted, and the estimate is the last resort. A rejected plane
   therefore fails the fallback too. *)
let chain ?k ?(exact_only = false) ?check_certificate
    ?(budget = Harness.Budget.unlimited ()) ?verify ?estimate_trials
    ?(seed = 0) ?trace (report : Dichotomy.report) ~plane =
  let plane = memo plane in
  let graph =
    memo (fun ?tick () ->
        let p = plane ?tick () in
        in_compile_span ?trace "graph"
          (fun () -> [ ("facts", Obs.Trace.Int (Compiled.n_facts p)) ])
          (fun () ->
            Qlang.Solution_graph.of_query_compiled ?tick report.Dichotomy.query
              p))
  in
  let tick () = Harness.Budget.tick ~site:Harness.Sites.compile budget in
  let fallback =
    Option.map
      (fun trials () ->
        let rng = Random.State.make [| seed; 0xE571 |] in
        Cqa.Montecarlo.estimate_g rng ~trials (graph ()))
      estimate_trials
  in
  in_solve_span ?trace report budget (fun () ->
      run_tiers ?verify ?fallback ~budget ?trace
        (tiers ?k ~exact_only ?check_certificate ~budget report
           ~plane:(plane ~tick) ~graph:(graph ~tick)))

let solve ?k ?exact_only ?check_certificate ?check_plane ?budget ?verify
    ?estimate_trials ?seed ?trace report db =
  let plane ?tick () =
    in_compile_span ?trace "plane"
      (fun () -> [ ("facts", Obs.Trace.Int (Database.size db)) ])
      (fun () ->
        let p = Compiled.compile ?tick db in
        (match trace with
        | None -> ()
        | Some tr ->
            Obs.Trace.add_attr tr "blocks" (Obs.Trace.Int (Compiled.n_blocks p));
            Obs.Trace.add_attr tr "values" (Obs.Trace.Int (Compiled.n_values p)));
        apply_plane_gate check_plane p;
        p)
  in
  chain ?k ?exact_only ?check_certificate ?budget ?verify ?estimate_trials ?seed
    ?trace report ~plane

(* The plane arrives compiled and gated (typically by a serve-side cache
   that charged its own compilation and sanitized the plane on insert). *)
let solve_plane ?k ?budget ?estimate_trials ?seed ?trace report plane =
  chain ?k ?budget ?estimate_trials ?seed ?trace report
    ~plane:(fun ?tick:_ () -> plane)

(* Bridge a chain's attempts into a metrics registry: per-tier latency and
   step histograms plus status counters, alongside the per-site tick
   counters [Obs.Metrics.record_ticks] reads from the budget. Lives here
   (not in the front-ends) so the CLI and the serve daemon meter
   identically under the names documented in the manual's "Observability"
   section. Step histograms bucket by decades from 1 to 10^6 steps. *)
let record_metrics metrics outcome (attempts : attempt list) =
  let bounds = [ 1.; 10.; 100.; 1_000.; 10_000.; 100_000.; 1_000_000. ] in
  List.iter
    (fun (a : attempt) ->
      let tier = Format.asprintf "%a" pp_tier a.tier in
      Obs.Metrics.incr metrics
        (Printf.sprintf "solver.attempt.%s.%s" tier (status_label a.status));
      Obs.Metrics.observe metrics
        (Printf.sprintf "solver.tier.%s.ms" tier)
        (a.wall_s *. 1000.);
      Obs.Metrics.observe metrics ~bounds
        (Printf.sprintf "solver.tier.%s.steps" tier)
        (float_of_int a.steps))
    attempts;
  Obs.Metrics.incr metrics ("solver.outcome." ^ outcome_label outcome)

(* Journal a chain's degradation story: one [tier.fallback] per attempt that
   did not decide, then the exhaustion with the request budget's hottest
   site. Lives beside [record_metrics] so the CLI and the daemon journal
   identically. *)
let record_journal journal ~budget outcome (attempts : attempt list) =
  List.iter
    (fun (a : attempt) ->
      match a.status with
      | Attempt_decided _ -> ()
      | status ->
          Obs.Journal.log journal "tier.fallback"
            [
              ("tier", Obs.Trace.String (Format.asprintf "%a" pp_tier a.tier));
              ( "algorithm",
                Obs.Trace.String (Format.asprintf "%a" pp_algorithm a.algorithm)
              );
              ("status", Obs.Trace.String (status_label status));
              ("steps", Obs.Trace.Int a.steps);
            ])
    attempts;
  match outcome with
  | Harness.Outcome.Timeout | Harness.Outcome.Budget_exhausted ->
      let hottest =
        match Harness.Budget.hottest_site budget with
        | None -> []
        | Some (site, n) ->
            [ ("site", Obs.Trace.String site); ("site_steps", Obs.Trace.Int n) ]
      in
      Obs.Journal.log journal "budget.exhausted"
        (("steps", Obs.Trace.Int (Harness.Budget.steps budget)) :: hottest)
  | _ -> ()

let record_completion journal ~op ~code ~ms fields budget =
  Obs.Journal.log journal "request.completed"
    ([
       ("op", Obs.Trace.String op);
       ("code", Obs.Trace.String code);
       ("ms", Obs.Trace.Float ms);
     ]
    @ fields
    @
    match budget with
    | None -> []
    | Some b ->
        ("steps", Obs.Trace.Int (Harness.Budget.steps b))
        :: List.map
             (fun (site, n) -> ("steps." ^ site, Obs.Trace.Int n))
             (Harness.Budget.steps_by_site b))
