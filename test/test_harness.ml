(* Tests for the resource-budgeted solver harness: Budget and Chaos
   semantics, budget propagation through the solvers' hot loops, and every
   fallback edge of the degradation chain in Core.Solver. *)

module Budget = Harness.Budget
module Chaos = Harness.Chaos
module Outcome = Harness.Outcome
module Fact = Relational.Fact
module Value = Relational.Value
module Database = Relational.Database
module Query = Qlang.Query
module Parse = Qlang.Parse
module Solver = Core.Solver

let vi = Value.int
let fact vs = Fact.make "R" (List.map vi vs)

let q3 = Parse.query_exn "R(x | y) R(y | z)"
let q_conp = Parse.query_exn "R(x u | x y) R(u y | x z)"
let db_of q facts = Database.of_facts [ q.Query.schema ] facts

let check_raises_budget name reason f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Budget_exceeded" name
  | exception Budget.Budget_exceeded r ->
      Alcotest.(check bool) name true (r = reason)

(* ------------------------------------------------------------------ *)
(* Budget *)

let test_budget_unlimited () =
  let b = Budget.unlimited () in
  for _ = 1 to 10_000 do
    Budget.tick ~site:"" b
  done;
  Alcotest.(check int) "steps counted" 10_000 (Budget.steps b);
  Alcotest.(check bool) "not exhausted" true (Budget.exhausted b = None)

let test_budget_max_steps () =
  let b = Budget.make ~max_steps:5 () in
  for _ = 1 to 4 do
    Budget.tick ~site:"" b
  done;
  check_raises_budget "raises at cap" Budget.Steps (fun () ->
      Budget.tick ~site:"" b);
  Alcotest.(check bool) "exhausted is sticky" true
    (Budget.exhausted b = Some Budget.Steps);
  (* Sticky: further ticks re-raise without advancing the counter. *)
  check_raises_budget "re-raises" Budget.Steps (fun () ->
      Budget.tick ~site:"" b);
  Alcotest.(check int) "counter frozen" 5 (Budget.steps b)

let test_budget_deadline () =
  let b = Budget.make ~timeout:0.0 ~check_every:1 () in
  check_raises_budget "deadline already passed" Budget.Deadline (fun () ->
      Budget.tick ~site:"" b)

let test_budget_deadline_granularity () =
  (* With check_every = 4 the clock is only consulted on multiples of 4. *)
  let b = Budget.make ~timeout:0.0 ~check_every:4 () in
  for _ = 1 to 3 do
    Budget.tick ~site:"" b
  done;
  check_raises_budget "raises on the polling tick" Budget.Deadline (fun () ->
      Budget.tick ~site:"" b)

let test_clock () =
  let prev = ref (Harness.Clock.now ()) and backwards = ref 0 in
  for _ = 1 to 100_000 do
    let t = Harness.Clock.now () in
    if t < !prev then incr backwards;
    prev := t
  done;
  Alcotest.(check int) "never decreases over 100k reads" 0 !backwards;
  let t0 = Harness.Clock.now () in
  Unix.sleepf 0.002;
  let dt = Harness.Clock.now () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "a 2 ms sleep reads >= 1.9 ms (read %.3f ms)" (dt *. 1000.))
    true (dt >= 0.0019)

let test_budget_validation () =
  Alcotest.check_raises "negative timeout"
    (Invalid_argument "Budget.make: timeout must be >= 0") (fun () ->
      ignore (Budget.make ~timeout:(-1.0) ()));
  Alcotest.check_raises "bad check_every"
    (Invalid_argument "Budget.make: check_every must be >= 1") (fun () ->
      ignore (Budget.make ~check_every:0 ()))

(* ------------------------------------------------------------------ *)
(* Chaos *)

let test_chaos_fault () =
  let c = Chaos.make ~fail_p:1.0 () in
  let b = Budget.make ~chaos:c () in
  (match Budget.tick ~site:"dpll" b with
  | () -> Alcotest.fail "expected Injected_fault"
  | exception Chaos.Injected_fault site ->
      Alcotest.(check string) "fault carries the site" "dpll" site);
  Alcotest.(check int) "fault counted" 1 (Chaos.faults c)

let test_chaos_site_filter () =
  let c = Chaos.make ~fail_p:1.0 ~sites:[ "dpll" ] () in
  let b = Budget.make ~chaos:c () in
  Budget.tick ~site:"exact" b;
  (* non-targeted: no injection *)
  Alcotest.(check int) "no chaos tick at other sites" 0 (Chaos.ticks c);
  (match Budget.tick ~site:"dpll" b with
  | () -> Alcotest.fail "expected Injected_fault at targeted site"
  | exception Chaos.Injected_fault _ -> ());
  Alcotest.(check int) "one chaos tick" 1 (Chaos.ticks c)

let test_chaos_pressure () =
  let c = Chaos.make ~pressure_p:1.0 () in
  let b = Budget.make ~chaos:c () in
  check_raises_budget "pressure exhausts the step budget, naming the site"
    (Budget.Pressure "certk") (fun () -> Budget.tick ~site:"certk" b);
  Alcotest.(check int) "pressure counted" 1 (Chaos.pressures c);
  check_raises_budget "and it is sticky" (Budget.Pressure "certk") (fun () ->
      Budget.tick ~site:"" b)

let test_chaos_determinism () =
  let run seed =
    let c = Chaos.make ~seed ~fail_p:0.3 () in
    let faults = ref [] in
    for i = 1 to 100 do
      match Chaos.tick c ~site:"s" with
      | Chaos.Pass | Chaos.Pressure -> ()
      | exception Chaos.Injected_fault _ -> faults := i :: !faults
    done;
    !faults
  in
  Alcotest.(check (list int)) "same seed, same schedule" (run 7) (run 7);
  Alcotest.(check bool) "different seed, different schedule" true
    (run 7 <> run 8)

let test_chaos_validation () =
  Alcotest.check_raises "fail_p out of range"
    (Invalid_argument "Chaos.make: fail_p must be in [0, 1]") (fun () ->
      ignore (Chaos.make ~fail_p:1.5 ()))

(* A schedule aimed at a site no loop ticks would never fire, so it is
   refused, and the message names the sites that exist. *)
let test_chaos_unknown_site () =
  Alcotest.check_raises "unknown site refused"
    (Invalid_argument
       (Printf.sprintf "Chaos.make: unknown site \"typo\" (known sites: %s)"
          (String.concat ", " Harness.Sites.all)))
    (fun () -> ignore (Chaos.make ~fail_p:1.0 ~sites:[ "dpll"; "typo" ] ()));
  List.iter
    (fun site -> ignore (Chaos.make ~fail_p:1.0 ~sites:[ site ] ()))
    Harness.Sites.all

(* ------------------------------------------------------------------ *)
(* Montecarlo regression: trials = 0 must be rejected, not read as
   "certain with frequency 1.0". *)

let test_montecarlo_zero_trials () =
  let db = db_of q3 [ fact [ 1; 2 ] ] in
  let rng = Random.State.make [| 0 |] in
  Alcotest.check_raises "zero trials rejected"
    (Invalid_argument "Montecarlo.estimate: trials must be >= 1") (fun () ->
      ignore (Cqa.Montecarlo.estimate rng ~trials:0 q3 db));
  let e = Cqa.Montecarlo.estimate rng ~trials:5 q3 db in
  Alcotest.(check int) "positive trials still fine" 5 e.Cqa.Montecarlo.trials

(* ------------------------------------------------------------------ *)
(* Budget propagation through the solvers *)

let rng = Random.State.make [| 77 |]

let some_db q n = Workload.Randdb.random_for_query rng q ~n_facts:n ~domain:4

let test_budget_reaches_dpll () =
  let phi =
    (* No unit clauses: DPLL must branch. *)
    Satsolver.Cnf.make ~n_vars:8
      [ [ 1; 2 ]; [ -1; 3 ]; [ 4; 5 ]; [ -4; 6 ]; [ 7; 8 ]; [ -7; -8 ] ]
  in
  let b = Budget.make ~max_steps:2 () in
  check_raises_budget "dpll ticks" Budget.Steps (fun () ->
      Satsolver.Dpll.is_sat ~budget:b phi)

let test_budget_reaches_exact () =
  let db = some_db q3 30 in
  let b = Budget.make ~max_steps:2 () in
  check_raises_budget "exact ticks" Budget.Steps (fun () ->
      Cqa.Exact.certain_query ~budget:b q3 db)

let test_budget_reaches_certk () =
  let db = some_db q3 30 in
  let b = Budget.make ~max_steps:2 () in
  check_raises_budget "certk ticks" Budget.Steps (fun () ->
      Cqa.Certk.run ~budget:b ~k:2 (Qlang.Solution_graph.of_query q3 db))

(* ------------------------------------------------------------------ *)
(* The degradation chain *)

(* A database every repair of which satisfies q3 (certain), small enough for
   any tier. *)
let db_certain = db_of q3 [ fact [ 1; 2 ]; fact [ 2; 1 ]; fact [ 2; 3 ]; fact [ 3; 2 ] ]
let db_not_certain = db_of q3 [ fact [ 1; 2 ]; fact [ 1; 5 ]; fact [ 2; 3 ] ]

let solve ?exact_only ?budget ?verify ?estimate_trials db =
  Solver.solve ?exact_only ?budget ?verify ?estimate_trials
    (Core.Dichotomy.classify q3) db

let test_chain_ptime_decides () =
  let outcome, attempts = solve db_certain in
  (match outcome with
  | Outcome.Decided (true, _) -> ()
  | _ -> Alcotest.fail "expected Decided true");
  Alcotest.(check int) "one attempt" 1 (List.length attempts);
  match attempts with
  | [ { Solver.tier = Solver.Tier_ptime; _ } ] -> ()
  | _ -> Alcotest.fail "expected the ptime tier"

let test_chain_fault_degrades_to_sat () =
  (* Fail every certk tick: the ptime tier dies, the SAT tier decides. *)
  let chaos = Chaos.make ~fail_p:1.0 ~sites:[ "certk" ] () in
  let budget = Budget.make ~chaos () in
  let outcome, attempts = solve ~budget db_certain in
  (match outcome with
  | Outcome.Decided (true, Solver.Alg_exact_sat) -> ()
  | _ -> Alcotest.fail "expected the SAT tier to decide");
  match attempts with
  | [
   { Solver.tier = Solver.Tier_ptime; status = Solver.Attempt_failed _; _ };
   { Solver.tier = Solver.Tier_sat; status = Solver.Attempt_decided true; _ };
  ] ->
      ()
  | _ -> Alcotest.fail "expected ptime failed, sat decided"

let test_chain_both_tiers_faulted () =
  (* Fail certk and dpll: both decision tiers fail, and without an estimate
     the chain ends in a solver error naming each failure. *)
  let chaos = Chaos.make ~fail_p:1.0 ~sites:[ "certk"; "dpll" ] () in
  let budget = Budget.make ~chaos () in
  let outcome, attempts = solve ~budget db_not_certain in
  (match outcome with
  | Outcome.Solver_error _ -> ()
  | _ -> Alcotest.fail "expected Solver_error");
  match attempts with
  | [
   { Solver.tier = Solver.Tier_ptime; status = Solver.Attempt_failed _; _ };
   { Solver.tier = Solver.Tier_sat; status = Solver.Attempt_failed _; _ };
  ] ->
      ()
  | _ -> Alcotest.fail "expected ptime failed, sat failed"

let test_chain_estimate_fallback () =
  (* Exhaust the step budget immediately; the unbudgeted Monte Carlo
     fallback still answers, labelled as degraded. *)
  let budget = Budget.make ~max_steps:1 () in
  let outcome, _ = solve ~budget ~estimate_trials:20 db_certain in
  match outcome with
  | Outcome.Estimated e ->
      Alcotest.(check int) "trials" 20 e.Cqa.Montecarlo.trials;
      Alcotest.(check bool) "degraded" true (Outcome.is_degraded outcome)
  | _ -> Alcotest.fail "expected Estimated"

let test_chain_budget_exhausted () =
  let budget = Budget.make ~max_steps:1 () in
  let outcome, attempts = solve ~budget db_certain in
  (match outcome with
  | Outcome.Budget_exhausted -> ()
  | _ -> Alcotest.fail "expected Budget_exhausted");
  (* The shared budget stops the whole chain at the first exhausted tier. *)
  Alcotest.(check int) "chain stopped immediately" 1 (List.length attempts)

let test_chain_timeout () =
  let budget = Budget.make ~timeout:0.0 ~check_every:1 () in
  let outcome, _ = solve ~budget db_certain in
  match outcome with
  | Outcome.Timeout -> ()
  | _ -> Alcotest.fail "expected Timeout"

let test_chain_exact_only () =
  let outcome, attempts = solve ~exact_only:true db_certain in
  (match outcome with
  | Outcome.Decided (true, Solver.Alg_exact_sat) -> ()
  | _ -> Alcotest.fail "expected the SAT tier");
  Alcotest.(check bool) "no ptime attempt" true
    (List.for_all (fun a -> a.Solver.tier <> Solver.Tier_ptime) attempts)

let test_chain_verify_agreement () =
  let outcome, attempts = solve ~verify:true db_not_certain in
  (match outcome with
  | Outcome.Decided (false, _) -> ()
  | _ -> Alcotest.fail "expected Decided false");
  Alcotest.(check int) "both tiers ran" 2 (List.length attempts)

let test_chain_disagreement () =
  (* Injected via run_tiers: two tiers that contradict each other. *)
  let tiers =
    [
      (Solver.Tier_ptime, Solver.Alg_cert2, fun () -> true);
      (Solver.Tier_sat, Solver.Alg_exact_sat, fun () -> false);
    ]
  in
  let outcome, _ = Solver.run_tiers ~verify:true tiers in
  match outcome with
  | Outcome.Solver_error msg ->
      Alcotest.(check bool) "diagnostic names the disagreement" true
        (String.length msg > 0
        && String.sub msg 0 (String.length "solver tiers disagree")
           = "solver tiers disagree")
  | _ -> Alcotest.fail "expected Solver_error"

let test_chain_all_tiers_failed () =
  let tiers =
    [ (Solver.Tier_sat, Solver.Alg_exact_sat, fun () -> invalid_arg "nope") ]
  in
  let outcome, attempts = Solver.run_tiers tiers in
  (match outcome with
  | Outcome.Solver_error _ -> ()
  | _ -> Alcotest.fail "expected Solver_error");
  match attempts with
  | [ { Solver.status = Solver.Attempt_failed "nope"; _ } ] -> ()
  | _ -> Alcotest.fail "expected the failure recorded"

let test_chain_conp_query_budgeted () =
  (* A coNP-complete query under a tiny step budget: no PTIME tier exists,
     the SAT tier runs out, the outcome is Budget_exhausted. *)
  let db =
    Database.of_facts
      [ q_conp.Query.schema ]
      [
        Fact.make "R" [ vi 1; vi 2; vi 1; vi 3 ];
        Fact.make "R" [ vi 1; vi 2; vi 1; vi 4 ];
        Fact.make "R" [ vi 2; vi 3; vi 1; vi 5 ];
      ]
  in
  let budget = Budget.make ~max_steps:1 () in
  let outcome, _ = Solver.solve ~budget (Core.Dichotomy.classify q_conp) db in
  match outcome with
  | Outcome.Budget_exhausted -> ()
  | _ -> Alcotest.fail "expected Budget_exhausted"

let () =
  Alcotest.run "harness"
    [
      ( "budget",
        [
          Alcotest.test_case "unlimited" `Quick test_budget_unlimited;
          Alcotest.test_case "max steps" `Quick test_budget_max_steps;
          Alcotest.test_case "deadline" `Quick test_budget_deadline;
          Alcotest.test_case "deadline granularity" `Quick
            test_budget_deadline_granularity;
          Alcotest.test_case "validation" `Quick test_budget_validation;
        ] );
      ( "clock",
        [ Alcotest.test_case "monotone, sub-ms resolution" `Quick test_clock ] );
      ( "chaos",
        [
          Alcotest.test_case "fault" `Quick test_chaos_fault;
          Alcotest.test_case "site filter" `Quick test_chaos_site_filter;
          Alcotest.test_case "pressure" `Quick test_chaos_pressure;
          Alcotest.test_case "determinism" `Quick test_chaos_determinism;
          Alcotest.test_case "validation" `Quick test_chaos_validation;
          Alcotest.test_case "unknown site refused" `Quick test_chaos_unknown_site;
        ] );
      ( "montecarlo",
        [ Alcotest.test_case "zero trials rejected" `Quick test_montecarlo_zero_trials ] );
      ( "propagation",
        [
          Alcotest.test_case "dpll" `Quick test_budget_reaches_dpll;
          Alcotest.test_case "exact" `Quick test_budget_reaches_exact;
          Alcotest.test_case "certk" `Quick test_budget_reaches_certk;
        ] );
      ( "chain",
        [
          Alcotest.test_case "ptime decides" `Quick test_chain_ptime_decides;
          Alcotest.test_case "fault degrades to sat" `Quick
            test_chain_fault_degrades_to_sat;
          Alcotest.test_case "both tiers faulted" `Quick
            test_chain_both_tiers_faulted;
          Alcotest.test_case "estimate fallback" `Quick test_chain_estimate_fallback;
          Alcotest.test_case "budget exhausted" `Quick test_chain_budget_exhausted;
          Alcotest.test_case "timeout" `Quick test_chain_timeout;
          Alcotest.test_case "exact only" `Quick test_chain_exact_only;
          Alcotest.test_case "verify agreement" `Quick test_chain_verify_agreement;
          Alcotest.test_case "disagreement detected" `Quick test_chain_disagreement;
          Alcotest.test_case "all tiers failed" `Quick test_chain_all_tiers_failed;
          Alcotest.test_case "conp query budgeted" `Quick
            test_chain_conp_query_budgeted;
        ] );
    ]
