(* Chaos stress suite (run with [dune build @stress]).

   Two parts:

   1. Deterministic edge forcing: targeted fault injection drives the
      degradation chain down each specific edge, and the run asserts the
      expected outcome shape.

   2. Hard coNP instances: Theorem-12 gadgets of normalized random 3-SAT
      formulas of 20-40 variables, decided by the served chain under the
      daemon's heavy budget, checked against Lemma 13.

   3. A randomized chaos sweep: many seeds, moderate fault / delay /
      pressure probabilities at every tick site. Whatever the injections do,
      a [Decided] outcome must match the chaos-free exact reference — chaos
      may degrade availability, never correctness. The sweep also checks
      that every edge of the chain (ptime decision, fault fallthrough,
      budget stop, estimate fallback) was observed at least once across the
      sweep, so the suite fails loudly if a refactor makes an edge
      unreachable. *)

module Budget = Harness.Budget
module Chaos = Harness.Chaos
module Outcome = Harness.Outcome
module Solver = Core.Solver
module Fact = Relational.Fact
module Value = Relational.Value
module Database = Relational.Database
module Query = Qlang.Query

let q3 = Qlang.Parse.query_exn "R(x | y) R(y | z)"
let r3 = Core.Dichotomy.classify q3

let failures = ref 0

let check name ok =
  if ok then Printf.printf "ok   %s\n%!" name
  else begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

let vi = Value.int
let fact vs = Fact.make "R" (List.map vi vs)

let db_certain =
  Database.of_facts [ q3.Query.schema ]
    [ fact [ 1; 2 ]; fact [ 2; 1 ]; fact [ 2; 3 ]; fact [ 3; 2 ] ]

(* ------------------------------------------------------------------ *)
(* 1. Deterministic edge forcing *)

let force_edge name ~sites ~expect =
  let chaos = Chaos.make ~fail_p:1.0 ~sites () in
  let budget = Budget.make ~chaos () in
  let outcome, _ = Solver.solve ~budget r3 db_certain in
  check name (expect outcome)

let deterministic () =
  force_edge "edge: ptime -> sat" ~sites:[ "certk" ] ~expect:(function
    | Outcome.Decided (true, Solver.Alg_exact_sat) -> true
    | _ -> false);
  (* The SAT tier is the last decision tier: faulted too, the chain has
     nothing to hand off to and reports the failure. *)
  force_edge "edge: sat fault -> solver error" ~sites:[ "certk"; "dpll" ]
    ~expect:(function Outcome.Solver_error _ -> true | _ -> false);
  (* All decision tiers fault: with an estimate the chain degrades, without
     one it reports the failure. *)
  (* The canonical registry, so a newly added tick site is faulted here
     automatically. (The chain's estimate fallback is unbudgeted, so faulting
     "montecarlo" too is harmless.) *)
  let all_sites = Harness.Sites.all in
  let chaos = Chaos.make ~fail_p:1.0 ~sites:all_sites () in
  let budget = Budget.make ~chaos () in
  let outcome, _ =
    Solver.solve ~budget ~estimate_trials:50 r3 db_certain
  in
  check "edge: all faulted -> estimate"
    (match outcome with Outcome.Estimated _ -> true | _ -> false);
  let chaos = Chaos.make ~fail_p:1.0 ~sites:all_sites () in
  let budget = Budget.make ~chaos () in
  let outcome, _ = Solver.solve ~budget r3 db_certain in
  check "edge: all faulted, no fallback -> solver error"
    (match outcome with Outcome.Solver_error _ -> true | _ -> false);
  let budget = Budget.make ~max_steps:1 () in
  let outcome, _ = Solver.solve ~budget r3 db_certain in
  check "edge: step budget -> budget exhausted"
    (match outcome with Outcome.Budget_exhausted -> true | _ -> false);
  let budget = Budget.make ~timeout:0.0 ~check_every:1 () in
  let outcome, _ = Solver.solve ~budget r3 db_certain in
  check "edge: deadline -> timeout"
    (match outcome with Outcome.Timeout -> true | _ -> false)

(* The "matching" tick site: drive the solver down the combined tier on a
   triangle-query instance where the matching disjunct decides (Cert_2 fails
   on fano-minus, Theorem 14), then sever or exhaust it. *)

let q6 = Qlang.Parse.query_exn "R(x | y z) R(z | x y)"
let r6 = Core.Dichotomy.classify q6
let fano = Workload.Designs.fano_minus 0

let matching_edges () =
  let outcome, _ = Solver.solve ~k:2 r6 fano in
  check "matching: baseline decides via the combined tier"
    (match outcome with
    | Outcome.Decided (true, Solver.Alg_combined 2) -> true
    | _ -> false);
  let chaos = Chaos.make ~fail_p:1.0 ~sites:[ "matching" ] () in
  let budget = Budget.make ~chaos () in
  let outcome, _ = Solver.solve ~k:2 ~budget r6 fano in
  check "edge: matching fault -> sat"
    (match outcome with
    | Outcome.Decided (true, Solver.Alg_exact_sat) -> true
    | _ -> false);
  let chaos = Chaos.make ~pressure_p:1.0 ~sites:[ "matching" ] () in
  let budget = Budget.make ~chaos () in
  let outcome, _ = Solver.solve ~k:2 ~budget r6 fano in
  check "edge: matching budget pressure -> budget exhausted"
    (match outcome with Outcome.Budget_exhausted -> true | _ -> false)

(* ------------------------------------------------------------------ *)
(* 2. Hard coNP instances *)

(* Lemma 13: q2 is certain on D(phi) iff phi is unsatisfiable, with DPLL on
   the raw formula as the oracle. Draws at 4.26 clauses per variable are
   mixed and at 5.5 mostly unsatisfiable; each size must see both
   verdicts, and every gadget must be decided by the SAT tier within the
   budget the daemon gives coNP requests. *)
let hard_gadgets () =
  let q2 = Workload.Catalog.q2 in
  let report = Core.Dichotomy.classify q2 in
  let gadget =
    match Core.Gadget.of_tripath Workload.Catalog.q2_nice_fork_tripath with
    | Ok g -> g
    | Error msg -> failwith msg
  in
  let rng = Random.State.make [| 0x3_5A7 |] in
  let rec draw ~n_vars ~n_clauses =
    let phi = Satsolver.Threesat.random rng ~n_vars ~n_clauses in
    match Satsolver.Threesat.normalize phi with
    | Satsolver.Threesat.Decided _ -> draw ~n_vars ~n_clauses
    | Satsolver.Threesat.Formula phi' -> (phi, phi')
  in
  List.iter
    (fun n_vars ->
      let verdicts = ref [] in
      List.iter
        (fun ratio ->
          for _ = 1 to 2 do
            let n_clauses = int_of_float (ratio *. float_of_int n_vars) in
            let phi, phi' = draw ~n_vars ~n_clauses in
            let db = Core.Gadget.database gadget phi' in
            let expected = not (Satsolver.Dpll.is_sat phi) in
            let budget = Budget.make ~timeout:10. ~max_steps:5_000_000 () in
            let t0 = Harness.Clock.now () in
            let outcome, _ = Solver.solve ~budget report db in
            let ms = 1000. *. (Harness.Clock.now () -. t0) in
            Printf.printf "gadget: %d vars, %d clauses, %d facts: certain=%b in %.0f ms\n%!"
              n_vars n_clauses (Database.size db) expected ms;
            verdicts := expected :: !verdicts;
            check
              (Printf.sprintf "gadget %d vars / %d clauses: SAT tier gives Lemma 13's verdict"
                 n_vars n_clauses)
              (match outcome with
              | Outcome.Decided (answer, Solver.Alg_exact_sat) -> answer = expected
              | _ -> false)
          done)
        [ 4.26; 5.5 ];
      check
        (Printf.sprintf "gadgets of %d vars: both verdicts drawn" n_vars)
        (List.mem true !verdicts && List.mem false !verdicts))
    [ 20; 30; 40 ]

(* ------------------------------------------------------------------ *)
(* 3. Randomized chaos sweep *)

type edge_seen = {
  mutable ptime : bool;
  mutable fallthrough : bool;
  mutable budget_stop : bool;
  mutable estimated : bool;
}

let sweep () =
  let seen = { ptime = false; fallthrough = false; budget_stop = false; estimated = false } in
  let gen = Random.State.make [| 0xBEEF |] in
  let wrong = ref 0 and degraded = ref 0 and decided = ref 0 in
  for seed = 1 to 200 do
    let db = Workload.Randdb.random_for_query gen q3 ~n_facts:12 ~domain:3 in
    let reference = Cqa.Exact.certain_query q3 db in
    let chaos =
      Chaos.make ~seed ~fail_p:0.02 ~delay_p:0.01 ~delay_s:0.0001
        ~pressure_p:0.002 ()
    in
    let budget = Budget.make ~max_steps:5_000 ~chaos () in
    let outcome, attempts =
      Solver.solve ~budget ~estimate_trials:10 ~seed r3 db
    in
    List.iter
      (fun (a : Solver.attempt) ->
        match (a.Solver.tier, a.Solver.status) with
        | Solver.Tier_ptime, Solver.Attempt_decided _ -> seen.ptime <- true
        | _, Solver.Attempt_failed _ -> seen.fallthrough <- true
        | _, Solver.Attempt_out_of_budget _ -> seen.budget_stop <- true
        | _ -> ())
      attempts;
    (match outcome with
    | Outcome.Decided (answer, _) ->
        incr decided;
        if answer <> reference then incr wrong
    | Outcome.Estimated _ ->
        seen.estimated <- true;
        incr degraded
    | Outcome.Timeout | Outcome.Budget_exhausted -> incr degraded
    | Outcome.Solver_error _ -> incr degraded)
  done;
  Printf.printf "sweep: %d decided, %d degraded, %d wrong\n%!" !decided !degraded !wrong;
  check "sweep: chaos never corrupts a decision" (!wrong = 0);
  check "sweep: decisions still happen under chaos" (!decided > 0);
  check "sweep edge observed: ptime decision" seen.ptime;
  check "sweep edge observed: fault fallthrough" seen.fallthrough;
  check "sweep edge observed: budget stop" seen.budget_stop;
  check "sweep edge observed: estimate fallback" seen.estimated

let () =
  deterministic ();
  matching_edges ();
  hard_gadgets ();
  sweep ();
  if !failures > 0 then begin
    Printf.printf "%d stress check(s) failed\n%!" !failures;
    exit 1
  end
  else Printf.printf "all stress checks passed\n%!"
