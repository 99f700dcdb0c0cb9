(* Tests for non-Boolean certain answers, classify-once answering over
   changing databases, the random query generator, and the end-to-end fuzz
   test: on random queries, the algorithm designated by the dichotomy must
   agree with the exact solver. *)

module Database = Relational.Database
module Fact = Relational.Fact
module Value = Relational.Value
module Query = Qlang.Query
module Parse = Qlang.Parse
module Answers = Core.Answers

let vi = Value.int
let fact vs = Fact.make "R" (List.map vi vs)
let q3 = Workload.Catalog.q3
let db_of (q : Query.t) facts = Database.of_facts [ q.Query.schema ] facts

(* Oracle: certain answers by explicit repair enumeration. *)
let certain_answers_oracle ~free q db =
  let candidates = Answers.candidates ~free q db in
  List.filter
    (fun tuple ->
      let grounded = Answers.ground ~free q tuple in
      Relational.Repair.for_all db (fun r -> Qlang.Solutions.query_satisfies grounded r))
    candidates

(* ------------------------------------------------------------------ *)
(* Answers *)

let test_answers_validation () =
  let db = db_of q3 [] in
  Alcotest.(check bool) "empty free list" true
    (try
       ignore (Answers.candidates ~free:[] q3 db);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "unknown variable" true
    (try
       ignore (Answers.candidates ~free:[ "nope" ] q3 db);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "repeated variable" true
    (try
       ignore (Answers.candidates ~free:[ "x"; "x" ] q3 db);
       false
     with Invalid_argument _ -> true)

let test_answers_simple () =
  (* Paths of length 2 from x: consistent db 1->2->3->4. *)
  let db = db_of q3 [ fact [ 1; 2 ]; fact [ 2; 3 ]; fact [ 3; 4 ] ] in
  let certain = Answers.certain_answers ~free:[ "x"; "z" ] q3 db in
  Alcotest.(check int) "two paths" 2 (List.length certain);
  Alcotest.(check bool) "1 to 3" true
    (List.mem [ vi 1; vi 3 ] certain);
  Alcotest.(check bool) "2 to 4" true (List.mem [ vi 2; vi 4 ] certain)

let test_answers_uncertain_tuple () =
  (* Key 1 is ambiguous: 1->2 or 1->9; only the path through 2 completes.
     The path (1,3) survives in only half the repairs: not certain. The
     path (2,3)... x=2: fact 2->3 then 3->? none. Certain answers: none. *)
  let db = db_of q3 [ fact [ 1; 2 ]; fact [ 1; 9 ]; fact [ 2; 3 ] ] in
  Alcotest.(check (list (list int)))
    "no certain answers" []
    (List.map (List.map (fun _ -> 0)) (Answers.certain_answers ~free:[ "x"; "z" ] q3 db));
  (* But (1,3) is possible. *)
  Alcotest.(check bool) "possible answer" true
    (List.mem [ vi 1; vi 3 ] (Answers.possible_answers ~free:[ "x"; "z" ] q3 db))

let test_answers_certain_despite_conflict () =
  (* Both choices for key 1 extend to a path: (1, _) answers differ, but the
     projection on x alone is certain. *)
  let db = db_of q3 [ fact [ 1; 2 ]; fact [ 1; 3 ]; fact [ 2; 5 ]; fact [ 3; 7 ] ] in
  let certain = Answers.certain_answers ~free:[ "x" ] q3 db in
  Alcotest.(check bool) "x = 1 certain" true (List.mem [ vi 1 ] certain)

let prop_answers_match_oracle =
  QCheck2.Test.make ~name:"certain answers = repair-enumeration oracle (q3)" ~count:80
    QCheck2.Gen.(
      let* n = int_range 0 8 in
      let* ks = list_size (return n) (int_range 0 3) in
      let* vs = list_size (return n) (int_range 0 4) in
      return (List.map2 (fun k v -> fact [ k; v ]) ks vs))
    (fun facts ->
      let db = db_of q3 facts in
      let free = [ "x"; "z" ] in
      Answers.certain_answers ~free q3 db = certain_answers_oracle ~free q3 db)

let prop_certain_subset_of_possible =
  QCheck2.Test.make ~name:"certain answers are possible answers" ~count:80
    QCheck2.Gen.(
      let* n = int_range 0 8 in
      let* ks = list_size (return n) (int_range 0 3) in
      let* vs = list_size (return n) (int_range 0 3) in
      return (List.map2 (fun k v -> fact [ k; v ]) ks vs))
    (fun facts ->
      let db = db_of q3 facts in
      let free = [ "y" ] in
      let possible = Answers.possible_answers ~free q3 db in
      List.for_all
        (fun t -> List.mem t possible)
        (Answers.certain_answers ~free q3 db))

let test_answers_pattern_cache_consistency () =
  (* Tuples with repeated values ground to a different query shape than
     tuples with distinct values; both must still match the oracle. *)
  let q = Workload.Catalog.q6 in
  let db =
    db_of q [ fact [ 1; 1; 1 ]; fact [ 1; 2; 3 ]; fact [ 3; 1; 2 ]; fact [ 2; 3; 1 ] ]
  in
  let free = [ "x"; "z" ] in
  Alcotest.(check bool) "matches oracle" true
    (Answers.certain_answers ~free q db = certain_answers_oracle ~free q db)

(* ------------------------------------------------------------------ *)
(* What replaces a classify-once session: one report answers every
   database state, the daemon's patch path re-solves a patched plane, and
   the certificate and the estimate are read off the solution graph *)

let certain report db = fst (Core.Solver.certain report db)

let test_session_lifecycle () =
  let db = db_of q3 [ fact [ 1; 2 ]; fact [ 2; 3 ] ] in
  let report = Core.Dichotomy.classify q3 in
  Alcotest.(check bool) "initially certain" true (certain report db);
  (* Introduce a conflicting fact for key 1: certainty is lost. *)
  let db' = Database.add db (fact [ 1; 9 ]) in
  Alcotest.(check bool) "conflict breaks certainty" false (certain report db');
  (* The earlier state is unaffected (immutability). *)
  Alcotest.(check bool) "original unchanged" true (certain report db);
  Alcotest.(check bool) "repairing the db restores certainty" true
    (certain report (Database.remove db' (fact [ 1; 9 ])))

(* The daemon's update path: a plane patched with [Compiled.apply_delta]
   and solved with [Solver.solve_plane] answers like a fresh solve of the
   updated database, and decompiles to it. *)
let test_session_update () =
  let db = db_of q3 [ fact [ 1; 2 ]; fact [ 2; 3 ]; fact [ 5; 5 ] ] in
  let report = Core.Dichotomy.classify q3 in
  let plane = Relational.Compiled.compile db in
  let solve_plane plane =
    match Core.Solver.solve_plane report plane with
    | Harness.Outcome.Decided (b, _), _ -> b
    | _ -> Alcotest.fail "the chain should decide"
  in
  let delta =
    [
      Relational.Delta.Insert (fact [ 1; 9 ]);
      Relational.Delta.Retract (fact [ 5; 5 ]);
    ]
  in
  let plane' = Relational.Compiled.apply_delta plane delta in
  let new_db = Relational.Delta.apply db delta in
  Alcotest.(check bool) "patched plane decompiles to the updated db" true
    (Database.equal (Relational.Compiled.decompile plane') new_db);
  Alcotest.(check bool) "patched plane agrees with a fresh solve" true
    (solve_plane plane' = certain report new_db);
  Alcotest.(check bool) "answer reflects the delta" false
    (solve_plane plane' = solve_plane plane);
  (* A net no-op delta keeps the answer. *)
  let plane'' =
    Relational.Compiled.apply_delta plane'
      [
        Relational.Delta.Retract (fact [ 7; 7 ]);
        Relational.Delta.Insert (fact [ 1; 9 ]);
      ]
  in
  Alcotest.(check bool) "no-op delta keeps the answer" true
    (solve_plane plane'' = solve_plane plane')

(* What [cqa explain] prints on a certain database: a derivation of the
   empty set, and no falsifying repair. *)
let test_session_certificate () =
  let g = Qlang.Solution_graph.of_query q3 (db_of q3 [ fact [ 1; 2 ]; fact [ 2; 3 ] ]) in
  (match Cqa.Certk.certificate ~k:3 g with
  | Some c -> Alcotest.(check bool) "derives empty set" true (c.Cqa.Certk.set = [])
  | None -> Alcotest.fail "certificate expected");
  match Cqa.Satreduce.falsifying_repair g with
  | None -> ()
  | Some _ -> Alcotest.fail "no falsifying repair exists"

let test_session_estimate () =
  let rng = Random.State.make [| 17 |] in
  let g =
    Qlang.Solution_graph.of_query q3
      (db_of q3 [ fact [ 1; 2 ]; fact [ 1; 9 ]; fact [ 2; 3 ] ])
  in
  let e = Cqa.Montecarlo.estimate_g rng ~trials:100 g in
  Alcotest.(check bool) "frequency strictly between 0 and 1" true
    (e.Cqa.Montecarlo.frequency > 0.0 && e.Cqa.Montecarlo.frequency < 1.0)

(* ------------------------------------------------------------------ *)
(* Random queries and the fuzz test *)

let test_randquery_shape () =
  let rng = Random.State.make [| 21 |] in
  for _ = 1 to 50 do
    let q = Workload.Randquery.random rng ~arity:3 ~key_len:1 ~n_vars:4 in
    Alcotest.(check bool) "fits schema" true
      (Qlang.Atom.fits q.Query.schema q.Query.a && Qlang.Atom.fits q.Query.schema q.Query.b)
  done

let test_randquery_nontrivial () =
  let rng = Random.State.make [| 22 |] in
  match Workload.Randquery.random_nontrivial rng ~arity:3 ~key_len:1 ~n_vars:4 ~attempts:200 with
  | None -> Alcotest.fail "should find a non-trivial query"
  | Some q -> Alcotest.(check bool) "non-trivial" true (Query.triviality q = None)

(* The end-to-end fuzz test: classify a random query; whatever the verdict,
   the solver front-end must agree with the exact solver on random small
   databases. This exercises the complete dichotomy pipeline on queries
   nobody hand-picked. *)
let fuzz_pipeline ~seed ~n_queries ~arity ~key_len =
  let rng = Random.State.make [| seed |] in
  let opts =
    { Core.Tripath_search.max_spine = 2; max_arm = 2; max_merges = 1; max_candidates = 50_000 }
  in
  let failures = ref [] in
  for _ = 1 to n_queries do
    let q = Workload.Randquery.random rng ~arity ~key_len ~n_vars:(arity + 1) in
    let report = Core.Dichotomy.classify ~opts q in
    for _ = 1 to 5 do
      let db = Workload.Randdb.random_for_query rng q ~n_facts:8 ~domain:3 in
      let answer, _ = Core.Solver.certain report db in
      let exact = Cqa.Exact.certain_query q db in
      if answer <> exact then failures := (q, db) :: !failures
    done
  done;
  !failures

let test_fuzz_arity2 () =
  match fuzz_pipeline ~seed:101 ~n_queries:40 ~arity:2 ~key_len:1 with
  | [] -> ()
  | (q, _) :: _ -> Alcotest.failf "pipeline disagrees with exact on %s" (Query.to_string q)

let test_fuzz_arity3 () =
  match fuzz_pipeline ~seed:102 ~n_queries:25 ~arity:3 ~key_len:1 with
  | [] -> ()
  | (q, _) :: _ -> Alcotest.failf "pipeline disagrees with exact on %s" (Query.to_string q)

let test_fuzz_arity3_key2 () =
  match fuzz_pipeline ~seed:103 ~n_queries:25 ~arity:3 ~key_len:2 with
  | [] -> ()
  | (q, _) :: _ -> Alcotest.failf "pipeline disagrees with exact on %s" (Query.to_string q)

(* Grounded queries carry constants, which the paper's variable-only model
   does not treat explicitly; fuzz the full answers pipeline (classify the
   grounded query, solve with the designated algorithm) against the
   repair-enumeration oracle on random queries. *)
let test_fuzz_grounded_answers () =
  let rng = Random.State.make [| 2718 |] in
  let checked = ref 0 in
  while !checked < 40 do
    let arity = 2 + Random.State.int rng 2 in
    let q = Workload.Randquery.random rng ~arity ~key_len:1 ~n_vars:(arity + 1) in
    let vars = Qlang.Term.Var_set.elements (Qlang.Query.vars q) in
    if vars <> [] then begin
      incr checked;
      let free = [ List.nth vars (Random.State.int rng (List.length vars)) ] in
      let db = Workload.Randdb.random_for_query rng q ~n_facts:8 ~domain:3 in
      let fast = Answers.certain_answers ~free q db in
      let oracle = certain_answers_oracle ~free q db in
      if fast <> oracle then
        Alcotest.failf "grounded answers disagree with oracle on %s" (Query.to_string q)
    end
  done

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "answers"
    [
      ( "answers",
        [
          Alcotest.test_case "validation" `Quick test_answers_validation;
          Alcotest.test_case "simple paths" `Quick test_answers_simple;
          Alcotest.test_case "uncertain tuple" `Quick test_answers_uncertain_tuple;
          Alcotest.test_case "certain despite conflict" `Quick test_answers_certain_despite_conflict;
          Alcotest.test_case "pattern cache" `Quick test_answers_pattern_cache_consistency;
        ]
        @ qt [ prop_answers_match_oracle; prop_certain_subset_of_possible ] );
      ( "session",
        [
          Alcotest.test_case "lifecycle" `Quick test_session_lifecycle;
          Alcotest.test_case "batch update" `Quick test_session_update;
          Alcotest.test_case "certificate" `Quick test_session_certificate;
          Alcotest.test_case "estimate" `Quick test_session_estimate;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "randquery shape" `Quick test_randquery_shape;
          Alcotest.test_case "randquery nontrivial" `Quick test_randquery_nontrivial;
          Alcotest.test_case "pipeline fuzz arity 2" `Slow test_fuzz_arity2;
          Alcotest.test_case "pipeline fuzz arity 3" `Slow test_fuzz_arity3;
          Alcotest.test_case "pipeline fuzz arity 3 key 2" `Slow test_fuzz_arity3_key2;
          Alcotest.test_case "grounded answers fuzz" `Slow test_fuzz_grounded_answers;
        ] );
    ]
