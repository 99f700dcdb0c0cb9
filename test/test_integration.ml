(* End-to-end integration tests cutting across all libraries: the Theorem 14
   separation family, cross-solver agreement on every catalogue query, the
   Proposition 16 clique-database characterization, and the full
   classify-then-solve pipeline. *)

module Parse = Qlang.Parse
module Query = Qlang.Query
module Solution_graph = Qlang.Solution_graph
module Designs = Workload.Designs
module Catalog = Workload.Catalog

let q6 = Catalog.q6

(* ------------------------------------------------------------------ *)
(* Theorem 14: Cert_k is not exact for triangle queries. *)

let test_thm14_k1_witness () =
  let g = Solution_graph.of_query q6 Designs.two_orientations in
  Alcotest.(check bool) "certain" true (Cqa.Exact.certain g);
  Alcotest.(check bool) "Cert_1 fails" false (Cqa.Certk.run ~k:1 g);
  Alcotest.(check bool) "Cert_2 recovers" true (Cqa.Certk.run ~k:2 g);
  Alcotest.(check bool) "matching side solves it" false (Cqa.Matching_alg.run g)

let test_thm14_k2_witness_fano () =
  (* The Fano plane minus any line: seven blocks over six rotation cliques,
     certain by Hall's condition, invisible to Cert_2. *)
  for i = 0 to 6 do
    let g = Solution_graph.of_query q6 (Designs.fano_minus i) in
    Alcotest.(check bool) "certain" true (Cqa.Exact.certain g);
    Alcotest.(check bool) "Cert_2 fails" false (Cqa.Certk.run ~k:2 g);
    Alcotest.(check bool) "Cert_3 recovers" true (Cqa.Certk.run ~k:3 g);
    Alcotest.(check bool) "combined algorithm solves it" true
      (Cqa.Combined.run ~k:2 g)
  done

let test_full_fano_not_certain () =
  (* With all seven lines a perfect matching exists: not certain; both the
     matching algorithm and the exact solver must see it. *)
  let g = Solution_graph.of_query q6 (Designs.db_of_triples Designs.fano_lines) in
  Alcotest.(check bool) "not certain" false (Cqa.Exact.certain g);
  Alcotest.(check bool) "matching exists" true (Cqa.Matching_alg.run g)

(* ------------------------------------------------------------------ *)
(* Proposition 16: on clique databases, ¬Matching is exact. *)

let test_prop16_on_rotation_systems () =
  let rng = Random.State.make [| 77 |] in
  for _ = 1 to 40 do
    let db = Designs.rotation_system rng ~n_keys:6 ~n_triples:5 in
    let g = Solution_graph.of_query q6 db in
    Alcotest.(check bool) "rotation systems are clique databases" true
      (Solution_graph.is_clique_database g);
    Alcotest.(check bool) "Prop 16 equivalence" (Cqa.Exact.certain g)
      (not (Cqa.Matching_alg.run g))
  done

(* ------------------------------------------------------------------ *)
(* Cross-solver agreement on the full catalogue. *)

let test_all_solvers_agree_on_catalog () =
  let rng = Random.State.make [| 31337 |] in
  List.iter
    (fun (e : Catalog.entry) ->
      let q = e.Catalog.query in
      (* Keep instances small: the exact enumeration oracle is exponential. *)
      for _ = 1 to 8 do
        let db = Workload.Randdb.random_for_query rng q ~n_facts:8 ~domain:3 in
        let g = Solution_graph.of_query q db in
        let exact = Cqa.Exact.certain g in
        Alcotest.(check bool) (e.Catalog.name ^ ": SAT = exact") exact (Cqa.Satreduce.certain g);
        Alcotest.(check bool) (e.Catalog.name ^ ": enum = exact") exact (Cqa.Exact.certain_enum q db);
        (* Both polynomial under-approximations stay sound. *)
        if Cqa.Certk.run ~k:2 g then
          Alcotest.(check bool) (e.Catalog.name ^ ": Cert_2 sound") true exact;
        if not (Cqa.Matching_alg.run g) then
          Alcotest.(check bool) (e.Catalog.name ^ ": anti-matching sound") true exact
      done)
    Catalog.all

(* ------------------------------------------------------------------ *)
(* The classify-then-solve pipeline end to end (PTIME verdicts only get
   polynomial algorithms; answers always match the exact solver). *)

let test_pipeline_agreement () =
  let rng = Random.State.make [| 271828 |] in
  List.iter
    (fun name ->
      let e = Catalog.find name in
      let report = Core.Dichotomy.classify e.Catalog.query in
      for _ = 1 to 6 do
        let db = Workload.Randdb.random_for_query rng e.Catalog.query ~n_facts:10 ~domain:3 in
        let answer, alg = Core.Solver.certain report db in
        Alcotest.(check bool)
          (name ^ " pipeline = exact")
          (Cqa.Exact.certain_query e.Catalog.query db)
          answer;
        (* PTIME verdicts must never fall back to exponential algorithms. *)
        match (report.Core.Dichotomy.verdict, alg) with
        | Core.Dichotomy.Ptime _, Core.Solver.Alg_exact_sat ->
            Alcotest.fail (name ^ ": PTIME query solved exponentially")
        | _, _ -> ()
      done)
    [ "q3"; "q4"; "q5"; "q6"; "swap"; "triv-hom" ]

(* The matching-based solver on the Theorem 14 family within the pipeline:
   classified as triangle-only, the solver must answer via the combination. *)
let test_pipeline_triangle_family () =
  let report = Core.Dichotomy.classify q6 in
  (match report.Core.Dichotomy.verdict with
  | Core.Dichotomy.Ptime (Core.Dichotomy.Combined_triangle _) -> ()
  | _ -> Alcotest.fail "q6 must classify as triangle-only");
  for i = 0 to 6 do
    let answer, alg = Core.Solver.certain report (Designs.fano_minus i) in
    Alcotest.(check bool) "certain on fano minus line" true answer;
    match alg with
    | Core.Solver.Alg_combined _ -> ()
    | _ -> Alcotest.fail "expected the combined algorithm"
  done

(* Database text format -> solver, as a user would drive it. *)
let test_parse_and_solve () =
  let db =
    Parse.database_exn
      "# two employees claim the same office\nR[2,1]\nR(1 2)\nR(1 3)\nR(2 1)\nR(3 1)\n"
  in
  let q = Parse.query_exn "R(x | y) R(y | x)" in
  let answer, _ = Core.Solver.certain (Core.Dichotomy.classify q) db in
  Alcotest.(check bool) "certain" true answer;
  Alcotest.(check bool) "exact agrees" true (Cqa.Exact.certain_query q db)

let () =
  Alcotest.run "integration"
    [
      ( "thm14",
        [
          Alcotest.test_case "k=1 witness" `Quick test_thm14_k1_witness;
          Alcotest.test_case "k=2 witness (Fano)" `Quick test_thm14_k2_witness_fano;
          Alcotest.test_case "full Fano not certain" `Quick test_full_fano_not_certain;
        ] );
      ( "prop16",
        [ Alcotest.test_case "rotation systems" `Quick test_prop16_on_rotation_systems ] );
      ( "agreement",
        [
          Alcotest.test_case "all solvers, full catalogue" `Slow test_all_solvers_agree_on_catalog;
          Alcotest.test_case "pipeline vs exact" `Slow test_pipeline_agreement;
          Alcotest.test_case "triangle family pipeline" `Slow test_pipeline_triangle_family;
          Alcotest.test_case "parse and solve" `Quick test_parse_and_solve;
        ] );
    ]
