(* Tests for the CERTAIN solvers: the exact baselines against each other and
   against repair enumeration, soundness of Cert_k and ¬Matching, exactness
   of Cert_2 on the Theorem 4 class, exactness of ¬Matching on clique
   databases, and the SAT-based solver. *)

module Database = Relational.Database
module Fact = Relational.Fact
module Value = Relational.Value
module Schema = Relational.Schema
module Query = Qlang.Query
module Parse = Qlang.Parse
module Solution_graph = Qlang.Solution_graph
module Solutions = Qlang.Solutions

let vi = Value.int
let fact vs = Fact.make "R" (List.map vi vs)
let q3 = Parse.query_exn "R(x | y) R(y | z)"
let q6 = Parse.query_exn "R(x | y z) R(z | x y)"

let db_of q facts =
  Database.of_facts [ q.Query.schema ] facts

let rng = Random.State.make [| 2024 |]

let random_db q ~n ~domain = Workload.Randdb.random_for_query rng q ~n_facts:n ~domain

(* ------------------------------------------------------------------ *)
(* Exact solvers *)

let test_exact_simple_certain () =
  (* Single block where every fact closes a cycle with a consistent fact. *)
  let db = db_of q3 [ fact [ 1; 2 ]; fact [ 2; 1 ]; fact [ 2; 3 ]; fact [ 3; 2 ] ] in
  (* blocks: {12}, {21,23}, {32}. Any repair contains 1->2 and either 2->1 or
     2->3; both complete a solution with 1->2 or 3->2 resp.? 2->3 with 3->2:
     q(2->3, 3->2) needs y=3 shared: R(2|3), R(3|2): yes. q(1->2, 2->1): yes. *)
  Alcotest.(check bool) "certain" true (Cqa.Exact.certain_query q3 db);
  Alcotest.(check bool) "enumeration agrees" true (Cqa.Exact.certain_enum q3 db)

let test_exact_simple_not_certain () =
  let db = db_of q3 [ fact [ 1; 2 ]; fact [ 1; 5 ]; fact [ 2; 3 ] ] in
  (* Repair {1->5, 2->3} has no solution. *)
  Alcotest.(check bool) "not certain" false (Cqa.Exact.certain_query q3 db);
  Alcotest.(check bool) "enumeration agrees" false (Cqa.Exact.certain_enum q3 db)

let test_exact_empty_db () =
  Alcotest.(check bool) "empty db not certain" false (Cqa.Exact.certain_query q3 (db_of q3 []))

let test_falsifying_repair_is_independent () =
  let db = random_db q3 ~n:20 ~domain:4 in
  let g = Solution_graph.of_query q3 db in
  match Cqa.Exact.falsifying_repair g with
  | None -> ()
  | Some picks ->
      Alcotest.(check int) "one per block" (Solution_graph.n_blocks g) (List.length picks);
      let facts = List.map (fun i -> g.Solution_graph.facts.(i)) picks in
      Alcotest.(check bool) "repair falsifies q" false (Solutions.query_satisfies q3 facts)

let prop_exact_agrees_with_enumeration =
  QCheck2.Test.make ~name:"backtracking = enumeration oracle (q3)" ~count:150
    QCheck2.Gen.(
      let* n = int_range 0 10 in
      let* ks = list_size (return n) (int_range 0 3) in
      let* vs = list_size (return n) (int_range 0 4) in
      return (List.map2 (fun k v -> fact [ k; v ]) ks vs))
    (fun facts ->
      let db = db_of q3 facts in
      Cqa.Exact.certain_query q3 db = Cqa.Exact.certain_enum q3 db)

let prop_exact_agrees_q6 =
  QCheck2.Test.make ~name:"backtracking = enumeration oracle (q6)" ~count:100
    QCheck2.Gen.(
      let* n = int_range 0 9 in
      let* tuples = list_size (return n) (triple (int_range 0 2) (int_range 0 2) (int_range 0 2)) in
      return (List.map (fun (a, b, c) -> fact [ a; b; c ]) tuples))
    (fun facts ->
      let db = db_of q6 facts in
      Cqa.Exact.certain_query q6 db = Cqa.Exact.certain_enum q6 db)

(* ------------------------------------------------------------------ *)
(* Cert_k *)

let test_certk_requires_positive_k () =
  let g = Solution_graph.of_query q3 (db_of q3 []) in
  Alcotest.(check bool) "k = 0 rejected" true
    (try
       ignore (Cqa.Certk.run ~k:0 g);
       false
     with Invalid_argument _ -> true)

let test_certk_kappa () =
  Alcotest.(check int) "kappa for l=1" 1 (Cqa.Certk.kappa q3);
  Alcotest.(check int) "paper k for l=1" 8 (Cqa.Certk.paper_k q3);
  let q2 = Parse.query_exn "R(x u | x y) R(u y | x z)" in
  Alcotest.(check int) "kappa for l=2" 4 (Cqa.Certk.kappa q2);
  Alcotest.(check int) "paper k for l=2" 515 (Cqa.Certk.paper_k q2)

let test_certk_simple_yes () =
  let db = db_of q3 [ fact [ 1; 2 ]; fact [ 2; 1 ] ] in
  Alcotest.(check bool) "certain by Cert_2" true
    (Cqa.Certk.run ~k:2 (Solution_graph.of_query q3 db))

let test_certk_derived_minimal_sets () =
  let db = db_of q3 [ fact [ 1; 2 ]; fact [ 2; 3 ] ] in
  let g = Solution_graph.of_query q3 db in
  let derived = Cqa.Certk.derived ~k:2 g in
  (* The pair {1->2, 2->3} is the only minimal satisfying set, and both
     blocks are singletons so the empty set is eventually derived. *)
  Alcotest.(check bool) "empty set derived" true (List.mem [] derived)

(* Cert_k keeps one state per domain between runs; the kept state must
   not hold the last run's graph alive. *)
let test_certk_pool_drops_graph () =
  let w = Weak.create 1 in
  let run_once () =
    let db = db_of q3 [ fact [ 1; 2 ]; fact [ 2; 3 ]; fact [ 2; 4 ] ] in
    let g = Solution_graph.of_query q3 db in
    Weak.set w 0 (Some g.Solution_graph.block_of);
    ignore (Cqa.Certk.run ~k:2 g)
  in
  run_once ();
  Gc.full_major ();
  Alcotest.(check bool) "graph collected after the run" false (Weak.check w 0)

(* Cert_2 on certk_golden's q3-components-8 graph (334 facts, 3,654
   ticks), after one warm-up run has sized the domain's pooled state: the
   run allocates under 60% of the 78,617 minor words it took when every
   admitted set boxed its provenance, every bucket insertion copied the
   bucket and the worklist consed a cell per dirty block. *)
let test_certk_allocation () =
  let db = Workload.Randdb.q3_components (Random.State.make [| 17; 8 |]) ~components:8 in
  let g = Solution_graph.of_query q3 db in
  Alcotest.(check int) "the golden graph" 334 (Solution_graph.n_facts g);
  ignore (Cqa.Certk.run ~k:2 g);
  let budget = Harness.Budget.unlimited () in
  let before = Gc.minor_words () in
  let certain = Cqa.Certk.run ~budget ~k:2 g in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "not certain" false certain;
  Alcotest.(check int) "the golden ticks" 3654 (Harness.Budget.steps budget);
  if words >= 0.6 *. 78_617. then
    Alcotest.failf "Cert_2 on %d facts allocated %.0f minor words" (Solution_graph.n_facts g)
      words

let prop_certk_sound =
  (* Cert_k is an under-approximation of CERTAIN for every k and query. *)
  QCheck2.Test.make ~name:"Cert_k implies CERTAIN (q3, q6; k in 1..3)" ~count:120
    QCheck2.Gen.(
      let* n = int_range 0 9 in
      let* which = bool in
      let* ks = list_size (return n) (int_range 0 3) in
      let* vs = list_size (return n) (int_range 0 3) in
      let* ws = list_size (return n) (int_range 0 3) in
      let* k = int_range 1 3 in
      return (which, k, List.combine (List.combine ks vs) ws))
    (fun (which, k, rows) ->
      let q = if which then q3 else q6 in
      let facts =
        List.map
          (fun ((a, b), c) -> if which then fact [ a; b ] else fact [ a; b; c ])
          rows
      in
      let db = db_of q facts in
      (not (Cqa.Certk.run ~k (Solution_graph.of_query q db)))
      || Cqa.Exact.certain_query q db)

let prop_cert2_exact_on_thm4_class =
  (* Theorem 4: for q3 (shared variable inside key(B)), Cert_2 = CERTAIN. *)
  QCheck2.Test.make ~name:"Cert_2 = CERTAIN for q3 (Theorem 4)" ~count:200
    QCheck2.Gen.(
      let* n = int_range 0 12 in
      let* ks = list_size (return n) (int_range 0 3) in
      let* vs = list_size (return n) (int_range 0 4) in
      return (List.map2 (fun k v -> fact [ k; v ]) ks vs))
    (fun facts ->
      let db = db_of q3 facts in
      Cqa.Certk.run ~k:2 (Solution_graph.of_query q3 db) = Cqa.Exact.certain_query q3 db)

let prop_cert2_exact_on_q4 =
  let q4 = Parse.query_exn "R(x x | y) R(x y | y)" in
  QCheck2.Test.make ~name:"Cert_2 = CERTAIN for q4 (Theorem 4)" ~count:150
    QCheck2.Gen.(
      let* n = int_range 0 10 in
      let* tuples = list_size (return n) (triple (int_range 0 2) (int_range 0 2) (int_range 0 2)) in
      return (List.map (fun (a, b, c) -> fact [ a; b; c ]) tuples))
    (fun facts ->
      let db = db_of q4 facts in
      Cqa.Certk.run ~k:2 (Solution_graph.of_query q4 db) = Cqa.Exact.certain_query q4 db)

(* ------------------------------------------------------------------ *)
(* Matching *)

let test_matching_simple () =
  (* Single-block database whose only fact is a self-solution: no saturating
     matching can exist, hence certain. *)
  let db = db_of q3 [ fact [ 7; 7 ] ] in
  let g = Solution_graph.of_query q3 db in
  Alcotest.(check bool) "no saturating matching" false (Cqa.Matching_alg.run g);
  Alcotest.(check bool) "hence certain" true (Cqa.Exact.certain g)

let test_matching_bipartite_shape () =
  let db = db_of q6 [ fact [ 1; 2; 3 ]; fact [ 1; 5; 6 ]; fact [ 9; 9; 9 ] ] in
  let g = Solution_graph.of_query q6 db in
  let h = Cqa.Matching_alg.bipartite g in
  Alcotest.(check int) "left side = blocks" (Solution_graph.n_blocks g) h.Graphs.Bipartite.n_left

let prop_matching_sound =
  (* ¬Matching implies CERTAIN (Proposition 15) for a 2way-determined query. *)
  QCheck2.Test.make ~name:"not MATCHING implies CERTAIN (q6, Prop 15)" ~count:150
    QCheck2.Gen.(
      let* n = int_range 0 9 in
      let* tuples = list_size (return n) (triple (int_range 0 2) (int_range 0 2) (int_range 0 2)) in
      return (List.map (fun (a, b, c) -> fact [ a; b; c ]) tuples))
    (fun facts ->
      let db = db_of q6 facts in
      let g = Solution_graph.of_query q6 db in
      Cqa.Matching_alg.run g || Cqa.Exact.certain g)

let prop_matching_exact_on_clique_query =
  (* Theorem 17: q6 is a clique-query, so ¬Matching = CERTAIN. *)
  QCheck2.Test.make ~name:"not MATCHING = CERTAIN for q6 (Theorem 17)" ~count:200
    QCheck2.Gen.(
      let* n = int_range 0 10 in
      let* tuples = list_size (return n) (triple (int_range 0 3) (int_range 0 3) (int_range 0 3)) in
      return (List.map (fun (a, b, c) -> fact [ a; b; c ]) tuples))
    (fun facts ->
      let db = db_of q6 facts in
      let g = Solution_graph.of_query q6 db in
      Alcotest.(check bool) "q6 yields clique databases" true (Solution_graph.is_clique_database g);
      (not (Cqa.Matching_alg.run g)) = Cqa.Exact.certain g)

(* H(D, q) read off its definition: an edge from the block of every fact a
   with D ⊭ q(aa) to clique(a), given to [Bipartite.make] as an edge list.
   Clique ids are numbered by first appearance over the facts, a
   quasi-clique component sharing one id, as [Matching_alg] numbers
   them. *)
let h_by_definition g =
  let member, n_comps = Solution_graph.components g in
  let is_qc = Solution_graph.quasi_cliques g ~member ~n_comps in
  let comp_id = Array.make n_comps (-1) and next = ref 0 in
  let fresh () =
    incr next;
    !next - 1
  in
  let edges =
    List.filter_map
      (fun v ->
        let c = member.(v) in
        let clique =
          if not is_qc.(c) then fresh ()
          else begin
            if comp_id.(c) < 0 then comp_id.(c) <- fresh ();
            comp_id.(c)
          end
        in
        if g.Solution_graph.self.(v) then None
        else Some (g.Solution_graph.block_of.(v), clique))
      (List.init (Solution_graph.n_facts g) Fun.id)
  in
  Graphs.Bipartite.make ~n_left:(Solution_graph.n_blocks g) ~n_right:!next edges

let prop_bipartite_is_the_definition =
  QCheck2.Test.make ~name:"H(D, q) rows = the definition's edge list" ~count:200
    QCheck2.Gen.(
      let* q = oneofl Workload.Catalog.[ q3; q5; q6 ] in
      let* n = int_range 0 40 in
      let* domain = int_range 2 6 in
      let* seed = int in
      return (q, n, domain, seed))
    (fun (q, n, domain, seed) ->
      let db =
        Workload.Randdb.random_for_query (Random.State.make [| seed |]) q ~n_facts:n ~domain
      in
      let g = Solution_graph.of_query q db in
      let h = Cqa.Matching_alg.bipartite g and h' = h_by_definition g in
      h.Graphs.Bipartite.n_right = h'.Graphs.Bipartite.n_right
      && h.Graphs.Bipartite.offsets = h'.Graphs.Bipartite.offsets
      && h.Graphs.Bipartite.targets = h'.Graphs.Bipartite.targets)

(* [Matching_alg.run]'s verdicts and tick counts, recorded before H(D, q)
   became CSR rows and Hopcroft–Karp an int-array search: equal counts
   hold the BFS and DFS to that visit order. The graph-bound workload's
   three q6 databases (its shapes, before the seed renames their values),
   a seeded Randdb pool of q6 databases, and the Theorem 14 designs, whose
   matchings fail. *)
let matching_steps g =
  let budget = Harness.Budget.unlimited () in
  let saturated = Cqa.Matching_alg.run ~budget g in
  (saturated, Harness.Budget.steps budget)

let check_steps name expected graphs =
  Alcotest.(check (list (pair bool int))) name expected (List.map matching_steps graphs)

let test_matching_steps_pinned () =
  let module C = Workload.Catalog in
  let shape = Random.State.make [| Hashtbl.hash "graph-bound" |] in
  let graph_bound =
    List.filter_map
      (fun (q, n) ->
        let db = Workload.Randdb.random_for_query shape q ~n_facts:n ~domain:(n / 8) in
        if q == C.q6 then Some (Solution_graph.of_query q db) else None)
      [
        (C.q5, 1200); (C.q5, 1600); (C.q5, 2400); (C.q5, 3200);
        (C.q6, 600); (C.q6, 1200); (C.q6, 1600);
      ]
  in
  check_steps "graph-bound q6" [ (true, 151); (true, 301); (true, 401) ] graph_bound;
  let pool = Random.State.make [| 0x6A7C |] in
  check_steps "Randdb q6 pool"
    (List.map
       (fun s -> (true, s))
       [ 9; 7; 9; 11; 13; 5; 7; 9; 11; 13; 5; 7; 9; 11; 13; 5; 7; 9; 11; 13; 5; 7; 9; 11 ])
    (List.init 24 (fun i ->
         Solution_graph.of_query C.q6
           (Workload.Randdb.random_for_query pool C.q6 ~n_facts:(8 + (i * 12))
              ~domain:(2 + (i mod 5)))));
  check_steps "designs"
    (List.map (fun s -> (false, s)) [ 10; 36; 36; 22; 22; 22; 22; 22 ])
    (List.map (Solution_graph.of_query C.q6)
       (Workload.Designs.two_orientations :: List.init 7 Workload.Designs.fano_minus))

(* ------------------------------------------------------------------ *)
(* Combined and SAT *)

let prop_combined_sound =
  QCheck2.Test.make ~name:"combined algorithm implies CERTAIN" ~count:150
    QCheck2.Gen.(
      let* n = int_range 0 9 in
      let* tuples = list_size (return n) (triple (int_range 0 2) (int_range 0 2) (int_range 0 2)) in
      return (List.map (fun (a, b, c) -> fact [ a; b; c ]) tuples))
    (fun facts ->
      let db = db_of q6 facts in
      (not (Cqa.Combined.run ~k:2 (Solution_graph.of_query q6 db)))
      || Cqa.Exact.certain_query q6 db)

let prop_combined_exact_q6 =
  (* Theorem 18 for q6: the combination is exact (here already thanks to the
     matching side). *)
  QCheck2.Test.make ~name:"combined = CERTAIN for q6 (Theorem 18)" ~count:150
    QCheck2.Gen.(
      let* n = int_range 0 9 in
      let* tuples = list_size (return n) (triple (int_range 0 3) (int_range 0 3) (int_range 0 3)) in
      return (List.map (fun (a, b, c) -> fact [ a; b; c ]) tuples))
    (fun facts ->
      let db = db_of q6 facts in
      Cqa.Combined.run ~k:2 (Solution_graph.of_query q6 db)
      = Cqa.Exact.certain_query q6 db)

let prop_sat_equals_backtracking =
  QCheck2.Test.make ~name:"SAT solver = backtracking solver" ~count:150
    QCheck2.Gen.(
      let* which = bool in
      let* n = int_range 0 10 in
      let* ks = list_size (return n) (int_range 0 3) in
      let* vs = list_size (return n) (int_range 0 3) in
      let* ws = list_size (return n) (int_range 0 3) in
      return (which, List.combine (List.combine ks vs) ws))
    (fun (which, rows) ->
      let q = if which then q3 else q6 in
      let facts =
        List.map (fun ((a, b), c) -> if which then fact [ a; b ] else fact [ a; b; c ]) rows
      in
      let db = db_of q facts in
      let g = Solution_graph.of_query q db in
      Cqa.Satreduce.certain g = Cqa.Exact.certain g)

(* Every repair the SAT tier returns is a falsifying repair, and it returns
   one exactly when the exact solver says "not certain": the catalogue
   against fresh 40-fact, domain-4 databases. *)
let catalog = Array.of_list Workload.Catalog.all

let prop_sat_falsifying_repair =
  QCheck2.Test.make ~name:"sat falsifier" ~count:120
    QCheck2.Gen.(pair (int_range 0 99999) (int_range 0 (Array.length catalog - 1)))
    (fun (seed, qi) ->
      let q = catalog.(qi).Workload.Catalog.query in
      let db =
        Workload.Randdb.random_for_query (Random.State.make [| seed |]) q
          ~n_facts:40 ~domain:4
      in
      let g = Solution_graph.of_query q db in
      match Cqa.Satreduce.falsifying_repair g with
      | None -> Cqa.Exact.certain g
      | Some picks ->
          let blocks = List.map (fun i -> g.Solution_graph.block_of.(i)) picks in
          (not (Cqa.Exact.certain g))
          && blocks = List.init (Solution_graph.n_blocks g) Fun.id
          && not
               (Solutions.query_satisfies q
                  (List.map (fun i -> g.Solution_graph.facts.(i)) picks)))

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "cqa"
    [
      ( "exact",
        [
          Alcotest.test_case "certain" `Quick test_exact_simple_certain;
          Alcotest.test_case "not certain" `Quick test_exact_simple_not_certain;
          Alcotest.test_case "empty db" `Quick test_exact_empty_db;
          Alcotest.test_case "falsifier independent" `Quick test_falsifying_repair_is_independent;
        ]
        @ qt [ prop_exact_agrees_with_enumeration; prop_exact_agrees_q6 ] );
      ( "certk",
        [
          Alcotest.test_case "k validation" `Quick test_certk_requires_positive_k;
          Alcotest.test_case "kappa / paper k" `Quick test_certk_kappa;
          Alcotest.test_case "simple yes" `Quick test_certk_simple_yes;
          Alcotest.test_case "minimal sets" `Quick test_certk_derived_minimal_sets;
          Alcotest.test_case "pooled state drops the graph" `Quick test_certk_pool_drops_graph;
          Alcotest.test_case "allocation bound" `Quick test_certk_allocation;
        ]
        @ qt [ prop_certk_sound; prop_cert2_exact_on_thm4_class; prop_cert2_exact_on_q4 ] );
      ( "matching",
        [
          Alcotest.test_case "self-loop block" `Quick test_matching_simple;
          Alcotest.test_case "bipartite shape" `Quick test_matching_bipartite_shape;
          Alcotest.test_case "tick counts pinned" `Quick test_matching_steps_pinned;
        ]
        @ qt
            [
              prop_matching_sound;
              prop_matching_exact_on_clique_query;
              prop_bipartite_is_the_definition;
            ] );
      ( "combined+sat",
        qt
          [
            prop_combined_sound;
            prop_combined_exact_q6;
            prop_sat_equals_backtracking;
            prop_sat_falsifying_repair;
          ] );
    ]
