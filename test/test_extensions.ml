(* Tests for the extension modules: the component partition (Prop 19 shape),
   the naive Cert_k reference vs the antichain implementation, Monte-Carlo
   repair sampling, Cert_k derivation certificates, DOT export, and the
   classification atlas. *)

module Database = Relational.Database
module Fact = Relational.Fact
module Value = Relational.Value
module Query = Qlang.Query
module Parse = Qlang.Parse
module Solution_graph = Qlang.Solution_graph
module Catalog = Workload.Catalog

let vi = Value.int
let fact vs = Fact.make "R" (List.map vi vs)
let q3 = Catalog.q3
let q6 = Catalog.q6
let db_of (q : Query.t) facts = Database.of_facts [ q.Query.schema ] facts

(* ------------------------------------------------------------------ *)
(* Partition *)

let test_partition_splits_components () =
  (* Two disconnected chains plus an isolated block. *)
  let db = db_of q3 [ fact [ 1; 2 ]; fact [ 2; 3 ]; fact [ 10; 11 ]; fact [ 11; 12 ]; fact [ 99; 77 ] ] in
  let parts = Cqa.Partition.split q3 db in
  Alcotest.(check int) "three components" 3 (List.length parts);
  Alcotest.(check int) "facts preserved" (Database.size db)
    (List.fold_left (fun acc d -> acc + Database.size d) 0 parts)

let test_partition_keeps_blocks_whole () =
  let db = db_of q3 [ fact [ 1; 2 ]; fact [ 1; 9 ]; fact [ 2; 3 ] ] in
  let parts = Cqa.Partition.split q3 db in
  List.iter
    (fun part ->
      List.iter
        (fun f ->
          Alcotest.(check int) "whole block in one part"
            (List.length (Database.block_of db f))
            (List.length (Database.block_of part f)))
        (Database.facts part))
    parts

let prop_partition_certain_iff_some_component =
  QCheck2.Test.make ~name:"CERTAIN(D) iff some component certain (Prop 19(2))"
    ~count:150
    QCheck2.Gen.(
      let* n = int_range 0 12 in
      let* ks = list_size (return n) (int_range 0 5) in
      let* vs = list_size (return n) (int_range 0 5) in
      return (List.map2 (fun k v -> fact [ k; v ]) ks vs))
    (fun facts ->
      let db = db_of q3 facts in
      let direct = Cqa.Exact.certain_query q3 db in
      let via_parts =
        Cqa.Partition.certain_by_components (fun c -> Cqa.Exact.certain_query q3 c) q3 db
      in
      direct = via_parts)

let prop_partition_certk_distributes =
  QCheck2.Test.make ~name:"component Cert_k implies global Cert_k (Prop 19(3))"
    ~count:100
    QCheck2.Gen.(
      let* n = int_range 0 10 in
      let* ks = list_size (return n) (int_range 0 4) in
      let* vs = list_size (return n) (int_range 0 4) in
      return (List.map2 (fun k v -> fact [ k; v ]) ks vs))
    (fun facts ->
      let db = db_of q3 facts in
      let parts = Cqa.Partition.split q3 db in
      let some_part =
        List.exists
          (fun c -> Cqa.Certk.run ~k:2 (Solution_graph.of_query q3 c))
          parts
      in
      (not some_part) || Cqa.Certk.run ~k:2 (Solution_graph.of_query q3 db))

(* ------------------------------------------------------------------ *)
(* Naive Cert_k as an oracle for the antichain implementation *)

let prop_certk_matches_naive_q3 =
  QCheck2.Test.make ~name:"antichain Cert_k = naive Cert_k (q3)" ~count:120
    QCheck2.Gen.(
      let* n = int_range 0 7 in
      let* k = int_range 1 3 in
      let* ks = list_size (return n) (int_range 0 2) in
      let* vs = list_size (return n) (int_range 0 3) in
      return (k, List.map2 (fun a b -> fact [ a; b ]) ks vs))
    (fun (k, facts) ->
      let g = Solution_graph.of_query q3 (db_of q3 facts) in
      Cqa.Certk.run ~k g = Cqa.Certk_naive.run ~k g)

let prop_certk_matches_naive_q6 =
  QCheck2.Test.make ~name:"antichain Cert_k = naive Cert_k (q6)" ~count:80
    QCheck2.Gen.(
      let* n = int_range 0 6 in
      let* k = int_range 1 3 in
      let* tuples = list_size (return n) (triple (int_range 0 2) (int_range 0 2) (int_range 0 2)) in
      return (k, List.map (fun (a, b, c) -> fact [ a; b; c ]) tuples))
    (fun (k, facts) ->
      let g = Solution_graph.of_query q6 (db_of q6 facts) in
      Cqa.Certk.run ~k g = Cqa.Certk_naive.run ~k g)

let test_naive_thm14_witness () =
  (* The naive implementation also sees the Theorem 14 separation. *)
  let g = Solution_graph.of_query q6 Workload.Designs.two_orientations in
  Alcotest.(check bool) "naive Cert_1 fails" false (Cqa.Certk_naive.run ~k:1 g);
  Alcotest.(check bool) "naive Cert_2 succeeds" true (Cqa.Certk_naive.run ~k:2 g)

(* ------------------------------------------------------------------ *)
(* Monte-Carlo *)

let test_montecarlo_consistent_db () =
  let rng = Random.State.make [| 8 |] in
  let db = db_of q3 [ fact [ 1; 2 ]; fact [ 2; 3 ] ] in
  let e = Cqa.Montecarlo.estimate rng ~trials:50 q3 db in
  Alcotest.(check (float 0.0)) "all repairs satisfy" 1.0 e.Cqa.Montecarlo.frequency;
  Alcotest.(check bool) "no counterexample" true (e.Cqa.Montecarlo.counterexample = None)

let prop_montecarlo_agrees_with_exact_certainty =
  QCheck2.Test.make ~name:"sampled frequency 1.0 consistent with CERTAIN" ~count:80
    QCheck2.Gen.(
      let* n = int_range 0 8 in
      let* ks = list_size (return n) (int_range 0 3) in
      let* vs = list_size (return n) (int_range 0 3) in
      return (List.map2 (fun k v -> fact [ k; v ]) ks vs))
    (fun facts ->
      let db = db_of q3 facts in
      let rng = Random.State.make [| 123 |] in
      let e = Cqa.Montecarlo.estimate rng ~trials:64 q3 db in
      (* A counterexample genuinely disproves certainty; certainty forces
         frequency 1. *)
      (match e.Cqa.Montecarlo.counterexample with
      | Some _ -> not (Cqa.Exact.certain_query q3 db)
      | None -> true)
      && ((not (Cqa.Exact.certain_query q3 db))
         || e.Cqa.Montecarlo.frequency = 1.0))

(* ------------------------------------------------------------------ *)
(* Cert_k certificates *)

let test_certificate_exists_iff_yes () =
  let db_yes = db_of q3 [ fact [ 1; 2 ]; fact [ 2; 3 ] ] in
  let g_yes = Solution_graph.of_query q3 db_yes in
  Alcotest.(check bool) "certificate on yes" true
    (Option.is_some (Cqa.Certk.certificate ~k:2 g_yes));
  let db_no = db_of q3 [ fact [ 1; 2 ]; fact [ 1; 9 ]; fact [ 2; 3 ] ] in
  let g_no = Solution_graph.of_query q3 db_no in
  Alcotest.(check bool) "no certificate on no" true
    (Cqa.Certk.certificate ~k:2 g_no = None)

let rec certificate_well_founded (c : Cqa.Certk.certificate) =
  (match c.Cqa.Certk.why with
  | Cqa.Certk.Initial _ -> c.Cqa.Certk.premises = []
  | Cqa.Certk.Via_block (_, choices) ->
      List.length choices = List.length c.Cqa.Certk.premises)
  && List.for_all certificate_well_founded c.Cqa.Certk.premises

let prop_certificates_well_formed =
  QCheck2.Test.make ~name:"certificates are well-founded and end at solutions"
    ~count:100
    QCheck2.Gen.(
      let* n = int_range 0 9 in
      let* ks = list_size (return n) (int_range 0 3) in
      let* vs = list_size (return n) (int_range 0 3) in
      return (List.map2 (fun k v -> fact [ k; v ]) ks vs))
    (fun facts ->
      let g = Solution_graph.of_query q3 (db_of q3 facts) in
      match Cqa.Certk.certificate ~k:2 g with
      | None -> not (Cqa.Certk.run ~k:2 g)
      | Some c -> c.Cqa.Certk.set = [] && certificate_well_founded c)

let test_certificate_printable () =
  let g = Solution_graph.of_query q3 (db_of q3 [ fact [ 1; 2 ]; fact [ 2; 3 ] ]) in
  match Cqa.Certk.certificate ~k:2 g with
  | None -> Alcotest.fail "expected a certificate"
  | Some c ->
      let s = Format.asprintf "%a" (Cqa.Certk.pp_certificate g) c in
      Alcotest.(check bool) "non-empty rendering" true (String.length s > 10)

(* A q3 database whose Cert_2 derivation of the empty set reuses premises
   so often that its unfolded tree has 884,524 nodes over 1,595 distinct
   sets; printed once per use, it ran to 118 MB. *)
let test_certificate_shared_premises () =
  let db =
    Workload.Randdb.random_for_query (Random.State.make [| 42 |]) q3 ~n_facts:600 ~domain:25
  in
  let g = Solution_graph.of_query q3 db in
  match Cqa.Certk.certificate ~k:2 g with
  | None -> Alcotest.fail "expected a certificate"
  | Some c ->
      let s = Format.asprintf "%a" (Cqa.Certk.pp_certificate g) c in
      Alcotest.(check bool) "each derivation printed once: under 1 MB" true
        (String.length s < 1_000_000)

(* ------------------------------------------------------------------ *)
(* DOT export *)

let contains_substring haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_dot_contains_nodes_and_edges () =
  let db = db_of q3 [ fact [ 1; 2 ]; fact [ 2; 3 ]; fact [ 7; 7 ] ] in
  let g = Solution_graph.of_query q3 db in
  let dot = Qlang.Dot.solution_graph g in
  Alcotest.(check bool) "undirected header" true (String.sub dot 0 5 = "graph");
  Alcotest.(check bool) "has an edge" true (contains_substring dot " -- ");
  Alcotest.(check bool) "self-loop marked red" true (contains_substring dot "color=red");
  Alcotest.(check bool) "block clusters" true (contains_substring dot "cluster_block_0");
  let directed = Qlang.Dot.solution_graph ~directed:true g in
  Alcotest.(check bool) "directed header" true (String.sub directed 0 7 = "digraph");
  Alcotest.(check bool) "has an arrow" true (contains_substring directed " -> ")

let test_dot_highlight () =
  let db = db_of q3 [ fact [ 1; 2 ]; fact [ 1; 9 ]; fact [ 2; 3 ] ] in
  let g = Solution_graph.of_query q3 db in
  match Cqa.Exact.falsifying_repair g with
  | None -> Alcotest.fail "falsifying repair expected"
  | Some repair ->
      let dot = Qlang.Dot.highlight_repair g repair in
      Alcotest.(check bool) "has filled nodes" true (contains_substring dot "fillcolor")

(* ------------------------------------------------------------------ *)
(* Atlas *)

let test_atlas_enumeration_counts () =
  (* [1,1]: sequences of length 2 up to renaming: 00, 01 -> both AB=BA
     symmetric; 2 queries. *)
  Alcotest.(check int) "[1,1] count" 2 (List.length (Core.Atlas.enumerate ~arity:1 ~key_len:1));
  (* [2,1]: Bell(4) = 15 growth strings, 11 after AB/BA dedup. *)
  Alcotest.(check int) "[2,1] count" 11 (List.length (Core.Atlas.enumerate ~arity:2 ~key_len:1))

let test_atlas_queries_canonical_and_distinct () =
  let qs = Core.Atlas.enumerate ~arity:2 ~key_len:1 in
  let strings = List.map Query.to_string qs in
  Alcotest.(check int) "distinct" (List.length qs)
    (List.length (List.sort_uniq String.compare strings))

let test_atlas_21_summary () =
  let entries = Core.Atlas.classify_all (Core.Atlas.enumerate ~arity:2 ~key_len:1) in
  let s = Core.Atlas.summarize entries in
  Alcotest.(check int) "total" 11 s.Core.Atlas.total;
  Alcotest.(check int) "trivial" 9 s.Core.Atlas.trivial;
  Alcotest.(check int) "cert2" 1 s.Core.Atlas.cert2;
  Alcotest.(check int) "no-tripath" 1 s.Core.Atlas.no_tripath;
  Alcotest.(check int) "no hard queries with unary key and arity 2" 0
    (s.Core.Atlas.fork + s.Core.Atlas.sjf_hard)

let test_atlas_full_key_all_trivial_or_easy () =
  (* key = whole tuple: every database is consistent; no blocks of size 2
     exist, so no tripaths; everything is trivial or Theorem 4. *)
  let entries = Core.Atlas.classify_all (Core.Atlas.enumerate ~arity:2 ~key_len:2) in
  List.iter
    (fun (e : Core.Atlas.entry) ->
      match e.Core.Atlas.report.Core.Dichotomy.verdict with
      | Core.Dichotomy.Conp_complete _ ->
          Alcotest.failf "full-key query classified hard: %s"
            (Query.to_string e.Core.Atlas.query)
      | Core.Dichotomy.Ptime _ -> ())
    entries

(* ------------------------------------------------------------------ *)
(* Database-level tripath containment (Prop. 10 / 19 machinery) *)

let test_tripath_db_finds_in_witness_database () =
  (* The database of a verified tripath certainly contains one. *)
  let db = Core.Tripath.database Catalog.q2_nice_fork_tripath in
  match Core.Tripath_db.find Catalog.q2 db with
  | Some (tp, Core.Tripath.Fork), _ -> (
      (* The witness is verified and its facts all come from db. *)
      match Core.Tripath.check tp with
      | Ok Core.Tripath.Fork ->
          List.iter
            (fun f -> Alcotest.(check bool) "fact from db" true (Database.mem db f))
            (Database.facts (Core.Tripath.database tp))
      | Ok Core.Tripath.Triangle | Error _ -> Alcotest.fail "bad witness")
  | Some (_, Core.Tripath.Triangle), _ -> Alcotest.fail "expected a fork"
  | None, _ -> Alcotest.fail "tripath database must contain a tripath"

let test_tripath_db_none_for_q5 () =
  (* q5 admits no tripath at all (Theorem 9 side), so no database contains
     one. *)
  let rng = Random.State.make [| 55 |] in
  for _ = 1 to 20 do
    let db = Workload.Randdb.random_for_query rng Catalog.q5 ~n_facts:14 ~domain:3 in
    match Core.Tripath_db.find Catalog.q5 db with
    | Some _, _ -> Alcotest.fail "q5 database cannot contain a tripath"
    | None, `Complete -> ()
    | None, `Exhausted -> Alcotest.fail "budget should suffice at this size"
  done

let test_tripath_db_gadget_contains_fork () =
  let g =
    match Core.Gadget.of_tripath Catalog.q2_nice_fork_tripath with
    | Ok g -> g
    | Error m -> failwith m
  in
  let phi = Satsolver.Cnf.make ~n_vars:3 [ [ -1; 2; 3 ]; [ -1; -2; 3 ]; [ 1; -2; -3 ] ] in
  let db = Core.Gadget.database g phi in
  match Core.Tripath_db.find ~want:Core.Tripath.Fork Catalog.q2 db with
  | Some (_, Core.Tripath.Fork), _ -> ()
  | _, _ -> Alcotest.fail "the Theorem 12 gadget is built out of fork-tripaths"

let test_tripath_db_fano_triangle () =
  match Core.Tripath_db.find Catalog.q6 (Workload.Designs.fano_minus 0) with
  | Some (_, Core.Tripath.Triangle), _ -> ()
  | Some (_, Core.Tripath.Fork), _ ->
      Alcotest.fail "q6 admits no fork-tripath (Theorem 14 family)"
  | None, _ -> Alcotest.fail "rotation systems with 2-fact blocks contain triangle-tripaths"

let test_tripath_db_budget () =
  let opts = { Core.Tripath_db.max_blocks = 12; max_candidates = 5 } in
  let db = Core.Tripath.database Catalog.q2_nice_fork_tripath in
  match Core.Tripath_db.find ~opts Catalog.q2 db with
  | Some _, _ -> () (* found within 5 steps: fine *)
  | None, `Exhausted -> ()
  | None, `Complete -> Alcotest.fail "tiny budget must be reported as exhausted"

(* [max_candidates = N] runs exactly N search nodes, as the symbolic
   search's cap does: q2's nice fork is found in its own database at node
   11, so a cap of 11 finds it and a cap of 10 runs out. *)
let test_tripath_db_node_cap () =
  let db = Core.Tripath.database Catalog.q2_nice_fork_tripath in
  let find n =
    Core.Tripath_db.find
      ~opts:{ Core.Tripath_db.max_blocks = 12; max_candidates = n }
      Catalog.q2 db
  in
  (match find 11 with
  | Some (_, Core.Tripath.Fork), `Complete -> ()
  | _ -> Alcotest.fail "11 nodes find the fork");
  match find 10 with
  | None, `Exhausted -> ()
  | _ -> Alcotest.fail "10 nodes run out"

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "extensions"
    [
      ( "partition",
        [
          Alcotest.test_case "splits components" `Quick test_partition_splits_components;
          Alcotest.test_case "keeps blocks whole" `Quick test_partition_keeps_blocks_whole;
        ]
        @ qt [ prop_partition_certain_iff_some_component; prop_partition_certk_distributes ] );
      ( "certk-naive",
        [ Alcotest.test_case "thm14 witness" `Quick test_naive_thm14_witness ]
        @ qt [ prop_certk_matches_naive_q3; prop_certk_matches_naive_q6 ] );
      ( "montecarlo",
        [
          Alcotest.test_case "consistent db" `Quick test_montecarlo_consistent_db;
        ]
        @ qt [ prop_montecarlo_agrees_with_exact_certainty ] );
      ( "certificates",
        [
          Alcotest.test_case "exists iff yes" `Quick test_certificate_exists_iff_yes;
          Alcotest.test_case "printable" `Quick test_certificate_printable;
          Alcotest.test_case "shared premises printed once" `Quick
            test_certificate_shared_premises;
        ]
        @ qt [ prop_certificates_well_formed ] );
      ( "dot",
        [
          Alcotest.test_case "nodes and edges" `Quick test_dot_contains_nodes_and_edges;
          Alcotest.test_case "highlight" `Quick test_dot_highlight;
        ] );
      ( "atlas",
        [
          Alcotest.test_case "enumeration counts" `Quick test_atlas_enumeration_counts;
          Alcotest.test_case "canonical distinct" `Quick test_atlas_queries_canonical_and_distinct;
          Alcotest.test_case "[2,1] summary" `Quick test_atlas_21_summary;
          Alcotest.test_case "full key easy" `Quick test_atlas_full_key_all_trivial_or_easy;
        ] );
      ( "tripath-db",
        [
          Alcotest.test_case "witness database" `Quick test_tripath_db_finds_in_witness_database;
          Alcotest.test_case "q5 none" `Quick test_tripath_db_none_for_q5;
          Alcotest.test_case "gadget fork" `Quick test_tripath_db_gadget_contains_fork;
          Alcotest.test_case "fano triangle" `Quick test_tripath_db_fano_triangle;
          Alcotest.test_case "budget reporting" `Quick test_tripath_db_budget;
          Alcotest.test_case "node cap" `Quick test_tripath_db_node_cap;
        ] );
    ]
