(* Tests for the core library: syntactic classification, tripath
   verification and search, the dichotomy classifier and the solver
   front-end. *)

module Parse = Qlang.Parse
module Query = Qlang.Query
module Fact = Relational.Fact
module Value = Relational.Value
module Database = Relational.Database
module Syntactic = Core.Syntactic
module Tripath = Core.Tripath
module Search = Core.Tripath_search
module Dichotomy = Core.Dichotomy
module Solver = Core.Solver

let q1 = Workload.Catalog.q1
let q2 = Workload.Catalog.q2
let q3 = Workload.Catalog.q3
let q4 = Workload.Catalog.q4
let q5 = Workload.Catalog.q5
let q6 = Workload.Catalog.q6
let q7 = Workload.Catalog.q7
let vi = Value.int
let fact vs = Fact.make "R" (List.map vi vs)

(* ------------------------------------------------------------------ *)
(* Syntactic tests *)

let test_thm3_conditions () =
  Alcotest.(check bool) "q1 cond1" true (Syntactic.thm3_condition1 q1);
  Alcotest.(check bool) "q1 cond2" true (Syntactic.thm3_condition2 q1);
  Alcotest.(check bool) "q1 hard" true (Syntactic.thm3_conp_hard q1);
  Alcotest.(check bool) "q2 cond1" true (Syntactic.thm3_condition1 q2);
  Alcotest.(check bool) "q2 cond2 fails" false (Syntactic.thm3_condition2 q2);
  Alcotest.(check bool) "q2 not thm3-hard" false (Syntactic.thm3_conp_hard q2)

let test_thm4 () =
  Alcotest.(check bool) "q3" true (Syntactic.thm4_ptime q3);
  Alcotest.(check bool) "q4" true (Syntactic.thm4_ptime q4);
  Alcotest.(check bool) "q7 (as transcribed)" true (Syntactic.thm4_ptime q7);
  Alcotest.(check bool) "q2 not thm4" false (Syntactic.thm4_ptime q2)

let test_two_way_determined () =
  List.iter
    (fun (q, expected, name) ->
      Alcotest.(check bool) name expected (Syntactic.two_way_determined q))
    [
      (q1, false, "q1");
      (q2, true, "q2");
      (q3, false, "q3");
      (q5, true, "q5");
      (q6, true, "q6");
    ]

let test_zigzag_semantic () =
  (* Lemma 5: q3 satisfies the zig-zag property on every database. *)
  let rng = Random.State.make [| 5 |] in
  for _ = 1 to 30 do
    let db = Workload.Randdb.random_for_query rng q3 ~n_facts:12 ~domain:3 in
    Alcotest.(check bool) "zig-zag for q3" true (Syntactic.zigzag_holds q3 db)
  done

let test_lemma7_semantic () =
  (* Lemma 7 holds for 2way-determined queries on every database. *)
  let rng = Random.State.make [| 6 |] in
  for _ = 1 to 30 do
    let db = Workload.Randdb.random_for_query rng q6 ~n_facts:12 ~domain:3 in
    Alcotest.(check bool) "lemma 7 for q6" true (Syntactic.lemma7_holds q6 db);
    let db5 = Workload.Randdb.random_for_query rng q5 ~n_facts:12 ~domain:3 in
    Alcotest.(check bool) "lemma 7 for q5" true (Syntactic.lemma7_holds q5 db5)
  done

let test_lemma6_semantic () =
  (* Lemma 6: for zig-zag queries (q3 qualifies by Lemma 5), in every
     database, every repair r with a solution q(ab) has {a} ∈ Δ_2(q, D) or
     admits another repair with strictly fewer solutions. *)
  let rng = Random.State.make [| 66 |] in
  let sols repair =
    List.concat_map
      (fun a ->
        List.filter_map
          (fun b ->
            if Qlang.Solutions.query_solution_pair q3 a b then Some (a, b) else None)
          repair)
      repair
  in
  let subset_strict s1 s2 =
    List.for_all (fun x -> List.mem x s2) s1 && List.length s1 < List.length s2
  in
  for _ = 1 to 25 do
    let db = Workload.Randdb.random_for_query rng q3 ~n_facts:8 ~domain:3 in
    let g = Qlang.Solution_graph.of_query q3 db in
    let minimal = Cqa.Certk.derived ~k:2 g in
    let singleton_in_delta a =
      let ia = Qlang.Solution_graph.index g a in
      List.exists (function [] -> true | [ v ] -> v = ia | _ -> false) minimal
    in
    let repairs = List.of_seq (Relational.Repair.enumerate db) in
    List.iter
      (fun r ->
        List.iter
          (fun (a, _) ->
            let ok =
              singleton_in_delta a
              || List.exists (fun s -> subset_strict (sols s) (sols r)) repairs
            in
            Alcotest.(check bool) "Lemma 6" true ok)
          (sols r))
      repairs
  done

(* ------------------------------------------------------------------ *)
(* Tripath verification *)

let test_hardcoded_tripath_is_nice_fork () =
  match Tripath.niceness Workload.Catalog.q2_nice_fork_tripath with
  | Ok (Tripath.Fork, _) -> ()
  | Ok (Tripath.Triangle, _) -> Alcotest.fail "expected a fork"
  | Error errs -> Alcotest.fail (String.concat "; " errs)

let test_tripath_check_rejects_broken () =
  (* Corrupt the hardcoded tripath: replace the root with a fact that does
     not form a solution with its child. *)
  let tp = Workload.Catalog.q2_nice_fork_tripath in
  let broken = { tp with Tripath.root = fact [ 100; 101; 102; 103 ] } in
  match Tripath.check broken with
  | Ok _ -> Alcotest.fail "corrupted tripath accepted"
  | Error _ -> ()

let test_tripath_check_rejects_shared_block_keys () =
  let tp = Workload.Catalog.q2_nice_fork_tripath in
  (* Make the root key-equal to the leaf2 block. *)
  let broken = { tp with Tripath.root = tp.Tripath.leaf2 } in
  match Tripath.check broken with
  | Ok _ -> Alcotest.fail "duplicate block keys accepted"
  | Error _ -> ()

let test_tripath_database_blocks () =
  let tp = Workload.Catalog.q2_nice_fork_tripath in
  let db = Tripath.database tp in
  Alcotest.(check int) "block count" (Tripath.n_blocks tp) (List.length (Database.blocks db));
  (* Root and leaves are singleton blocks; all others have two facts. *)
  let sizes = List.map Relational.Block.size (Database.blocks db) |> List.sort Int.compare in
  Alcotest.(check (list int)) "block sizes" [ 1; 1; 1; 2; 2; 2; 2; 2; 2; 2; 2 ] sizes

let test_g_set_cases () =
  (* For the q2 center d = R(a a | a b), e = R(a b | a a), f = R(b a | a c):
     key(d) = {a} ⊆ key(e) = {a,b}, key(f) = {a,b} ⊆ key(e), and
     key(d) ⊆ key(f), so g(e) = key(d) = {a}. *)
  let a = vi 0 and b = vi 1 and c = vi 2 in
  let d = Fact.make "R" [ a; a; a; b ] in
  let e = Fact.make "R" [ a; b; a; a ] in
  let f = Fact.make "R" [ b; a; a; c ] in
  let g = Tripath.g_set q2 ~d ~e ~f in
  Alcotest.(check bool) "g = {a}" true (Value.Set.equal g (Value.Set.singleton a))

let test_g_set_incomparable () =
  (* key(d) and key(f) both inside key(e) but incomparable: g(e) = key(e). *)
  let q = Parse.query_exn "R(x y | z) R(y z | w)" in
  (* synthetic: key(e) = {1,2}; key(d) = {1}; key(f) = {2} *)
  let e = Fact.make "R" [ vi 1; vi 2; vi 9 ] in
  let d = Fact.make "R" [ vi 1; vi 1; vi 9 ] and f = Fact.make "R" [ vi 2; vi 2; vi 8 ] in
  let g = Tripath.g_set q ~d ~e ~f in
  Alcotest.(check bool) "g = key(e)" true
    (Value.Set.equal g (Value.Set.of_list [ vi 1; vi 2 ]))

(* ------------------------------------------------------------------ *)
(* Tripath search *)

let test_search_q2_fork () =
  match Search.find_fork q2 with
  | Search.Found (tp, Tripath.Fork) -> (
      match Tripath.check tp with
      | Ok Tripath.Fork -> ()
      | Ok Tripath.Triangle -> Alcotest.fail "kind mismatch"
      | Error errs -> Alcotest.fail (String.concat "; " errs))
  | Search.Found (_, Tripath.Triangle) -> Alcotest.fail "wanted a fork"
  | Search.Not_found -> Alcotest.fail "q2 admits a fork-tripath"

let test_search_q5_none () =
  (match Search.find_any q5 with
  | Search.Not_found -> ()
  | Search.Found _ -> Alcotest.fail "q5 admits no tripath")

let test_search_q6_triangle_only () =
  (match Search.find_triangle q6 with
  | Search.Found (_, Tripath.Triangle) -> ()
  | Search.Found (_, Tripath.Fork) -> Alcotest.fail "kind mismatch"
  | Search.Not_found -> Alcotest.fail "q6 admits a triangle-tripath");
  match Search.find_fork q6 with
  | Search.Not_found -> ()
  | Search.Found _ -> Alcotest.fail "q6 admits no fork-tripath"

let test_search_results_verified () =
  (* Whatever the search returns passes the independent verifier. *)
  List.iter
    (fun q ->
      match Search.find_any q with
      | Search.Not_found -> ()
      | Search.Found (tp, kind) -> (
          match Tripath.check tp with
          | Ok kind' -> Alcotest.(check bool) "kind consistent" true (kind = kind')
          | Error errs -> Alcotest.fail (String.concat "; " errs)))
    [ q2; q5; q6; Workload.Catalog.(find "fork-2").Workload.Catalog.query ]

(* The outcome of a search, or the way its budget ran out. *)
let search_result f =
  match f () with
  | Search.Found (_, kind) -> Format.asprintf "found a %a" Tripath.pp_kind kind
  | Search.Not_found -> "not found"
  | exception Harness.Budget.Budget_exceeded reason ->
      Format.asprintf "ran out: %a" Harness.Budget.pp_exhaustion reason

let test_search_budget_respected () =
  (* A tiny budget must terminate quickly, never diverge. q5's search ends
     within 10 nodes, so its Not_found is an answer. *)
  let opts = { Search.default_options with Search.max_candidates = 10 } in
  Alcotest.(check string) "q5 within 10 nodes" "not found"
    (search_result (fun () -> Search.find_any ~opts q5));
  (* q2's fork is found at its seventh search node: a budget of N nodes
     runs exactly N, so 7 reach it and 6 or 5 run out just before it. *)
  List.iter
    (fun (n, expected) ->
      let opts = { Search.default_options with Search.max_candidates = n } in
      Alcotest.(check string)
        (Printf.sprintf "budget %d on q2's fork" n)
        expected
        (search_result (fun () -> Search.find_fork ~opts q2)))
    [ (5, "ran out: step budget"); (6, "ran out: step budget"); (7, "found a fork") ]

(* The center cut: a fork search skips every center variant whose q(f d)
   already holds. On these triangle-only queries that is every variant, so
   the fork search ends before its first node, and a one-node budget
   neither runs out nor ticks. Before the cut they ran 13,965 (q6,
   triangle-2), 55,860 (triangle-41) and 153,025 nodes, and the other five
   [4,x] queries ran out of 200,000. *)
let test_search_center_cut () =
  let opts = { Search.default_options with Search.max_candidates = 1 } in
  List.iter
    (fun (name, q) ->
      let budget = Search.budget opts in
      Alcotest.(check string) (name ^ ": no fork") "not found"
        (search_result (fun () -> Search.find_fork ~opts ~budget q));
      Alcotest.(check int) (name ^ ": no fork node") 0 (Harness.Budget.steps budget))
    ([ ("q6", q6) ]
    @ List.map
        (fun name -> (name, (Workload.Catalog.find name).Workload.Catalog.query))
        [ "triangle-2"; "triangle-41" ]
    @ List.map
        (fun s -> (s, Parse.query_exn s))
        [
          "R(v0 | v1 v2 v3) R(v2 | v4 v3 v0)";
          "R(v0 | v1 v2 v3) R(v1 | v3 v4 v0)";
          "R(v0 v1 | v2 v3) R(v1 v2 | v0 v4)";
          "R(v0 v1 | v2 v3) R(v1 v3 | v2 v0)";
          "R(v0 | v1 v2 v3) R(v1 | v2 v0 v4)";
          "R(v0 v1 | v2 v3) R(v1 v3 | v4 v0)";
        ])

(* Exhaustion is not absence. fork-41's triangle search at the default
   bounds visits the merge variants first and runs out before it reaches
   the triangle-enforced ones; at [max_merges = 0] it reaches them and
   finds a triangle at node 13,969. So the search must raise, not answer
   "no triangle-tripath". *)
let test_search_exhaustion_not_absence () =
  let fork41 = (Workload.Catalog.find "fork-41").Workload.Catalog.query in
  let opts = { Search.default_options with Search.max_candidates = 20_000 } in
  Alcotest.(check string) "default bounds run out" "ran out: step budget"
    (search_result (fun () -> Search.find_triangle ~opts fork41));
  Alcotest.(check string) "no merges find it" "found a triangle"
    (search_result (fun () ->
         Search.find_triangle ~opts:{ opts with Search.max_merges = 0 } fork41))

let test_search_invalid_options () =
  List.iter
    (fun (name, opts) ->
      match Search.search ~opts q2 with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail (name ^ " accepted"))
    [
      ("max_spine -1", { Search.default_options with Search.max_spine = -1 });
      ("max_arm -1", { Search.default_options with Search.max_arm = -1 });
      ("max_merges -1", { Search.default_options with Search.max_merges = -1 });
      ("max_merges -2", { Search.default_options with Search.max_merges = -2 });
      ("max_candidates 0", { Search.default_options with Search.max_candidates = 0 });
    ];
  (* [find_nice] widens the depths before searching, so it checks first. *)
  let opts = { Search.default_options with Search.max_spine = -1 } in
  match Search.find_nice ~opts ~want:Tripath.Fork q2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "find_nice accepted max_spine -1"

(* ------------------------------------------------------------------ *)
(* Dichotomy *)

let test_classify_catalog () =
  List.iter
    (fun (e : Workload.Catalog.entry) ->
      let r = Dichotomy.classify e.Workload.Catalog.query in
      let matches =
        match (e.Workload.Catalog.expected, r.Dichotomy.verdict) with
        | Workload.Catalog.Exp_trivial, Dichotomy.Ptime (Dichotomy.Trivial _) -> true
        | Workload.Catalog.Exp_conp_sjf, Dichotomy.Conp_complete Dichotomy.Sjf_hard -> true
        | Workload.Catalog.Exp_ptime_cert2, Dichotomy.Ptime Dichotomy.Cert2 -> true
        | Workload.Catalog.Exp_ptime_no_tripath, Dichotomy.Ptime Dichotomy.Certk_no_tripath -> true
        | Workload.Catalog.Exp_conp_fork, Dichotomy.Conp_complete (Dichotomy.Fork_tripath _) -> true
        | Workload.Catalog.Exp_ptime_triangle, Dichotomy.Ptime (Dichotomy.Combined_triangle _) -> true
        | ( ( Workload.Catalog.Exp_trivial | Workload.Catalog.Exp_conp_sjf
            | Workload.Catalog.Exp_ptime_cert2 | Workload.Catalog.Exp_ptime_no_tripath
            | Workload.Catalog.Exp_conp_fork | Workload.Catalog.Exp_ptime_triangle ),
            _ ) ->
            false
      in
      if not matches then
        Alcotest.failf "%s: expected %s, got %s" e.Workload.Catalog.name
          (Format.asprintf "%a" Workload.Catalog.pp_expected e.Workload.Catalog.expected)
          (Dichotomy.verdict_summary r.Dichotomy.verdict))
    Workload.Catalog.all

let test_classify_witnesses_verified () =
  (* The classifier's tripath witnesses must pass the verifier. *)
  let r = Dichotomy.classify q2 in
  (match r.Dichotomy.verdict with
  | Dichotomy.Conp_complete (Dichotomy.Fork_tripath tp) -> (
      match Tripath.check tp with
      | Ok Tripath.Fork -> ()
      | Ok Tripath.Triangle | Error _ -> Alcotest.fail "bad fork witness")
  | _ -> Alcotest.fail "q2 should be fork-hard");
  let r6 = Dichotomy.classify q6 in
  match r6.Dichotomy.verdict with
  | Dichotomy.Ptime (Dichotomy.Combined_triangle tp) -> (
      match Tripath.check tp with
      | Ok Tripath.Triangle -> ()
      | Ok Tripath.Fork | Error _ -> Alcotest.fail "bad triangle witness")
  | _ -> Alcotest.fail "q6 should be triangle-only"

(* ------------------------------------------------------------------ *)
(* Solver front-end *)

let test_conjunction_atom () =
  let q = Parse.query_exn "R(x y | x z) R(x y | z y)" in
  match Solver.conjunction_atom q with
  | None -> Alcotest.fail "conjunction exists"
  | Some c ->
      (* One assignment must match both atoms: A = (x,y,x,z), B = (x,y,z,y).
         Position 2 carries x in A and z in B, position 3 carries z in A and
         y in B — so x, y, z are all forced equal through the positions and
         a matching fact must be constant. *)
      let ok_fact = Fact.make "R" [ vi 1; vi 1; vi 1; vi 1 ] in
      let bad_fact = Fact.make "R" [ vi 1; vi 2; vi 1; vi 2 ] in
      Alcotest.(check bool) "matches the constant fact" true
        (Option.is_some (Qlang.Unify.match_fact Qlang.Subst.empty c ok_fact));
      Alcotest.(check bool) "rejects the almost-matching fact" false
        (Option.is_some (Qlang.Unify.match_fact Qlang.Subst.empty c bad_fact));
      (* Semantic cross-check: ok_fact alone satisfies q, bad_fact does not. *)
      Alcotest.(check bool) "ok_fact satisfies q" true
        (Qlang.Solutions.query_satisfies q [ ok_fact ]);
      Alcotest.(check bool) "bad_fact does not satisfy q" false
        (Qlang.Solutions.query_satisfies q [ bad_fact ])

let test_conjunction_atom_conflict () =
  let q = Parse.query_exn "R(x | 1) R(x | 2)" in
  Alcotest.(check bool) "conflicting constants" true (Solver.conjunction_atom q = None)

let test_certain_one_atom () =
  let q = q3 in
  let atom = q.Query.a in
  let db = Database.of_facts [ q.Query.schema ] [ fact [ 1; 2 ]; fact [ 1; 3 ] ] in
  let plane = Relational.Compiled.compile db in
  Alcotest.(check bool) "block of matches" true (Solver.certain_one_atom atom plane);
  let atom_c = Qlang.Atom.make "R" [ Qlang.Term.var "x"; Qlang.Term.cst (vi 2) ] in
  Alcotest.(check bool) "constant restricts" false
    (Solver.certain_one_atom atom_c plane)

let algorithm = Alcotest.testable Solver.pp_algorithm ( = )

let test_solver_dispatch () =
  (* The solver picks the algorithm designated by the verdict — the SAT
     tier for the coNP-complete q2 — and answers consistently with the
     exact solver. *)
  let rng = Random.State.make [| 99 |] in
  List.iter
    (fun (q, designated) ->
      let report = Dichotomy.classify q in
      for _ = 1 to 10 do
        let db = Workload.Randdb.random_for_query rng q ~n_facts:10 ~domain:3 in
        let answer, alg = Solver.certain report db in
        Alcotest.(check bool)
          (Format.asprintf "solver agrees with exact on %a" Query.pp q)
          (Cqa.Exact.certain_query q db) answer;
        Alcotest.check algorithm
          (Format.asprintf "designated algorithm on %a" Query.pp q)
          designated alg
      done)
    [
      (q3, Solver.Alg_cert2);
      (q5, Solver.Alg_certk 3);
      (q6, Solver.Alg_combined 3);
      (q2, Solver.Alg_exact_sat);
    ]

let test_solver_trivial_queries () =
  let q = Parse.query_exn "R(x | y) R(u | v)" in
  let report = Dichotomy.classify q in
  let db = Database.of_facts [ q.Query.schema ] [ fact [ 1; 2 ] ] in
  let answer, alg = Solver.certain report db in
  Alcotest.(check bool) "trivial query certain on nonempty db" true answer;
  (match alg with
  | Solver.Alg_one_atom -> ()
  | _ -> Alcotest.fail "expected the one-atom algorithm");
  let empty = Database.of_facts [ q.Query.schema ] [] in
  Alcotest.(check bool) "not certain on empty db" false (fst (Solver.certain report empty))

(* The one-atom tier against the exact oracle, on the catalogue's two
   trivial queries: the per-block test must answer what the falsifying-repair
   search answers, and must be the algorithm that answered. *)
let prop_one_atom_tier_exact =
  let trivial =
    Array.of_list
      (List.map
         (fun name ->
           let q = (Workload.Catalog.find name).Workload.Catalog.query in
           (q, Dichotomy.classify q))
         [ "triv-hom"; "triv-key" ])
  in
  QCheck2.Test.make ~name:"one-atom tier = exact oracle" ~count:80
    QCheck2.Gen.(
      pair (int_range 0 99999) (int_range 0 (Array.length trivial - 1)))
    (fun (seed, i) ->
      let q, report = trivial.(i) in
      let db =
        Workload.Randdb.random_for_query (Random.State.make [| seed |]) q
          ~n_facts:40 ~domain:4
      in
      Solver.certain report db
      = (Cqa.Exact.certain_query q db, Solver.Alg_one_atom))

(* The conjunction atom's law: a fact matches [conjunction_atom q] iff it
   alone satisfies [q], for every fact over a three-value domain. Queries
   are random; up to two of their variables are grounded to values of the
   same domain, so constants and constant conflicts (no atom at all) are
   drawn too. *)
let prop_conjunction_atom_law =
  QCheck2.Test.make ~name:"conjunction atom = one-fact solutions" ~count:300
    QCheck2.Gen.(int_range 0 99999)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let arity = 1 + Random.State.int rng 4 in
      let key_len = Random.State.int rng (arity + 1) in
      let q =
        Workload.Randquery.random rng ~arity ~key_len
          ~n_vars:(1 + Random.State.int rng arity)
      in
      let q =
        let vars = Qlang.Term.Var_set.elements (Query.vars q) in
        let n = Random.State.int rng 3 in
        match List.filteri (fun i _ -> i < n) vars with
        | [] -> q
        | free ->
            Core.Answers.ground ~free q
              (List.map (fun _ -> vi (Random.State.int rng 3)) free)
      in
      let rec facts n =
        if n = 0 then [ [] ]
        else
          List.concat_map
            (fun rest -> List.init 3 (fun v -> vi v :: rest))
            (facts (n - 1))
      in
      let atom = Solver.conjunction_atom q in
      List.for_all
        (fun args ->
          let f = Fact.make q.Query.a.Qlang.Atom.rel args in
          let matches =
            match atom with
            | None -> false
            | Some c ->
                Option.is_some (Qlang.Unify.match_fact Qlang.Subst.empty c f)
          in
          matches = Qlang.Solutions.query_satisfies q [ f ])
        (facts arity))

let () =
  Alcotest.run "core"
    [
      ( "syntactic",
        [
          Alcotest.test_case "thm3 conditions" `Quick test_thm3_conditions;
          Alcotest.test_case "thm4" `Quick test_thm4;
          Alcotest.test_case "2way-determined" `Quick test_two_way_determined;
          Alcotest.test_case "zig-zag semantic" `Quick test_zigzag_semantic;
          Alcotest.test_case "lemma 6 semantic" `Quick test_lemma6_semantic;
          Alcotest.test_case "lemma 7 semantic" `Quick test_lemma7_semantic;
        ] );
      ( "tripath",
        [
          Alcotest.test_case "hardcoded nice fork" `Quick test_hardcoded_tripath_is_nice_fork;
          Alcotest.test_case "rejects broken" `Quick test_tripath_check_rejects_broken;
          Alcotest.test_case "rejects shared keys" `Quick test_tripath_check_rejects_shared_block_keys;
          Alcotest.test_case "database blocks" `Quick test_tripath_database_blocks;
          Alcotest.test_case "g(e) subset case" `Quick test_g_set_cases;
          Alcotest.test_case "g(e) incomparable case" `Quick test_g_set_incomparable;
        ] );
      ( "search",
        [
          Alcotest.test_case "q2 fork" `Quick test_search_q2_fork;
          Alcotest.test_case "q5 none" `Quick test_search_q5_none;
          Alcotest.test_case "q6 triangle only" `Quick test_search_q6_triangle_only;
          Alcotest.test_case "results verified" `Quick test_search_results_verified;
          Alcotest.test_case "budget respected" `Quick test_search_budget_respected;
          Alcotest.test_case "center cut" `Quick test_search_center_cut;
          Alcotest.test_case "exhaustion is not absence" `Quick
            test_search_exhaustion_not_absence;
          Alcotest.test_case "invalid options" `Quick test_search_invalid_options;
        ] );
      ( "dichotomy",
        [
          Alcotest.test_case "catalog" `Quick test_classify_catalog;
          Alcotest.test_case "witnesses verified" `Quick test_classify_witnesses_verified;
        ] );
      ( "solver",
        [
          Alcotest.test_case "conjunction atom" `Quick test_conjunction_atom;
          Alcotest.test_case "conjunction conflict" `Quick test_conjunction_atom_conflict;
          QCheck_alcotest.to_alcotest prop_conjunction_atom_law;
          Alcotest.test_case "one-atom certain" `Quick test_certain_one_atom;
          Alcotest.test_case "dispatch" `Slow test_solver_dispatch;
          Alcotest.test_case "trivial queries" `Quick test_solver_trivial_queries;
          QCheck_alcotest.to_alcotest prop_one_atom_tier_exact;
        ] );
    ]
