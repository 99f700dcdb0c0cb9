(* Tests for the query language layer: terms, atoms, unification, queries,
   solutions, solution graphs, the sjf translation and the parser. *)

module Value = Relational.Value
module Schema = Relational.Schema
module Fact = Relational.Fact
module Database = Relational.Database
module Term = Qlang.Term
module Atom = Qlang.Atom
module Subst = Qlang.Subst
module Unify = Qlang.Unify
module Query = Qlang.Query
module Solutions = Qlang.Solutions
module Solution_graph = Qlang.Solution_graph
module Parse = Qlang.Parse

let vi = Value.int
let v = Term.var
let c n = Term.cst (vi n)
let schema2 = Schema.make ~name:"R" ~arity:2 ~key_len:1
let fact vs = Fact.make "R" (List.map vi vs)

(* ------------------------------------------------------------------ *)
(* Atom *)

let test_atom_vars () =
  let a = Atom.make "R" [ v "x"; v "y"; v "x"; c 3 ] in
  Alcotest.(check int) "two variables" 2 (Term.Var_set.cardinal (Atom.vars a));
  Alcotest.(check bool) "ground" false (Atom.is_ground a);
  Alcotest.(check bool) "ground atom" true (Atom.is_ground (Atom.make "R" [ c 1 ]))

let test_atom_key_vars () =
  let s = Schema.make ~name:"R" ~arity:4 ~key_len:2 in
  let a = Atom.make "R" [ v "x"; v "u"; v "x"; v "y" ] in
  Alcotest.(check bool) "key vars" true
    (Term.Var_set.equal (Atom.key_vars s a) (Term.Var_set.of_list [ "x"; "u" ]));
  Alcotest.(check bool) "nonkey vars" true
    (Term.Var_set.equal (Atom.nonkey_vars s a) (Term.Var_set.of_list [ "x"; "y" ]))

let test_atom_fact_roundtrip () =
  let f = fact [ 4; 7 ] in
  Alcotest.(check bool) "roundtrip" true (Fact.equal f (Atom.to_fact (Atom.of_fact f)))

let test_atom_homomorphism () =
  let a = Atom.make "R" [ v "x"; v "x"; v "y" ] in
  let b = Atom.make "R" [ v "u"; v "u"; c 3 ] in
  Alcotest.(check bool) "hom exists" true (Option.is_some (Atom.homomorphism ~from:a ~into:b));
  Alcotest.(check bool) "no hom back" true (Option.is_none (Atom.homomorphism ~from:b ~into:a));
  let diag = Atom.make "R" [ v "u"; v "w"; v "z" ] in
  Alcotest.(check bool) "hom from linear atom" true
    (Option.is_some (Atom.homomorphism ~from:diag ~into:a))

(* ------------------------------------------------------------------ *)
(* Subst / Unify *)

let test_subst_idempotent () =
  let s = Subst.empty in
  let s = Option.get (Subst.extend "x" (v "y") s) in
  let s = Option.get (Subst.extend "y" (c 5) s) in
  (* x was bound to y; binding y must rewrite x's image. *)
  Alcotest.(check bool) "x resolves to 5" true (Term.equal (Subst.apply_term s (v "x")) (c 5));
  Alcotest.(check bool) "rebinding consistent" true
    (Option.is_some (Subst.extend "x" (c 5) s));
  Alcotest.(check bool) "rebinding conflicting" true
    (Option.is_none (Subst.extend "x" (c 6) s))

let test_unify_terms () =
  Alcotest.(check bool) "var-var" true (Option.is_some (Unify.terms Subst.empty (v "x") (v "y")));
  Alcotest.(check bool) "var-cst" true (Option.is_some (Unify.terms Subst.empty (v "x") (c 1)));
  Alcotest.(check bool) "cst clash" true (Option.is_none (Unify.terms Subst.empty (c 1) (c 2)));
  Alcotest.(check bool) "cst same" true (Option.is_some (Unify.terms Subst.empty (c 1) (c 1)))

let test_unify_atoms () =
  let a = Atom.make "R" [ v "x"; v "x" ] in
  let b = Atom.make "R" [ c 1; v "z" ] in
  (match Unify.atoms Subst.empty a b with
  | None -> Alcotest.fail "should unify"
  | Some s ->
      Alcotest.(check bool) "z bound to 1" true
        (Term.equal (Subst.apply_term s (v "z")) (c 1)));
  let b' = Atom.make "R" [ c 1; c 2 ] in
  Alcotest.(check bool) "repeated var clash" true
    (Option.is_none (Unify.atoms Subst.empty a b'))

let test_unify_different_relations () =
  let a = Atom.make "R" [ v "x" ] and b = Atom.make "S" [ v "x" ] in
  Alcotest.(check bool) "different relations" true (Option.is_none (Unify.atoms Subst.empty a b))

let prop_unify_is_unifier =
  let gen =
    QCheck2.Gen.(
      let term = oneof [ map (fun i -> v (Printf.sprintf "x%d" i)) (int_range 0 3); map c (int_range 0 2) ] in
      pair (list_size (return 3) term) (list_size (return 3) term))
  in
  QCheck2.Test.make ~name:"unification result equalises the atoms" ~count:500 gen
    (fun (ts1, ts2) ->
      let a = Atom.make "R" ts1 and b = Atom.make "R" ts2 in
      match Unify.atoms Subst.empty a b with
      | None -> true
      | Some s -> Atom.equal (Subst.apply_atom s a) (Subst.apply_atom s b))

let prop_match_fact_grounds =
  let gen =
    QCheck2.Gen.(
      let term = oneof [ map (fun i -> v (Printf.sprintf "x%d" i)) (int_range 0 2); map c (int_range 0 2) ] in
      pair (list_size (return 3) term) (list_size (return 3) (int_range 0 2)))
  in
  QCheck2.Test.make ~name:"match_fact instantiates the atom to the fact" ~count:500 gen
    (fun (ts, vs) ->
      let a = Atom.make "R" ts in
      let f = fact vs in
      match Unify.match_fact Subst.empty a f with
      | None -> true
      | Some s -> Fact.equal (Atom.to_fact (Subst.apply_atom s a)) f)

(* ------------------------------------------------------------------ *)
(* Query and triviality *)

let test_query_accessors () =
  let q = Parse.query_exn "R(x u | x y) R(u y | x z)" in
  Alcotest.(check bool) "key_a" true
    (Term.Var_set.equal (Query.key_a q) (Term.Var_set.of_list [ "x"; "u" ]));
  Alcotest.(check bool) "key_b" true
    (Term.Var_set.equal (Query.key_b q) (Term.Var_set.of_list [ "u"; "y" ]));
  Alcotest.(check bool) "shared" true
    (Term.Var_set.equal (Query.shared_vars q) (Term.Var_set.of_list [ "x"; "u"; "y" ]));
  let q' = Query.swap q in
  Alcotest.(check bool) "swap exchanges atoms" true (Atom.equal q'.Query.a q.Query.b)

let test_triviality_hom () =
  (* Disjoint atoms: one maps onto the other with no shared variables. *)
  let q = Parse.query_exn "R(x | y) R(u | v)" in
  Alcotest.(check bool) "trivial" true (Option.is_some (Query.triviality q))

let test_triviality_requires_fixing_shared () =
  (* q2 has an atom-level hom B -> A but it moves shared variables, so q2 is
     NOT one-atom equivalent (it is in fact coNP-complete). *)
  let q2 = Parse.query_exn "R(x u | x y) R(u y | x z)" in
  Alcotest.(check bool) "q2 not trivial" true (Option.is_none (Query.triviality q2));
  let q3 = Parse.query_exn "R(x | y) R(y | z)" in
  Alcotest.(check bool) "q3 not trivial" true (Option.is_none (Query.triviality q3))

let test_triviality_equal_keys () =
  let q = Parse.query_exn "R(x y | x z) R(x y | z y)" in
  (match Query.triviality q with
  | Some Query.Equal_key_tuples -> ()
  | Some _ | None -> Alcotest.fail "expected Equal_key_tuples")

(* ------------------------------------------------------------------ *)
(* Solutions *)

let q3 = Parse.query_exn "R(x | y) R(y | z)"

let test_solutions_q3 () =
  let db = Database.of_facts [ schema2 ] [ fact [ 1; 2 ]; fact [ 2; 3 ]; fact [ 5; 5 ] ] in
  let pairs = Solutions.query_pairs q3 db in
  (* (1->2, 2->3) and the self-loop (5->5, 5->5). *)
  Alcotest.(check int) "two solutions" 2 (List.length pairs);
  Alcotest.(check bool) "directed pair" true
    (Solutions.query_solution_pair q3 (fact [ 1; 2 ]) (fact [ 2; 3 ]));
  Alcotest.(check bool) "not reversed" false
    (Solutions.query_solution_pair q3 (fact [ 2; 3 ]) (fact [ 1; 2 ]));
  Alcotest.(check bool) "symmetric closure" true
    (Solutions.query_solution_pair_sym q3 (fact [ 2; 3 ]) (fact [ 1; 2 ]));
  Alcotest.(check bool) "self solution" true
    (Solutions.query_solution_pair q3 (fact [ 5; 5 ]) (fact [ 5; 5 ]))

let test_satisfies () =
  Alcotest.(check bool) "satisfied" true
    (Solutions.query_satisfies q3 [ fact [ 1; 2 ]; fact [ 2; 3 ] ]);
  Alcotest.(check bool) "not satisfied" false
    (Solutions.query_satisfies q3 [ fact [ 1; 2 ]; fact [ 3; 4 ] ]);
  Alcotest.(check bool) "empty set" false (Solutions.query_satisfies q3 [])

let prop_solutions_sound =
  let gen =
    QCheck2.Gen.(
      let* n = int_range 0 10 in
      let* ks = list_size (return n) (int_range 0 3) in
      let* vs = list_size (return n) (int_range 0 3) in
      return (List.map2 (fun k v' -> fact [ k; v' ]) ks vs))
  in
  QCheck2.Test.make ~name:"solution pairs are sound and complete" ~count:200 gen
    (fun facts ->
      let db = Database.of_facts [ schema2 ] facts in
      let pairs = Solutions.query_pairs q3 db in
      List.for_all (fun (f, g) -> Solutions.query_solution_pair q3 f g) pairs
      && Solutions.query_satisfies q3 (Database.facts db) = (pairs <> []))

(* ------------------------------------------------------------------ *)
(* Solution graph *)

let test_solution_graph_structure () =
  let db =
    Database.of_facts [ schema2 ]
      [ fact [ 1; 2 ]; fact [ 1; 3 ]; fact [ 2; 3 ]; fact [ 9; 9 ] ]
  in
  let g = Solution_graph.of_query q3 db in
  Alcotest.(check int) "vertices" 4 (Solution_graph.n_facts g);
  Alcotest.(check int) "blocks" 3 (Solution_graph.n_blocks g);
  let i12 = Solution_graph.index g (fact [ 1; 2 ]) in
  let i23 = Solution_graph.index g (fact [ 2; 3 ]) in
  let i99 = Solution_graph.index g (fact [ 9; 9 ]) in
  Alcotest.(check bool) "edge 12-23" true (Solution_graph.edge g i12 i23);
  Alcotest.(check bool) "self loop on 99" true g.Solution_graph.self.(i99);
  Alcotest.(check bool) "no edge 12-99" false (Solution_graph.edge g i12 i99)

let test_components_and_cliques () =
  let db =
    Database.of_facts [ schema2 ]
      [ fact [ 1; 2 ]; fact [ 2; 1 ]; fact [ 5; 6 ]; fact [ 7; 8 ] ]
  in
  let g = Solution_graph.of_query q3 db in
  let member, n = Solution_graph.components g in
  Alcotest.(check int) "three components" 3 n;
  let i1 = Solution_graph.index g (fact [ 1; 2 ]) in
  let i2 = Solution_graph.index g (fact [ 2; 1 ]) in
  Alcotest.(check bool) "same component" true (member.(i1) = member.(i2));
  Alcotest.(check bool) "clique database" true (Solution_graph.is_clique_database g)

let test_not_clique_database () =
  (* A path 1->2->3->4: facts (1,2) and (3,4) are in the same component but
     not adjacent and not key-equal. *)
  let db = Database.of_facts [ schema2 ] [ fact [ 1; 2 ]; fact [ 2; 3 ]; fact [ 3; 4 ] ] in
  let g = Solution_graph.of_query q3 db in
  Alcotest.(check bool) "not clique" false (Solution_graph.is_clique_database g)

(* The per-component flags must agree with the definition read literally:
   every two non-key-equal members of the component are adjacent. Small
   domains give components of every shape, quasi-cliques and not. *)
let test_quasi_clique_flags () =
  let rng = Random.State.make [| 0x51C |] in
  let saw_true = ref false and saw_false = ref false in
  List.iter
    (fun q ->
      for n = 4 to 40 do
        let db = Workload.Randdb.random_for_query rng q ~n_facts:n ~domain:3 in
        let g = Solution_graph.of_query q db in
        let member, n_comps = Solution_graph.components g in
        let flags = Solution_graph.quasi_cliques g ~member ~n_comps in
        let vertices = List.init (Solution_graph.n_facts g) Fun.id in
        Array.iteri
          (fun c flag ->
            let vs = List.filter (fun v -> member.(v) = c) vertices in
            let expected =
              List.for_all
                (fun i ->
                  List.for_all
                    (fun j ->
                      i = j
                      || g.Solution_graph.block_of.(i) = g.Solution_graph.block_of.(j)
                      || Solution_graph.edge g i j)
                    vs)
                vs
            in
            if expected then saw_true := true else saw_false := true;
            if flag <> expected then
              Alcotest.failf "component %d of %s (%d facts): flag %b, definition %b"
                c (Query.to_string q) n flag expected)
          flags;
        Alcotest.(check bool) "is_clique_database is the conjunction"
          (Array.for_all Fun.id flags) (Solution_graph.is_clique_database g)
      done)
    Workload.Catalog.[ q3; q4; q5; q6 ];
  Alcotest.(check bool) "both kinds of component seen" true (!saw_true && !saw_false)

(* The join ticks once per row of [a]'s relation range, matched or not, and
   building the index over [b] ticks nothing. *)
let test_join_tick_cadence () =
  let rng = Random.State.make [| 0x71C |] in
  List.iter
    (fun (q : Query.t) ->
      let db = Workload.Randdb.random_for_query rng q ~n_facts:60 ~domain:4 in
      let plane = Relational.Compiled.compile db in
      let ticks = ref 0 in
      Qlang.Pattern.iter_pairs
        ~tick:(fun () -> incr ticks)
        (Qlang.Pattern.pair plane q.Query.a q.Query.b)
        (fun _ _ -> ());
      let rel =
        Option.get (Relational.Compiled.rel_index plane q.Query.a.Atom.rel)
      in
      let lo, hi = plane.Relational.Compiled.rel_range.(rel) in
      Alcotest.(check int) (Query.to_string q) (hi - lo) !ticks)
    Workload.Catalog.[ q3; q4; q5; q6 ]

(* Building the solution graph allocates nothing per row: the keyed join
   binds into one environment array with no record of what to reset, and
   the adjacency lists are sorted in place. On a 3,200-fact q5 plane of
   the graph-bound workload's shape (domain n/8), ticking a budget at
   [compile] as the degradation chain does (a required label, never
   boxed), the minor heap grows by fewer words than the plane has facts.
   The per-call arrays, sized to the plane, are beyond the minor heap's
   256-word limit and are not counted: what shows is per-row and per-pair
   allocation. Counting words rather than timing keeps the bound
   deterministic. *)
let test_graph_build_allocation () =
  let q = Workload.Catalog.q5 in
  let db =
    Workload.Randdb.random_for_query (Random.State.make [| 42 |]) q ~n_facts:3200
      ~domain:400
  in
  let plane = Relational.Compiled.compile db in
  let n = Relational.Compiled.n_facts plane in
  Alcotest.(check bool) "a large plane" true (n > 3000);
  let budget = Harness.Budget.unlimited () in
  let tick () = Harness.Budget.tick ~site:Harness.Sites.compile budget in
  let before = Gc.minor_words () in
  let g = Solution_graph.of_query_compiled ~tick q plane in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "some pairs" true (g.Solution_graph.directed <> []);
  Alcotest.(check int) "one tick per candidate row" n (Harness.Budget.steps budget);
  if words >= float_of_int n then
    Alcotest.failf "building the graph of %d facts allocated %.0f minor words" n words

(* ------------------------------------------------------------------ *)
(* Sjf *)

let test_sjf_structure () =
  let q2 = Parse.query_exn "R(x u | x y) R(u y | x z)" in
  let s = Qlang.Sjf.of_query q2 in
  Alcotest.(check string) "r1 name" "R1" s.Qlang.Sjf.s1.Schema.name;
  Alcotest.(check string) "r2 name" "R2" s.Qlang.Sjf.s2.Schema.name;
  Alcotest.(check int) "same arity" 4 s.Qlang.Sjf.s1.Schema.arity

let test_sjf_reduce_blocks () =
  (* The reduction maps blocks to blocks: key-equal facts stay key-equal and
     R1/R2 facts land in disjoint blocks. *)
  let q2 = Parse.query_exn "R(x u | x y) R(u y | x z)" in
  let s = Qlang.Sjf.of_query q2 in
  let f1 = Fact.make "R1" [ vi 1; vi 2; vi 3; vi 4 ] in
  let f2 = Fact.make "R1" [ vi 1; vi 2; vi 5; vi 6 ] in
  let f3 = Fact.make "R2" [ vi 1; vi 2; vi 3; vi 4 ] in
  let db = Database.of_facts (Qlang.Sjf.schemas s) [ f1; f2; f3 ] in
  let db' = Qlang.Sjf.reduce q2 db in
  Alcotest.(check int) "three facts" 3 (Database.size db');
  Alcotest.(check int) "two blocks" 2 (List.length (Database.blocks db'))

let test_sjf_rejects_foreign_relations () =
  let q2 = Parse.query_exn "R(x u | x y) R(u y | x z)" in
  let s3 = Schema.make ~name:"S" ~arity:4 ~key_len:2 in
  let db = Database.of_facts [ s3 ] [ Fact.make "S" [ vi 1; vi 2; vi 3; vi 4 ] ] in
  Alcotest.(check bool) "foreign relation rejected" true
    (try
       ignore (Qlang.Sjf.reduce q2 db);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Parse *)

let test_parse_roundtrip () =
  List.iter
    (fun src ->
      let q = Parse.query_exn src in
      let q' = Parse.query_exn (Query.to_string q) in
      Alcotest.(check bool) ("roundtrip " ^ src) true (Query.equal q q'))
    [ "R(x | y) R(y | z)"; "R(x u | x y) R(u y | x z)"; "R(x y) R(y x)" ]

let prop_parse_roundtrip_random =
  (* Random variable-pattern queries survive printing and reparsing. *)
  QCheck2.Test.make ~name:"print/parse roundtrip on random queries" ~count:300
    QCheck2.Gen.(
      let* arity = int_range 1 5 in
      let* key_len = int_range 0 arity in
      let* seed = int_range 0 10_000 in
      return (arity, key_len, seed))
    (fun (arity, key_len, seed) ->
      let rng = Random.State.make [| seed |] in
      let q = Workload.Randquery.random rng ~arity ~key_len ~n_vars:(arity + 2) in
      match Parse.query (Query.to_string q) with
      | Error _ ->
          (* key_len = arity prints without a bar, which reparses with the
             full-key convention; anything else must reparse. *)
          false
      | Ok q' -> Query.equal q q')

let test_parse_errors () =
  let bad s =
    match Parse.query s with Ok _ -> Alcotest.failf "should reject %s" s | Error _ -> ()
  in
  bad "R(x | y) S(y | z)";
  bad "R(x | y) R(y z | u)";
  bad "R(x | y)";
  bad "R(x | y) R(y | z) R(z | w)";
  bad "R() R()"

let test_parse_constants () =
  let q = Parse.query_exn "R(x | 5) R(5 | x)" in
  Alcotest.(check bool) "constant parsed" true (Term.equal (Atom.nth q.Query.a 1) (c 5))

let test_parse_database () =
  let src = "# comment\nR[2,1]\nR(1 2)\nR(1 3)\nR(2 2)\n" in
  match Parse.database src with
  | Error e -> Alcotest.fail (Parse.error_to_string e)
  | Ok db ->
      Alcotest.(check int) "three facts" 3 (Database.size db);
      Alcotest.(check int) "two blocks" 2 (List.length (Database.blocks db))

let test_parse_database_infer_schema () =
  match Parse.database "R(1 | a)\nR(1 | b)\n" with
  | Error e -> Alcotest.fail (Parse.error_to_string e)
  | Ok db ->
      Alcotest.(check int) "one block" 1 (List.length (Database.blocks db));
      Alcotest.(check bool) "inconsistent" false (Database.is_consistent db)

let test_parse_csv () =
  let schema = Schema.make ~name:"Emp" ~arity:3 ~key_len:1 in
  let src = "e1,alice,10\ne1,alice,20\ne2,\"bob, jr\",30\n" in
  match Parse.csv ~schema src with
  | Error e -> Alcotest.fail (Parse.error_to_string e)
  | Ok db ->
      Alcotest.(check int) "three facts" 3 (Database.size db);
      Alcotest.(check int) "two blocks" 2 (List.length (Database.blocks db));
      Alcotest.(check bool) "quoted cell with comma" true
        (Database.mem db
           (Fact.make "Emp" [ Value.str "e2"; Value.str "bob, jr"; vi 30 ]))

let test_parse_csv_header_and_errors () =
  let schema = Schema.make ~name:"Emp" ~arity:2 ~key_len:1 in
  (match Parse.csv ~schema ~skip_header:true "id,name\n1,a\n2,b\n" with
  | Error e -> Alcotest.fail (Parse.error_to_string e)
  | Ok db -> Alcotest.(check int) "header skipped" 2 (Database.size db));
  (match Parse.csv ~schema "1,a,EXTRA\n" with
  | Ok _ -> Alcotest.fail "arity mismatch accepted"
  | Error _ -> ());
  match Parse.csv ~schema ~separator:';' "1;a\n" with
  | Error e -> Alcotest.fail (Parse.error_to_string e)
  | Ok db -> Alcotest.(check int) "custom separator" 1 (Database.size db)

let test_parse_error_positions () =
  let position s =
    match Parse.query s with
    | Ok _ -> Alcotest.failf "should reject %s" s
    | Error e -> (e.Parse.kind, e.Parse.position)
  in
  (match position "R(x | y) S(y | z)" with
  | Parse.Mismatch, Some p ->
      Alcotest.(check int) "mismatch line" 1 p.Parse.line;
      Alcotest.(check int) "mismatch col: the second relation symbol" 10 p.Parse.col
  | _, _ -> Alcotest.fail "expected a positioned Mismatch error");
  (match position "R(x | %) R(x | y)" with
  | Parse.Lex, Some p -> Alcotest.(check int) "lex col" 7 p.Parse.col
  | _, _ -> Alcotest.fail "expected a positioned Lex error");
  (match position "R(x | y)\nR(y z | u)" with
  | Parse.Mismatch, Some p ->
      Alcotest.(check int) "arity mismatch on line 2" 2 p.Parse.line
  | _, _ -> Alcotest.fail "expected a positioned arity Mismatch");
  match Parse.database "R[2,1]\nR(1 2)\nR(1 %)\n" with
  | Ok _ -> Alcotest.fail "should reject the bad fact"
  | Error e -> (
      match e.Parse.position with
      | Some p ->
          Alcotest.(check int) "database error line" 3 p.Parse.line;
          Alcotest.(check int) "database error col" 5 p.Parse.col
      | None -> Alcotest.fail "database error carries no position")

let test_parse_spans () =
  match Parse.query_spanned "R(x u | x y) R(u y | x z)" with
  | Error e -> Alcotest.fail (Parse.error_to_string e)
  | Ok (q, spans) ->
      Alcotest.(check int) "arity" 4 (Qlang.Atom.arity q.Query.a);
      Alcotest.(check int) "atom A rel col" 1 spans.Parse.span_a.Parse.rel_pos.Parse.col;
      Alcotest.(check int) "atom B rel col" 14 spans.Parse.span_b.Parse.rel_pos.Parse.col;
      Alcotest.(check int) "four positioned args per atom" 4
        (List.length spans.Parse.span_a.Parse.arg_positions);
      let third = List.nth spans.Parse.span_b.Parse.arg_positions 2 in
      Alcotest.(check int) "third arg of B" 22 third.Parse.col

let test_parse_database_errors () =
  (match Parse.database "R(1 2)\n" with
  | Ok _ -> Alcotest.fail "schema should be required"
  | Error _ -> ());
  match Parse.database "" with
  | Ok _ -> Alcotest.fail "empty file rejected"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* The fact reader against the token-list parser it replaced           *)

(* The token-list fact path the fact reader replaced, kept as the oracle:
   [tokenize] lexes the whole input into a list, [parse_tuple] and
   [fact_of_tokens] read a fact off it, and [database] runs them line by
   line. Its [database] has one rule that path lacked: a fact's bar must
   agree with its relation's schema when the arity does. *)
module Oracle = struct
  open Parse

  let ( let* ) = Result.bind

  let err ?pos ?(kind = Syntax) fmt =
    Format.kasprintf (fun message -> Error { message; position = pos; kind }) fmt

  let error_at_line line e =
    { e with position = Option.map (fun p -> { p with line }) e.position }

  type token = Ident of string | Lpar | Rpar | Bar | Lbracket | Rbracket | Comma

  let is_ident_char c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '_' || c = '\'' || c = '-' || c = '<' || c = '>'

  let tokenize s =
    let n = String.length s in
    let rec go i line col acc =
      if i >= n then Ok (List.rev acc)
      else
        let pos = { line; col } in
        let punct k tok = go (i + k) line (col + k) ((tok, pos) :: acc) in
        match s.[i] with
        | '\n' -> go (i + 1) (line + 1) 1 acc
        | ' ' | '\t' | '\r' -> go (i + 1) line (col + 1) acc
        | '(' -> punct 1 Lpar
        | ')' -> punct 1 Rpar
        | '|' -> punct 1 Bar
        | '[' -> punct 1 Lbracket
        | ']' -> punct 1 Rbracket
        | ',' -> punct 1 Comma
        | '&' when i + 1 < n && s.[i + 1] = '&' -> go (i + 2) line (col + 2) acc
        | '/' when i + 1 < n && s.[i + 1] = '\\' -> go (i + 2) line (col + 2) acc
        | '\xe2' when i + 2 < n && s.[i + 1] = '\x88' && s.[i + 2] = '\xa7' ->
            go (i + 3) line (col + 1) acc
        | c when is_ident_char c ->
            let j = ref i in
            while !j < n && is_ident_char s.[!j] do
              incr j
            done;
            go !j line (col + (!j - i)) ((Ident (String.sub s i (!j - i)), pos) :: acc)
        | c -> err ~pos ~kind:Lex "unexpected character %C" c
    in
    go 0 1 1 []

  let value_of_ident id =
    match int_of_string_opt id with Some n -> Value.int n | None -> Value.str id

  let parse_tuple tokens =
    match tokens with
    | (Ident name, name_pos) :: (Lpar, _) :: rest ->
        let rec args acc bar i = function
          | (Rpar, _) :: rest -> Ok ((name, name_pos, List.rev acc, bar), rest)
          | (Bar, pos) :: rest ->
              if bar = None then args acc (Some i) i rest
              else err ~pos "duplicate key separator '|'"
          | (Ident id, pos) :: rest -> args ((id, pos) :: acc) bar (i + 1) rest
          | (Comma, _) :: rest -> args acc bar i rest
          | ((Lpar | Lbracket | Rbracket), pos) :: _ -> err ~pos "malformed tuple"
          | [] -> err "unexpected end of input, expected ')'"
        in
        args [] None 0 rest
    | (_, pos) :: _ -> err ~pos "expected an atom of the form Name(...)"
    | [] -> err "expected an atom of the form Name(...)"

  let fact_of_tokens tokens =
    let* (name, _, args, bar), rest = parse_tuple tokens in
    let* () =
      match rest with [] -> Ok () | (_, pos) :: _ -> err ~pos "trailing input after fact"
    in
    let* () = if args <> [] then Ok () else err "facts must have arity >= 1" in
    Ok (Fact.make name (List.map (fun (id, _) -> value_of_ident id) args), bar)

  let fact s =
    let* tokens = tokenize s in
    fact_of_tokens tokens

  let strip_comment line =
    match String.index_opt line '#' with None -> line | Some i -> String.sub line 0 i

  let parse_schema_decl tokens =
    match List.map fst tokens with
    | [ Ident name; Lbracket; Ident k; Comma; Ident l; Rbracket ] -> (
        match (int_of_string_opt k, int_of_string_opt l) with
        | Some arity, Some key_len -> Some (Schema.make ~name ~arity ~key_len)
        | _, _ -> None)
    | _ -> None

  let database s =
    let lines =
      String.split_on_char '\n' s
      |> List.mapi (fun i l -> (i + 1, String.trim (strip_comment l)))
      |> List.filter (fun (_, l) -> l <> "")
    in
    let rec go schemas pending = function
      | [] -> Ok (List.rev schemas, List.rev pending)
      | (lineno, text) :: rest -> (
          let* tokens = Result.map_error (error_at_line lineno) (tokenize text) in
          match parse_schema_decl tokens with
          | Some sc -> go (sc :: schemas) pending rest
          | None ->
              let* f, bar = Result.map_error (error_at_line lineno) (fact_of_tokens tokens) in
              go schemas ((f, bar, lineno) :: pending) rest)
    in
    let* schemas, facts = go [] [] lines in
    let* schemas =
      List.fold_left
        (fun acc (f, bar, lineno) ->
          let* acc = acc in
          let rel = f.Fact.rel in
          match List.find_opt (fun (sc : Schema.t) -> String.equal sc.Schema.name rel) acc with
          | Some sc -> (
              (* The one rule added to the replaced code. *)
              match bar with
              | Some l when sc.Schema.arity = Fact.arity f && l <> sc.Schema.key_len ->
                  err
                    ~pos:{ line = lineno; col = 1 }
                    "fact %s declares key length %d but schema %s has %d" (Fact.to_string f) l
                    sc.Schema.name sc.Schema.key_len
              | _ -> Ok acc)
          | None -> (
              match bar with
              | Some key_len -> Ok (Schema.make ~name:rel ~arity:(Fact.arity f) ~key_len :: acc)
              | None ->
                  err
                    ~pos:{ line = lineno; col = 1 }
                    "no schema for relation %s: declare %s[k,l] or use a '|'" rel rel))
        (Ok schemas) facts
    in
    let* () = if schemas <> [] then Ok () else err "empty database file" in
    try Ok (Database.of_facts schemas (List.map (fun (f, _, _) -> f) facts))
    with Invalid_argument msg -> err "%s" msg
end

(* Pieces of fact lines: identifiers and ints of every spelling
   [int_of_string] knows, the punctuation, blanks, the conjunction signs
   and their broken halves, and characters the lexer refuses. *)
let line_pieces =
  [|
    "R"; "S"; "r_1"; "1"; "-2"; "007"; "12"; "0x1F"; "1_000"; "99999999999999999999";
    "123456789012345678"; "4611686018427387903"; "9999999999999999999"; "a"; "x'"; "<a>"; "-"; "|"; "|"; ","; "("; "("; ")"; ")"; "[";
    "]"; " "; " "; "\t"; "\r"; "&&"; "&"; "/\\"; "/"; "\xe2\x88\xa7"; "\xe2"; "%"; "@";
    "\012"; "#";
  |]

let line_gen ~newlines =
  let open QCheck2.Gen in
  let piece =
    if newlines then frequency [ (12, oneofa line_pieces); (1, return "\n") ]
    else oneofa line_pieces
  in
  let* prefix = oneofl [ ""; "R("; "R(1 | "; "S(a, b"; " R ( 1 2 | 3 ) " ] in
  let* pieces = list_size (int_range 0 8) piece in
  let* suffix = oneofl [ ""; ")"; " )"; "| 4)"; ") # c" ] in
  return (String.concat "" ((prefix :: pieces) @ [ suffix ]))

let pp_result pp_ok = function
  | Ok x -> "Ok " ^ pp_ok x
  | Error e ->
      Printf.sprintf "Error %S (%s)" (Parse.error_to_string e)
        (match e.Parse.kind with Parse.Lex -> "lex" | Syntax -> "syntax" | Mismatch -> "mismatch")

let prop_fact_reader_oracle =
  QCheck2.Test.make ~name:"fact reader = token-list parser" ~count:3000 ~print:(Printf.sprintf "%S")
    (line_gen ~newlines:true)
    (fun line ->
      let pp (f, bar) =
        Fact.to_string f ^ match bar with None -> "" | Some l -> Printf.sprintf " bar %d" l
      in
      let got = Parse.fact line and want = Oracle.fact line in
      let same =
        match (got, want) with
        | Ok (f, b), Ok (f', b') -> Fact.equal f f' && b = b'
        | Error e, Error e' -> e = e'
        | _ -> false
      in
      same || QCheck2.Test.fail_reportf "reader %s, oracle %s" (pp_result pp got) (pp_result pp want))

let prop_database_reader_oracle =
  QCheck2.Test.make ~name:"database reader = token-list parser" ~count:2000
    ~print:(Printf.sprintf "%S")
    QCheck2.Gen.(
      let line =
        frequency
          [
            (6, line_gen ~newlines:false);
            (2, oneofl [ "R(1 | 2)"; "R(3 4 |)"; "R(5 6)"; "S(1 | 2 3)"; "R(1, 2)" ]);
            (1, oneofl [ "R[2,1]"; "S[3,1]"; "R[a,1]"; "R[2 , 2]"; "R[1,2]"; "R[2,1"; "" ]);
          ]
      in
      let* lines = list_size (int_range 1 5) line in
      let* blanks = oneofl [ ""; " "; "\t"; "  \r" ] in
      let* comment = oneofl [ ""; " # note"; "#" ] in
      return (String.concat "\n" (List.map (fun l -> blanks ^ l ^ comment) lines)))
    (fun text ->
      let run f = match f text with r -> `R r | exception Invalid_argument m -> `Raised m in
      let pp db = Format.asprintf "%a" Database.pp db in
      let show = function `R r -> pp_result pp r | `Raised m -> "raised " ^ m in
      let got = run Parse.database and want = run Oracle.database in
      let same =
        match (got, want) with
        | `R (Ok d), `R (Ok d') -> Database.equal d d'
        | `R (Error e), `R (Error e') -> e = e'
        | `Raised m, `Raised m' -> String.equal m m'
        | _ -> false
      in
      same || QCheck2.Test.fail_reportf "reader %s, oracle %s" (show got) (show want))

let test_parse_database_bar_conflict () =
  let refused text ~line ~message =
    match Parse.database text with
    | Ok _ -> Alcotest.failf "%S loaded" text
    | Error e ->
        Alcotest.(check string) "message" message e.Parse.message;
        Alcotest.(check (option (pair int int)))
          "position" (Some (line, 1))
          (Option.map (fun p -> (p.Parse.line, p.Parse.col)) e.Parse.position)
  in
  let message = "fact R(1 2) declares key length 2 but schema R has 1" in
  refused "R(1 | 2)\nR(1 2 |)\nR(2 | 1)\n" ~line:2 ~message;
  refused "R[2,1]\nR(1 2 |)" ~line:2 ~message;
  refused "R(1 2 |)\n# declared on a later line\nR[2,1]\n" ~line:1 ~message;
  (* A bar that agrees, or none, still loads; a fact of another arity keeps
     the wrong-arity error. *)
  Alcotest.(check int) "agreeing bars" 2
    (Database.size (Parse.database_exn "R[2,1]\nR(1 | 2)\nR(1 3)"));
  match Parse.database "R(1 | 2)\nR(1 2 | 3)\n" with
  | Error { Parse.message; position = None; _ } ->
      Alcotest.(check string)
        "wrong arity" "Database: fact R(1 2 3) has wrong arity for schema R[2,1]" message
  | _ -> Alcotest.fail "a fact of the wrong arity must keep its error"

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "qlang"
    [
      ( "atom",
        [
          Alcotest.test_case "vars" `Quick test_atom_vars;
          Alcotest.test_case "key vars" `Quick test_atom_key_vars;
          Alcotest.test_case "fact roundtrip" `Quick test_atom_fact_roundtrip;
          Alcotest.test_case "homomorphism" `Quick test_atom_homomorphism;
        ] );
      ( "unify",
        [
          Alcotest.test_case "subst idempotent" `Quick test_subst_idempotent;
          Alcotest.test_case "terms" `Quick test_unify_terms;
          Alcotest.test_case "atoms" `Quick test_unify_atoms;
          Alcotest.test_case "relations" `Quick test_unify_different_relations;
        ]
        @ qt [ prop_unify_is_unifier; prop_match_fact_grounds ] );
      ( "query",
        [
          Alcotest.test_case "accessors" `Quick test_query_accessors;
          Alcotest.test_case "trivial hom" `Quick test_triviality_hom;
          Alcotest.test_case "shared vars block hom" `Quick
            test_triviality_requires_fixing_shared;
          Alcotest.test_case "equal key tuples" `Quick test_triviality_equal_keys;
        ] );
      ( "solutions",
        [
          Alcotest.test_case "q3 pairs" `Quick test_solutions_q3;
          Alcotest.test_case "satisfies" `Quick test_satisfies;
        ]
        @ qt [ prop_solutions_sound ] );
      ( "solution graph",
        [
          Alcotest.test_case "structure" `Quick test_solution_graph_structure;
          Alcotest.test_case "components/cliques" `Quick test_components_and_cliques;
          Alcotest.test_case "non-clique db" `Quick test_not_clique_database;
          Alcotest.test_case "quasi-clique flags" `Quick test_quasi_clique_flags;
          Alcotest.test_case "join tick cadence" `Quick test_join_tick_cadence;
          Alcotest.test_case "no allocation per row" `Quick test_graph_build_allocation;
        ] );
      ( "sjf",
        [
          Alcotest.test_case "structure" `Quick test_sjf_structure;
          Alcotest.test_case "reduce blocks" `Quick test_sjf_reduce_blocks;
          Alcotest.test_case "foreign relations" `Quick test_sjf_rejects_foreign_relations;
        ] );
      ( "parse",
        [
          Alcotest.test_case "roundtrip" `Quick test_parse_roundtrip;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "constants" `Quick test_parse_constants;
          Alcotest.test_case "database" `Quick test_parse_database;
          Alcotest.test_case "schema inference" `Quick test_parse_database_infer_schema;
          Alcotest.test_case "database errors" `Quick test_parse_database_errors;
          Alcotest.test_case "bar conflicts with schema" `Quick test_parse_database_bar_conflict;
          Alcotest.test_case "error positions" `Quick test_parse_error_positions;
          Alcotest.test_case "argument spans" `Quick test_parse_spans;
          Alcotest.test_case "csv" `Quick test_parse_csv;
          Alcotest.test_case "csv header/errors" `Quick test_parse_csv_header_and_errors;
        ]
        @ qt [ prop_parse_roundtrip_random; prop_fact_reader_oracle; prop_database_reader_oracle ]
        @ [
        ] );
    ]
