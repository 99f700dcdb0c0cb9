(* Differential suite for the delta-driven Cert_k rewrite.

   Three independent implementations compute the same fixpoint:

   - [Cqa.Certk] — the delta-driven worklist with interned k-sets;
   - [Cqa.Certk_rounds] — the frozen pre-rewrite round-driven antichain;
   - [Cqa.Certk_naive] — the textbook fixpoint over all materialised k-sets.

   On a seeded pool of random queries and databases (plus the structured
   Theorem 14 designs) they must agree verdict-for-verdict and, for the two
   antichain implementations, minimal-antichain-for-minimal-antichain. The
   suite also re-validates the two artefact surfaces the rewrite must not
   disturb: Cert_k derivation certificates stay structurally sound, and
   classification certificates still pass [Analysis.Check]. *)

module Query = Qlang.Query
module Parse = Qlang.Parse
module Solution_graph = Qlang.Solution_graph
module Catalog = Workload.Catalog

let rng = Random.State.make [| 0x5EED |]

let fixed_queries =
  List.map Parse.query_exn
    [
      "R(x | y) R(y | z)";
      "R(x | y x) R(y | x u)";
      "R(x | y z) R(z | x y)";
      "R(x x | y) R(x y | y)";
      "R(x y | y x) R(y x | x y)";
      (* Edge shapes of the keyed join behind the pair scan. *)
      "R(x | 5) R(5 | x)";
      "R(x | y) R(u | v)";
      "R(x | y y) R(y | u u)";
      "R(x | y) R(y | 7)";
      "R(x | y) R(y | 'absent')";
    ]

let random_queries =
  List.filter_map
    (fun _ ->
      Workload.Randquery.random_nontrivial rng ~arity:3 ~key_len:1 ~n_vars:3
        ~attempts:20)
    (List.init 6 Fun.id)

let instances =
  List.concat_map
    (fun q ->
      List.init 5 (fun i ->
          (q, Workload.Randdb.random_for_query rng q ~n_facts:(6 + (3 * i)) ~domain:3)))
    (fixed_queries @ random_queries)
  @ List.map
      (fun db -> (Catalog.q6, db))
      [
        Workload.Designs.two_orientations;
        Workload.Designs.fano_minus 0;
        Workload.Designs.fano_minus 3;
        Workload.Designs.db_of_triples Workload.Designs.fano_lines;
      ]

(* Every catalogue query on five seeded 40-fact databases over a domain of
   4: large enough for multi-member blocks and multi-row join buckets, and
   the only instances of the catalogue's wide shapes (arity 5 and 14). *)
let catalog_instances =
  List.concat_map
    (fun (e : Catalog.entry) ->
      List.init 5 (fun _ ->
          ( e.Catalog.query,
            Workload.Randdb.random_for_query rng e.Catalog.query ~n_facts:40
              ~domain:4 )))
    Catalog.all

(* The seven seeded cases of the Cert_k benchmark smoke run: q3, q5 and q6
   at 40 and 80 facts over a domain of n/4, drawn in that order from seed
   42, and q6 on the Fano plane minus one line. The private RNG leaves the
   draws of the pools above unchanged. *)
let seed_42_pool =
  let rng = Random.State.make [| 42 |] in
  List.concat_map
    (fun (name, q, k) ->
      List.map
        (fun n ->
          ( Printf.sprintf "%s/rand-n%d" name n,
            q,
            k,
            Workload.Randdb.random_for_query rng q ~n_facts:n
              ~domain:(max 2 (n / 4)) ))
        [ 40; 80 ])
    [ ("q3", Catalog.q3, 2); ("q5", Catalog.q5, 2); ("q6", Catalog.q6, 3) ]
  @ [ ("q6/fano-minus-0", Catalog.q6, 3, Workload.Designs.fano_minus 0) ]

let test_three_way_verdict_agreement () =
  List.iter
    (fun (q, db) ->
      let g = Solution_graph.of_query q db in
      List.iter
        (fun k ->
          let delta = Cqa.Certk.run ~k g in
          let rounds = Cqa.Certk_rounds.run ~k g in
          let naive = Cqa.Certk_naive.run ~k g in
          if delta <> rounds || delta <> naive then
            Alcotest.failf "Cert_%d: delta %b / rounds %b / naive %b on %s" k
              delta rounds naive (Query.to_string q))
        [ 1; 2; 3 ])
    instances

let test_minimal_antichains_identical () =
  (* Stronger than verdict agreement: the rewrite must compute the exact
     same minimal antichain, not just the same emptiness bit. *)
  List.iter
    (fun (q, db) ->
      let g = Solution_graph.of_query q db in
      List.iter
        (fun k ->
          let delta = Cqa.Certk.derived ~k g in
          let rounds = Cqa.Certk_rounds.derived ~k g in
          if delta <> rounds then
            Alcotest.failf
              "Cert_%d antichains differ on %s: delta has %d sets, rounds %d"
              k (Query.to_string q) (List.length delta) (List.length rounds))
        [ 1; 2; 3 ])
    instances

let test_sound_vs_exact () =
  List.iter
    (fun (q, db) ->
      let g = Solution_graph.of_query q db in
      let exact = Cqa.Exact.certain g in
      List.iter
        (fun k ->
          if Cqa.Certk.run ~k g && not exact then
            Alcotest.failf "Cert_%d claimed a non-certain instance of %s" k
              (Query.to_string q))
        [ 1; 2; 3 ])
    instances

(* Each case at its own k: the three Cert_k implementations agree, Cert_k
   answers alike on the compiled graph and on the reference graph, a
   "certain" from Cert_k is one from [Exact], and the two graphs are
   structurally identical. *)
let test_seed_42_pool () =
  List.iter
    (fun (name, (q : Query.t), k, db) ->
      let g = Solution_graph.of_query_compiled q (Relational.Compiled.compile db) in
      let g_ref = Solution_graph.of_atoms_reference q.Query.a q.Query.b db in
      if not (Solution_graph.equal g g_ref) then
        Alcotest.failf "%s: compiled and reference solution graphs differ" name;
      let delta = Cqa.Certk.run ~k g in
      let rounds = Cqa.Certk_rounds.run ~k g in
      let naive = Cqa.Certk_naive.run ~k g in
      if delta <> rounds || delta <> naive then
        Alcotest.failf "%s: Cert_%d delta %b / rounds %b / naive %b" name k
          delta rounds naive;
      let on_ref = Cqa.Certk.run ~k g_ref in
      if on_ref <> delta then
        Alcotest.failf "%s: Cert_%d %b on the compiled graph, %b on the reference"
          name k delta on_ref;
      if delta && not (Cqa.Exact.certain g) then
        Alcotest.failf "%s: Cert_%d claimed a non-certain instance" name k)
    seed_42_pool

(* Cross-plane differential: every solver must answer identically whether it
   is fed the frozen persistent-plane graph builder's output or the graph
   [Solution_graph.of_query_compiled] builds on the compiled execution plane
   ([Relational.Compiled]). Stronger than verdict agreement where possible: the
   solution graphs must be structurally identical, the solution-pair
   enumerations must coincide index-for-index, the Cert_k minimal antichains
   must match set-for-set, and seeded Monte-Carlo estimates must agree
   sample-for-sample. The catalogue pool skips [Certk_naive], whose Cert_3
   materialises every 3-set and takes minutes at 40 facts. *)
let test_cross_plane_agreement () =
  let checked = ref 0 in
  List.iter
    (fun (naive, ((q : Query.t), db)) ->
      let plane = Relational.Compiled.compile db in
      let g_ref = Solution_graph.of_atoms_reference q.Query.a q.Query.b db in
      let g = Solution_graph.of_query_compiled q plane in
      if not (Solution_graph.equal g g_ref) then
        Alcotest.failf "solution graphs differ across planes on %s"
          (Query.to_string q);
      let pairs_ref =
        List.map
          (fun (f1, f2) ->
            (Solution_graph.index g_ref f1, Solution_graph.index g_ref f2))
          (Qlang.Solutions.query_pairs q db)
      in
      if Qlang.Solutions.pairs_compiled q.Query.a q.Query.b plane <> pairs_ref
      then
        Alcotest.failf "solution pairs differ across planes on %s"
          (Query.to_string q);
      List.iter
        (fun k ->
          let pairings =
            [
              ( Printf.sprintf "certk-%d" k,
                Cqa.Certk.run ~k g_ref,
                Cqa.Certk.run ~k g );
              ( Printf.sprintf "certk-rounds-%d" k,
                Cqa.Certk_rounds.run ~k g_ref,
                Cqa.Certk_rounds.run ~k g );
            ]
            @
            if naive then
              [
                ( Printf.sprintf "certk-naive-%d" k,
                  Cqa.Certk_naive.run ~k g_ref,
                  Cqa.Certk_naive.run ~k g );
              ]
            else []
          in
          List.iter
            (fun (name, persistent, compiled) ->
              if persistent <> compiled then
                Alcotest.failf "%s: persistent %b / compiled %b on %s" name
                  persistent compiled (Query.to_string q))
            pairings;
          if Cqa.Certk.derived ~k g_ref <> Cqa.Certk.derived ~k g then
            Alcotest.failf "Cert_%d antichains differ across planes on %s" k
              (Query.to_string q))
        [ 1; 2; 3 ];
      List.iter
        (fun (name, persistent, compiled) ->
          if persistent <> compiled then
            Alcotest.failf "%s: persistent %b / compiled %b on %s" name
              persistent compiled (Query.to_string q))
        [
          ("exact", Cqa.Exact.certain g_ref, Cqa.Exact.certain g);
          ( "satreduce",
            Cqa.Satreduce.certain g_ref,
            Cqa.Satreduce.certain g );
          ( "matching",
            not (Cqa.Matching_alg.run g_ref),
            not (Cqa.Matching_alg.run g) );
        ];
      let trials = 30 in
      let e_db =
        Cqa.Montecarlo.estimate (Random.State.make [| 0xCAFE |]) ~trials q db
      in
      let e_g =
        Cqa.Montecarlo.estimate_g (Random.State.make [| 0xCAFE |]) ~trials g
      in
      if
        e_db.Cqa.Montecarlo.satisfying <> e_g.Cqa.Montecarlo.satisfying
        || e_db.Cqa.Montecarlo.counterexample <> e_g.Cqa.Montecarlo.counterexample
      then
        Alcotest.failf "seeded Monte-Carlo estimates differ across planes on %s"
          (Query.to_string q);
      incr checked)
    (List.map (fun i -> (true, i)) instances
    @ List.map (fun i -> (false, i)) catalog_instances);
  if !checked = 0 then Alcotest.fail "cross-plane suite saw no instances"

(* The cross-plane law again as qcheck properties over the whole
   catalogue: where [catalog_instances] is fixed, every run draws fresh
   seeds for its 40-fact, domain-4 databases. *)
let catalog = Array.of_list Catalog.all

let gen_case =
  QCheck2.Gen.(pair (int_range 0 99999) (int_range 0 (Array.length catalog - 1)))

let db_of seed q =
  Workload.Randdb.random_for_query (Random.State.make [| seed |]) q ~n_facts:40
    ~domain:4

let prop_compiled_plane =
  QCheck2.Test.make ~name:"compiled plane = reference plane (graphs, Cert_k, MC)"
    ~count:80 gen_case
    (fun (seed, qi) ->
      let q = catalog.(qi).Catalog.query in
      let db = db_of seed q in
      let plane = Relational.Compiled.compile db in
      let g_r = Solution_graph.of_atoms_reference q.Query.a q.Query.b db in
      let g_p = Solution_graph.of_query_compiled q plane in
      let k = 2 in
      let e_db =
        Cqa.Montecarlo.estimate (Random.State.make [| seed; 99 |]) ~trials:40 q db
      in
      let e_g =
        Cqa.Montecarlo.estimate_g (Random.State.make [| seed; 99 |]) ~trials:40
          g_p
      in
      Solution_graph.equal g_p g_r
      && Cqa.Certk.run ~k g_p = Cqa.Certk.run ~k g_r
      && Cqa.Certk.derived ~k g_p = Cqa.Certk.derived ~k g_r
      && Cqa.Certk.certificate ~k g_p = Cqa.Certk.certificate ~k g_r
      && e_db.Cqa.Montecarlo.satisfying = e_g.Cqa.Montecarlo.satisfying
      && e_db.Cqa.Montecarlo.counterexample = e_g.Cqa.Montecarlo.counterexample)

let prop_pairs_compiled =
  QCheck2.Test.make ~name:"pairs_compiled enumerates exactly query_pairs"
    ~count:80 gen_case
    (fun (seed, qi) ->
      let q = catalog.(qi).Catalog.query in
      let db = db_of seed q in
      let plane = Relational.Compiled.compile db in
      let g_r = Solution_graph.of_atoms_reference q.Query.a q.Query.b db in
      Qlang.Solutions.pairs_compiled q.Query.a q.Query.b plane
      = List.map
          (fun (f1, f2) -> (Solution_graph.index g_r f1, Solution_graph.index g_r f2))
          (Qlang.Solutions.query_pairs q db))

(* [Solver.solve] and [Solver.solve_plane] are two thin wrappers over one
   degradation chain: on the same instance they must return the same outcome
   and the same (tier, algorithm, status) for every attempt. Steps are not
   compared, since [solve] charges the plane compile to the first attempt
   that forces it. The law runs twice per case: without a budget, then with a
   fresh chaos budget on each side that faults every tick at the decision
   tiers' sites, so the chain falls through to the Monte-Carlo fallback
   (unless a tier decides without ticking, as the one-atom test does) and
   both sides must return the same estimate. *)
let catalog_reports =
  lazy (Array.map (fun e -> Core.Dichotomy.classify e.Catalog.query) catalog)

let chain_estimates = ref 0

let prop_chain_wrappers_agree =
  QCheck2.Test.make ~name:"solve = solve_plane (outcome, attempts)" ~count:40
    gen_case
    (fun (seed, qi) ->
      let report = (Lazy.force catalog_reports).(qi) in
      let db = db_of seed catalog.(qi).Catalog.query in
      let shape (outcome, attempts) =
        ( outcome,
          List.map
            (fun (a : Core.Solver.attempt) ->
              (a.Core.Solver.tier, a.Core.Solver.algorithm, a.Core.Solver.status))
            attempts )
      in
      let agree ?chaos ?estimate_trials () =
        let budget () =
          Option.map
            (fun sites ->
              Harness.Budget.make
                ~chaos:(Harness.Chaos.make ~fail_p:1.0 ~sites ())
                ())
            chaos
        in
        let via_db =
          shape
            (Core.Solver.solve ?budget:(budget ()) ?estimate_trials report db)
        in
        let via_plane =
          shape
            (Core.Solver.solve_plane ?budget:(budget ()) ?estimate_trials report
               (Relational.Compiled.compile db))
        in
        (match fst via_db with
        | Harness.Outcome.Estimated _ -> incr chain_estimates
        | _ -> ());
        via_db = via_plane
      in
      agree ()
      && agree
           ~chaos:Harness.Sites.[ certk; matching; dpll; exact ]
           ~estimate_trials:50 ())

(* The chaos run must actually reach the fallback, or the estimate half of
   the law is vacuous. [check_exn] draws from a fixed seed, so the cases and
   the count are the same on every run. *)
let test_chain_wrappers_agree () =
  QCheck2.Test.check_exn prop_chain_wrappers_agree;
  if !chain_estimates = 0 then
    Alcotest.fail "no chaos run reached the estimate fallback"

(* Structural soundness of a Cert_k derivation certificate: every leaf is a
   genuine solution of the instance, every internal node covers its block,
   and each node's set is exactly what its reason derives. *)
let validate_derivation g ~k cert =
  let sorted = List.sort_uniq Int.compare in
  let rec go (c : Cqa.Certk.certificate) =
    (match c.Cqa.Certk.why with
    | Cqa.Certk.Initial (i, j) ->
        if not (List.mem (i, j) g.Solution_graph.directed) then
          Alcotest.failf "Initial (%d, %d) is not a solution" i j;
        let expected = if i = j then [ i ] else sorted [ i; j ] in
        if c.Cqa.Certk.set <> expected then
          Alcotest.failf "Initial set mismatch at (%d, %d)" i j
    | Cqa.Certk.Via_block (b, choices) ->
        let block = sorted (Array.to_list g.Solution_graph.blocks.(b)) in
        if sorted (List.map fst choices) <> block then
          Alcotest.failf "Via_block %d does not cover its block" b;
        let union =
          sorted
            (List.concat_map
               (fun (u, t) ->
                 if not (List.mem u t) then
                   Alcotest.failf "premise for fact %d does not contain it" u;
                 List.filter (fun v -> v <> u) t)
               choices)
        in
        if c.Cqa.Certk.set <> union then
          Alcotest.failf "Via_block %d derives a different set" b;
        (* Each distinct premise set must appear among the sub-certificates. *)
        List.iter
          (fun (_, t) ->
            if
              not
                (List.exists
                   (fun (p : Cqa.Certk.certificate) -> p.Cqa.Certk.set = t)
                   c.Cqa.Certk.premises)
            then Alcotest.failf "premise set missing a sub-certificate")
          choices);
    List.iter go c.Cqa.Certk.premises;
    if not (List.length c.Cqa.Certk.set <= k) then
      Alcotest.failf "certificate set exceeds k"
  in
  if cert.Cqa.Certk.set <> [] then
    Alcotest.fail "root of a yes-certificate must be the empty set";
  go cert

let test_derivation_certificates_valid () =
  let validated = ref 0 in
  List.iter
    (fun (q, db) ->
      let g = Solution_graph.of_query q db in
      List.iter
        (fun k ->
          if Cqa.Certk.run ~k g then
            match Cqa.Certk.certificate ~k g with
            | None ->
                Alcotest.failf "Cert_%d answered yes without a certificate on %s"
                  k (Query.to_string q)
            | Some cert ->
                validate_derivation g ~k cert;
                incr validated)
        [ 1; 2; 3 ])
    (instances @ catalog_instances);
  if !validated = 0 then
    Alcotest.fail "pool produced no certain instance — suite is vacuous"

let test_classification_certificates_pass_check () =
  List.iter
    (fun q ->
      let report = Core.Dichotomy.classify q in
      match Analysis.Check.audit_report report with
      | Ok () -> ()
      | Error violations ->
          Alcotest.failf "certificate for %s rejected: %s" (Query.to_string q)
            (String.concat "; " violations))
    (fixed_queries @ random_queries)

let () =
  Alcotest.run "differential"
    [
      ( "certk",
        [
          Alcotest.test_case "three-way verdict agreement" `Quick
            test_three_way_verdict_agreement;
          Alcotest.test_case "minimal antichains identical" `Quick
            test_minimal_antichains_identical;
          Alcotest.test_case "sound vs exact" `Quick test_sound_vs_exact;
          Alcotest.test_case "seed-42 pool at each case's k" `Quick
            test_seed_42_pool;
          Alcotest.test_case "cross-plane agreement" `Quick
            test_cross_plane_agreement;
          Alcotest.test_case "derivation certificates valid" `Quick
            test_derivation_certificates_valid;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_compiled_plane; prop_pairs_compiled ]
        @ [
            Alcotest.test_case "solve = solve_plane (outcome, attempts)" `Quick
              test_chain_wrappers_agree;
          ] );
      ( "artefacts",
        [
          Alcotest.test_case "classification certificates pass check" `Quick
            test_classification_certificates_pass_check;
        ] );
    ]
