(* The incremental-maintenance law: patching a compiled plane with a delta
   must be observationally identical to recompiling the persistently updated
   database — plane structure, solution graph, Cert_k verdict and minimal
   antichain, the frozen Certk_rounds oracle, and the static sanitizer all
   agree. Exercised as a qcheck property over random databases and delta
   traces for the catalogue queries, plus directed edge cases (net no-ops,
   the budget charge, emptying retractions, undeclared-relation retracts)
   and a chaos case showing a fault in mid-patch leaves the pre-delta plane
   intact (copy-on-patch). *)

module Compiled = Relational.Compiled
module Database = Relational.Database
module Delta = Relational.Delta
module Fact = Relational.Fact
module SG = Qlang.Solution_graph
module Randdb = Workload.Randdb
module Catalog = Workload.Catalog

let entries =
  [ ("q3", Catalog.q3, 2); ("q5", Catalog.q5, 2); ("q6", Catalog.q6, 3) ]

let check_equivalent ~name q ~k db delta =
  let base_plane = Compiled.compile db in
  let new_db = Delta.apply db delta in
  let patched = Compiled.apply_delta base_plane delta in
  let graph = SG.of_query_compiled q patched in
  let fresh_graph = SG.of_query_compiled q (Compiled.compile new_db) in
  (* Plane-level: the patched plane decompiles to the updated database, and
     the graph rebuilt on it equals the graph of a fresh compile. *)
  Alcotest.(check bool)
    (name ^ ": patched plane decompiles to updated db")
    true
    (Database.equal (Compiled.decompile patched) new_db);
  Alcotest.(check bool)
    (name ^ ": patched graph structurally equals fresh graph")
    true
    (SG.equal graph fresh_graph);
  (* Solver-level: the verdict and antichain on the patched plane match a
     from-scratch run and the frozen rounds oracle. *)
  let verdict = Cqa.Certk.run ~k graph in
  Alcotest.(check bool)
    (name ^ ": patched verdict = fresh Certk verdict")
    (Cqa.Certk.run ~k fresh_graph)
    verdict;
  Alcotest.(check bool)
    (name ^ ": patched verdict = Certk_rounds verdict")
    (Cqa.Certk_rounds.run ~k fresh_graph)
    verdict;
  Alcotest.(check bool)
    (name ^ ": patched minimal antichain = fresh antichain")
    true
    (Cqa.Certk.derived ~k graph = Cqa.Certk.derived ~k fresh_graph);
  (* Analyzer-level: the patched plane passes the full sanitizer and the
     PL109 delta-image check. *)
  let codes = List.map (fun (d : Analysis.Lint.diagnostic) -> d.Analysis.Lint.code) in
  Alcotest.(check (list Alcotest.string))
    (name ^ ": sanitizer clean on patched plane")
    []
    (codes (Analysis.Sanitize.run ~query:q patched));
  Alcotest.(check (list Alcotest.string))
    (name ^ ": delta-image check clean")
    []
    (codes (Analysis.Sanitize.check_delta ~before:base_plane ~delta patched))

(* One qcheck cell per catalogue entry, each trial a fresh database and a
   delta trace of random length (1-8 ops, so both single-fact updates and
   batches are covered). *)
let law_tests =
  List.map
    (fun (name, q, k) ->
      QCheck.Test.make
        ~name:(Printf.sprintf "apply_delta = recompile (%s)" name)
        ~count:60
        QCheck.(pair small_nat small_nat)
        (fun (seed, len_seed) ->
          let rng = Random.State.make [| 77; seed; len_seed |] in
          let n = 10 + Random.State.int rng 50 in
          let domain = max 2 (n / 4) in
          let db = Randdb.random_for_query rng q ~n_facts:n ~domain in
          let len = 1 + (len_seed mod 8) in
          let delta = Randdb.random_delta rng q db ~domain ~len in
          check_equivalent ~name q ~k db delta;
          true))
    entries

(* Net no-op traces around a present fact [f]: empty, redundant insert,
   retract-then-reinsert. *)
let noop_traces f =
  [
    ("empty", []);
    ("redundant insert", [ Delta.Insert f ]);
    ("toggle", [ Delta.Retract f; Delta.Insert f ]);
  ]

let test_noop_delta () =
  let rng = Random.State.make [| 5 |] in
  let q = Catalog.q3 in
  let db = Randdb.random_for_query rng q ~n_facts:30 ~domain:6 in
  let plane = Compiled.compile db in
  List.iter
    (fun (label, delta) ->
      Alcotest.(check bool)
        (label ^ ": net no-op returns the input plane itself")
        true
        (Compiled.apply_delta plane delta == plane))
    (noop_traces (List.hd (Database.facts db)))

(* The budget charge the daemon's update op pays: one tick per net insert
   and one per net retract, none for the survivors moved around them, and
   none at all (with the input plane returned itself) for a net no-op. *)
let test_tick_charge () =
  let rng = Random.State.make [| 10 |] in
  let q = Catalog.q3 in
  let db = Randdb.random_for_query rng q ~n_facts:1600 ~domain:6400 in
  let plane = Compiled.compile db in
  let patch delta =
    let ticks = ref 0 in
    let p = Compiled.apply_delta ~tick:(fun () -> incr ticks) plane delta in
    (!ticks, p)
  in
  let f = List.hd (Database.facts db) in
  let absent =
    Fact.make q.Qlang.Query.schema.Relational.Schema.name
      Relational.Value.[ Int (-1); Int (-1) ]
  in
  Alcotest.(check bool) "absent fact is absent" false
    (Fact.Set.mem absent (Database.fact_set db));
  let ticks, p = patch [ Delta.Insert absent; Delta.Retract f ] in
  Alcotest.(check int) "fresh insert + present retract: 2 ticks" 2 ticks;
  Alcotest.(check int) "patched plane keeps its size" (Compiled.n_facts plane)
    (Compiled.n_facts p);
  List.iter
    (fun (label, delta) ->
      let ticks, p = patch delta in
      Alcotest.(check int) (label ^ ": 0 ticks") 0 ticks;
      Alcotest.(check bool) (label ^ ": returns the input plane itself") true
        (p == plane))
    (noop_traces f @ [ ("absent retract", [ Delta.Retract absent ]) ])

let test_retract_all () =
  let rng = Random.State.make [| 6 |] in
  List.iter
    (fun (name, q, k) ->
      let db = Randdb.random_for_query rng q ~n_facts:20 ~domain:4 in
      let delta = List.map (fun f -> Delta.Retract f) (Database.facts db) in
      check_equivalent ~name:(name ^ "/retract-all") q ~k db delta;
      let plane = Compiled.compile db in
      Alcotest.(check int)
        (name ^ ": emptied plane has no facts")
        0
        (Compiled.n_facts (Compiled.apply_delta plane delta)))
    entries

let test_undeclared_retract () =
  (* Retracting a fact of a relation the database never declared is a
     membership no-op persistently, so the plane side must treat it the
     same way rather than raise. *)
  let rng = Random.State.make [| 7 |] in
  let q = Catalog.q3 in
  let db = Randdb.random_for_query rng q ~n_facts:20 ~domain:4 in
  let ghost = Fact.make "NoSuchRel" [ Relational.Value.Int 1 ] in
  check_equivalent ~name:"undeclared-retract" q ~k:2 db [ Delta.Retract ghost ]

let test_bad_insert_raises () =
  let rng = Random.State.make [| 8 |] in
  let q = Catalog.q3 in
  let db = Randdb.random_for_query rng q ~n_facts:10 ~domain:4 in
  let plane = Compiled.compile db in
  let ghost = Fact.make "NoSuchRel" [ Relational.Value.Int 1 ] in
  Alcotest.check_raises "undeclared insert raises like Database.add"
    (Invalid_argument "Database: undeclared relation NoSuchRel")
    (fun () -> ignore (Compiled.apply_delta plane [ Delta.Insert ghost ]))

(* [Sanitize.gate] allocates a bounded number of minor words whatever the
   plane's size: on a 300-fact and a 1,600-fact q3 plane (ingest-update's
   inline-read and resident shapes) at most 64 each, so its key
   comparison allocates nothing per fact (a closure per call cost 12
   words per fact). *)
let test_gate_allocation () =
  List.iter
    (fun (n, domain) ->
      let db =
        Randdb.random_for_query (Random.State.make [| 42; n |]) Catalog.q3 ~n_facts:n ~domain
      in
      let plane = Compiled.compile db in
      Alcotest.(check bool) "gate accepts" true (Result.is_ok (Analysis.Sanitize.gate plane));
      let before = Gc.minor_words () in
      let verdict = Analysis.Sanitize.gate plane in
      let words = Gc.minor_words () -. before in
      Alcotest.(check bool) "gate accepts again" true (Result.is_ok verdict);
      if words > 64. then
        Alcotest.failf "gate on %d facts allocated %.0f minor words" (Compiled.n_facts plane)
          words)
    [ (300, 300); (1600, 6400) ]

(* A patch keeps the plane's [adom] when it interns nothing (a retract, or
   an insert of values already interned) and builds a fresh one, as long
   as the grown interner, when it does; the gate accepts all three. *)
let test_adom_reuse () =
  let q = Catalog.q3 in
  let db = Randdb.random_for_query (Random.State.make [| 11 |]) q ~n_facts:200 ~domain:50 in
  let plane = Compiled.compile db in
  let facts = Database.facts db in
  let r = q.Qlang.Query.schema.Relational.Schema.name in
  let known = List.map (fun f -> f.Fact.tuple.(0)) facts in
  let a = List.hd known in
  let b =
    List.find
      (fun v -> not (Fact.Set.mem (Fact.make r [ a; v ]) (Database.fact_set db)))
      known
  in
  let fresh = Relational.Value.Int (-1) in
  Alcotest.(check bool) "fresh value is not interned" true (Compiled.find_value plane fresh = None);
  let gate label p =
    Alcotest.(check bool) (label ^ ": gate accepts") true (Result.is_ok (Analysis.Sanitize.gate p))
  in
  let retracted = Compiled.apply_delta plane [ Delta.Retract (List.nth facts 100) ] in
  Alcotest.(check bool) "retract keeps adom" true
    (retracted.Compiled.adom == plane.Compiled.adom);
  gate "retract" retracted;
  let known_insert = Compiled.apply_delta plane [ Delta.Insert (Fact.make r [ a; b ]) ] in
  Alcotest.(check int) "known insert adds a fact" (Compiled.n_facts plane + 1)
    (Compiled.n_facts known_insert);
  Alcotest.(check bool) "known insert keeps adom" true
    (known_insert.Compiled.adom == plane.Compiled.adom);
  gate "known insert" known_insert;
  let new_insert = Compiled.apply_delta plane [ Delta.Insert (Fact.make r [ a; fresh ]) ] in
  Alcotest.(check bool) "new value gets a fresh adom" false
    (new_insert.Compiled.adom == plane.Compiled.adom);
  Alcotest.(check int) "one entry per interned value" (Compiled.n_values new_insert)
    (Array.length new_insert.Compiled.adom);
  Alcotest.(check int) "the interner grew by one" (Compiled.n_values plane + 1)
    (Compiled.n_values new_insert);
  gate "new-value insert" new_insert

(* Copy-on-patch: a fault raised from the tick callback mid-patch must
   leave the pre-delta plane fully intact — same decompiled database, same
   verdict, clean sanitizer — because apply_delta never mutates its input. *)
let test_fault_mid_patch () =
  let rng = Random.State.make [| 9 |] in
  List.iter
    (fun (name, q, k) ->
      let db = Randdb.random_for_query rng q ~n_facts:25 ~domain:5 in
      let plane = Compiled.compile db in
      let before_verdict = Cqa.Certk.run ~k (SG.of_query_compiled q plane) in
      let delta =
        [
          Delta.Insert
            (List.hd
               (Database.facts (Randdb.random_for_query rng q ~n_facts:1 ~domain:5)));
          Delta.Retract (List.hd (Database.facts db));
        ]
      in
      (* Raise on every tick threshold the patch can reach: whatever stage
         the fault interrupts, the old plane must survive. *)
      for fuel = 0 to 2 do
        let calls = ref 0 in
        let tick () =
          incr calls;
          if !calls > fuel then failwith "chaos: tick fault"
        in
        (match Compiled.apply_delta ~tick plane delta with
        | (_ : Compiled.t) -> ()
        | exception Failure _ -> ());
        Alcotest.(check bool)
          (Printf.sprintf "%s: old plane decompiles unchanged (fuel %d)" name fuel)
          true
          (Database.equal (Compiled.decompile plane) db);
        Alcotest.(check (list Alcotest.string))
          (Printf.sprintf "%s: old plane still sanitizes (fuel %d)" name fuel)
          []
          (List.map
             (fun (d : Analysis.Lint.diagnostic) -> d.Analysis.Lint.code)
             (Analysis.Sanitize.run ~query:q plane));
        Alcotest.(check bool)
          (Printf.sprintf "%s: old verdict unchanged (fuel %d)" name fuel)
          before_verdict
          (Cqa.Certk.run ~k (SG.of_query_compiled q plane))
      done)
    entries

let () =
  Alcotest.run "delta"
    [
      ( "law",
        List.map (QCheck_alcotest.to_alcotest ~long:false) law_tests );
      ( "edge",
        [
          Alcotest.test_case "net no-op deltas" `Quick test_noop_delta;
          Alcotest.test_case "apply_delta budget charge" `Quick
            test_tick_charge;
          Alcotest.test_case "retract everything" `Quick test_retract_all;
          Alcotest.test_case "undeclared-relation retract" `Quick
            test_undeclared_retract;
          Alcotest.test_case "undeclared insert raises" `Quick
            test_bad_insert_raises;
          Alcotest.test_case "gate allocation bound" `Quick test_gate_allocation;
          Alcotest.test_case "adom kept when nothing is interned" `Quick
            test_adom_reuse;
        ] );
      ( "chaos",
        [ Alcotest.test_case "fault mid-patch" `Quick test_fault_mid_patch ]
      );
    ]
