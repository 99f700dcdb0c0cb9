(* Tests for the lower-bound gadgets: the sjf reduction of Proposition 2 and
   the 3-SAT reduction of Theorem 12 (Lemma 13), validated against exact
   solvers and the SAT oracle. *)

module Parse = Qlang.Parse
module Query = Qlang.Query
module Sjf = Qlang.Sjf
module Cnf = Satsolver.Cnf
module Dpll = Satsolver.Dpll
module Threesat = Satsolver.Threesat
module Gadget = Core.Gadget
module Tripath = Core.Tripath

let q2 = Workload.Catalog.q2

let gadget =
  lazy
    (match Gadget.of_tripath Workload.Catalog.q2_nice_fork_tripath with
    | Ok g -> g
    | Error msg -> failwith msg)

(* ------------------------------------------------------------------ *)
(* Proposition 2: sjf reduction *)

let prop2_roundtrip q seed n =
  let rng = Random.State.make [| seed |] in
  let s = Sjf.of_query q in
  let ok = ref true in
  for _ = 1 to n do
    let db = Workload.Randdb.random_sjf rng s ~n_facts:10 ~domain:3 in
    let lhs = Cqa.Exact.certain_sjf s db in
    let rhs = Cqa.Exact.certain_query q (Sjf.reduce q db) in
    if lhs <> rhs then ok := false
  done;
  !ok

let test_prop2_q2 () =
  Alcotest.(check bool) "Prop 2 for q2" true (prop2_roundtrip q2 41 40)

let test_prop2_q5 () =
  Alcotest.(check bool) "Prop 2 for q5" true (prop2_roundtrip Workload.Catalog.q5 43 40)

let test_prop2_q6 () =
  Alcotest.(check bool) "Prop 2 for q6" true (prop2_roundtrip Workload.Catalog.q6 47 40)

let test_prop2_q1 () =
  Alcotest.(check bool) "Prop 2 for q1" true (prop2_roundtrip Workload.Catalog.q1 53 40)

(* ------------------------------------------------------------------ *)
(* Theorem 12 gadget *)

let test_gadget_of_tripath_rejects_triangle () =
  (* A triangle-tripath must be rejected by the gadget constructor. *)
  match Core.Tripath_search.find_triangle Workload.Catalog.q6 with
  | Core.Tripath_search.Not_found -> Alcotest.fail "q6 admits a triangle"
  | Core.Tripath_search.Found (tp, _) -> (
      match Gadget.of_tripath tp with
      | Ok _ -> Alcotest.fail "triangle accepted"
      | Error _ -> ())

let test_gadget_rejects_bad_shape () =
  let g = Lazy.force gadget in
  let phi = Cnf.make ~n_vars:2 [ [ 1 ]; [ -1; 2 ]; [ -2; 1 ] ] in
  Alcotest.(check bool) "unit clause rejected" true
    (try
       ignore (Gadget.database g phi);
       false
     with Invalid_argument _ -> true)

let test_gadget_paper_example () =
  (* The formula of Figure 2: (¬s ∨ t ∨ u)(¬s ∨ ¬t ∨ u)(s ∨ ¬t ∨ ¬u),
     satisfiable, hence q2 is not certain on the gadget database. *)
  let g = Lazy.force gadget in
  let phi = Cnf.make ~n_vars:3 [ [ -1; 2; 3 ]; [ -1; -2; 3 ]; [ 1; -2; -3 ] ] in
  Alcotest.(check bool) "gadget shape" true (Threesat.in_gadget_shape phi);
  Alcotest.(check bool) "phi is satisfiable" true (Dpll.is_sat phi);
  Alcotest.(check bool) "hence not certain" false
    (Cqa.Exact.certain_query g.Gadget.query (Gadget.database g phi))

let test_gadget_unsat_formula () =
  (* An unsatisfiable gadget-shaped formula: a cyclic implication chain
     x1 = x2 = x3 = x4 with (x1∨y)(x2∨¬y) forcing the xs true and
     (¬x3∨z)(¬x4∨¬z) forcing them false. Every variable occurs at most three
     times with both polarities and every clause has two distinct variables. *)
  let phi =
    Cnf.make ~n_vars:6
      [ [ -1; 2 ]; [ -2; 3 ]; [ -3; 4 ]; [ -4; 1 ]; [ 1; 5 ]; [ 2; -5 ]; [ -3; 6 ]; [ -4; -6 ] ]
  in
  Alcotest.(check bool) "gadget shape" true (Threesat.in_gadget_shape phi);
  Alcotest.(check bool) "phi is unsatisfiable" false (Dpll.is_sat phi);
  let g = Lazy.force gadget in
  Alcotest.(check bool) "hence certain" true
    (Cqa.Exact.certain_query g.Gadget.query (Gadget.database g phi))

let test_gadget_block_structure () =
  let g = Lazy.force gadget in
  let phi = Cnf.make ~n_vars:3 [ [ -1; 2; 3 ]; [ -1; -2; 3 ]; [ 1; -2; -3 ] ] in
  let db = Gadget.database g phi in
  (* After padding, every block has at least two facts. *)
  List.iter
    (fun b ->
      Alcotest.(check bool) "block has >= 2 facts" true (Relational.Block.size b >= 2))
    (Relational.Database.blocks db);
  (* Clause blocks: each clause contributes one block with one root per
     literal: for 3-literal clauses, 3 facts. *)
  let clause_blocks =
    List.filter (fun (b : Relational.Block.t) -> Relational.Block.size b = 3)
      (Relational.Database.blocks db)
  in
  Alcotest.(check int) "three clause blocks" 3 (List.length clause_blocks)

let test_gadget_random_equivalence () =
  (* Lemma 13 on random gadget-shaped formulas: φ satisfiable iff the gadget
     database is not certain. *)
  let g = Lazy.force gadget in
  let rng = Random.State.make [| 4242 |] in
  let tried = ref 0 in
  while !tried < 12 do
    match Workload.Randdb.hard_instance rng g ~n_vars:5 ~n_clauses:8 with
    | None -> ()
    | Some (phi, db) ->
        incr tried;
        let sat = Dpll.is_sat phi in
        let certain = Cqa.Exact.certain_query q2 db in
        Alcotest.(check bool)
          (Format.asprintf "equivalence for %a" Cnf.pp phi)
          (not sat) certain
  done

let test_gadget_scales_with_formula () =
  let g = Lazy.force gadget in
  let phi = Cnf.make ~n_vars:3 [ [ -1; 2; 3 ]; [ -1; -2; 3 ]; [ 1; -2; -3 ] ] in
  let db = Gadget.database g phi in
  (* 3 variables with 3 occurrences each: 9 tripath copies of 21 facts,
     minus merged leaf/root blocks, plus padding. Just pin the size so
     construction changes are noticed. *)
  Alcotest.(check int) "database size" 177 (Relational.Database.size db)

let test_gadget_generalises_beyond_q2 () =
  (* The construction is generic in the nice fork-tripath: run it for the
     arity-5 fork query of the catalogue. *)
  let q = (Workload.Catalog.find "fork-2").Workload.Catalog.query in
  match Gadget.create q with
  | Error msg -> Alcotest.fail msg
  | Ok g ->
      let rng = Random.State.make [| 5 |] in
      let checked = ref 0 in
      while !checked < 5 do
        match Workload.Randdb.hard_instance rng g ~n_vars:4 ~n_clauses:6 with
        | None -> ()
        | Some (phi, db) ->
            incr checked;
            Alcotest.(check bool) "Lemma 13 for fork-2"
              (not (Dpll.is_sat phi))
              (Cqa.Exact.certain_query q db)
      done

let () =
  Alcotest.run "gadget"
    [
      ( "prop2",
        [
          Alcotest.test_case "q2" `Slow test_prop2_q2;
          Alcotest.test_case "q5" `Slow test_prop2_q5;
          Alcotest.test_case "q6" `Slow test_prop2_q6;
          Alcotest.test_case "q1" `Slow test_prop2_q1;
        ] );
      ( "thm12",
        [
          Alcotest.test_case "rejects triangle" `Slow test_gadget_of_tripath_rejects_triangle;
          Alcotest.test_case "rejects bad shape" `Quick test_gadget_rejects_bad_shape;
          Alcotest.test_case "paper example" `Quick test_gadget_paper_example;
          Alcotest.test_case "unsat formula" `Quick test_gadget_unsat_formula;
          Alcotest.test_case "block structure" `Quick test_gadget_block_structure;
          Alcotest.test_case "random equivalence" `Slow test_gadget_random_equivalence;
          Alcotest.test_case "size pinned" `Quick test_gadget_scales_with_formula;
          Alcotest.test_case "generalises beyond q2" `Slow test_gadget_generalises_beyond_q2;
        ] );
    ]
