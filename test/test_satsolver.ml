(* Tests for the SAT substrate: CNF representation, DPLL and the CDCL
   against brute force and each other, the 3-SAT gadget-shape normalizer and
   the DIMACS-ish parser. *)

module Budget = Harness.Budget
module Cnf = Satsolver.Cnf
module Cdcl = Satsolver.Cdcl
module Dpll = Satsolver.Dpll
module Brute = Satsolver.Brute
module Threesat = Satsolver.Threesat

let cnf n cs = Cnf.make ~n_vars:n cs

let test_cnf_validation () =
  Alcotest.(check bool) "literal out of range" true
    (try
       ignore (cnf 2 [ [ 3 ] ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "zero literal" true
    (try
       ignore (cnf 2 [ [ 0 ] ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "empty clause" true
    (try
       ignore (cnf 2 [ [] ]);
       false
     with Invalid_argument _ -> true)

let test_eval () =
  let f = cnf 2 [ [ 1; -2 ]; [ 2 ] ] in
  Alcotest.(check bool) "model" true (Cnf.eval f [| false; true; true |]);
  Alcotest.(check bool) "non-model" false (Cnf.eval f [| false; false; true |])

let test_occurrences () =
  let f = cnf 3 [ [ 1; -2 ]; [ 2; 3 ]; [ -2 ] ] in
  let occ = Cnf.occurrences f in
  Alcotest.(check int) "var 2 occurs 3 times" 3 occ.(2);
  let pol = Cnf.polarities f in
  Alcotest.(check (pair int int)) "var 2 polarity" (1, 2) pol.(2);
  Alcotest.(check (list int)) "clauses of var 3" [ 1 ] (Cnf.clauses_of_var f 3)

let test_dpll_basic () =
  Alcotest.(check bool) "verum sat" true (Dpll.is_sat Cnf.verum);
  Alcotest.(check bool) "falsum unsat" false (Dpll.is_sat Cnf.falsum);
  Alcotest.(check bool) "simple sat" true (Dpll.is_sat (cnf 2 [ [ 1; 2 ]; [ -1; 2 ] ]));
  Alcotest.(check bool) "pigeonhole-ish unsat" false
    (Dpll.is_sat (cnf 2 [ [ 1 ]; [ -1; 2 ]; [ -2 ] ]))

let test_dpll_returns_model () =
  let f = cnf 3 [ [ 1; 2; 3 ]; [ -1; -2 ]; [ -3 ] ] in
  match Dpll.solve f with
  | Dpll.Unsat -> Alcotest.fail "should be satisfiable"
  | Dpll.Sat model -> Alcotest.(check bool) "model evaluates true" true (Cnf.eval f model)

let test_brute_guard () =
  Alcotest.(check bool) "refuses large formulas" true
    (try
       ignore (Brute.is_sat (cnf 26 [ [ 1 ] ]));
       false
     with Invalid_argument _ -> true)

let test_brute_count () =
  (* x1 ∨ x2 has three models over two variables. *)
  Alcotest.(check int) "three models" 3 (Brute.count_models (cnf 2 [ [ 1; 2 ] ]))

let random_cnf_gen =
  QCheck2.Gen.(
    let* n_vars = int_range 1 8 in
    let* n_clauses = int_range 0 12 in
    let lit = map (fun (v, sign) -> if sign then v else -v) (pair (int_range 1 n_vars) bool) in
    let* clauses = list_size (return n_clauses) (list_size (int_range 1 4) lit) in
    return (Cnf.make ~n_vars clauses))

let prop_dpll_equals_brute =
  QCheck2.Test.make ~name:"DPLL agrees with exhaustive enumeration" ~count:400
    random_cnf_gen (fun f -> Dpll.is_sat f = Brute.is_sat f)

let prop_dpll_model_valid =
  QCheck2.Test.make ~name:"DPLL models satisfy the formula" ~count:400 random_cnf_gen
    (fun f -> match Dpll.solve f with Dpll.Unsat -> true | Dpll.Sat m -> Cnf.eval f m)

(* The CDCL, on its own terms and against the two reference solvers. *)

let cdcl_solve ?budget f = Cdcl.solve ?budget (Cdcl.of_cnf f)

let prop_cdcl_equals_brute =
  QCheck2.Test.make ~name:"CDCL agrees with exhaustive enumeration" ~count:400
    random_cnf_gen (fun f ->
      match cdcl_solve f with
      | Cdcl.Unsat -> not (Brute.is_sat f)
      | Cdcl.Sat m -> Brute.is_sat f && Cnf.eval f m)

(* Past Brute's guard: random 3-CNFs of 15-40 variables at clause ratios
   around the threshold 4.26, where both verdicts occur. *)
let test_cdcl_equals_dpll () =
  let rng = Random.State.make [| 4_26 |] in
  let sat = ref 0 and unsat = ref 0 in
  for i = 0 to 59 do
    let n_vars = 15 + (i mod 26) in
    let ratio = [| 3.9; 4.26; 4.6 |].(i mod 3) in
    let f =
      Threesat.random rng ~n_vars
        ~n_clauses:(int_of_float (ratio *. float_of_int n_vars))
    in
    let expected = Dpll.is_sat f in
    (match cdcl_solve f with
    | Cdcl.Unsat -> Alcotest.(check bool) "CDCL unsat = DPLL" expected false
    | Cdcl.Sat m ->
        Alcotest.(check bool) "CDCL sat = DPLL" expected true;
        Alcotest.(check bool) "CDCL model" true (Cnf.eval f m));
    incr (if expected then sat else unsat)
  done;
  Alcotest.(check bool) "both verdicts drawn" true (!sat > 0 && !unsat > 0)

let test_cdcl_add_clause () =
  let s = Cdcl.create ~n_vars:2 in
  (* A tautology is dropped, a repeated literal counts once. *)
  Cdcl.add_clause s [ 1; -1; 2 ];
  Cdcl.add_clause s [ -2; -2 ];
  Cdcl.add_clause s [ 1; 1; 2; 2 ];
  (match Cdcl.solve s with
  | Cdcl.Sat m -> Alcotest.(check (array bool)) "model" [| false; true; false |] m
  | Cdcl.Unsat -> Alcotest.fail "satisfiable");
  Alcotest.check_raises "used once"
    (Invalid_argument "Cdcl.add_clause: the solver was already used") (fun () ->
      Cdcl.add_clause s [ 1 ]);
  let s = Cdcl.create ~n_vars:1 in
  Cdcl.add_clause s [];
  Alcotest.(check bool) "empty clause" true (Cdcl.solve s = Cdcl.Unsat);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Cdcl.add_clause: literal 2 out of range") (fun () ->
      Cdcl.add_clause (Cdcl.create ~n_vars:1) [ 1; 2 ])

(* The budget reaches the CDCL: one tick on entry, one per decision, one per
   conflict, at the ["dpll"] site. *)
let test_budget_reaches_cdcl () =
  let phi =
    (* No unit clauses: the search must decide. *)
    cnf 8 [ [ 1; 2 ]; [ -1; 3 ]; [ 4; 5 ]; [ -4; 6 ]; [ 7; 8 ]; [ -7; -8 ] ]
  in
  (match cdcl_solve ~budget:(Budget.make ~max_steps:2 ()) phi with
  | _ -> Alcotest.fail "expected the step budget to run out"
  | exception Budget.Budget_exceeded Budget.Steps -> ());
  (* Decided at level 0, by a conflict and by propagation alone: the entry
     tick still meets a chaos schedule at the site. *)
  List.iter
    (fun (name, f, ticks) ->
      let chaos = Harness.Chaos.make ~fail_p:1.0 ~sites:[ Harness.Sites.dpll ] () in
      (match cdcl_solve ~budget:(Budget.make ~chaos ()) f with
      | _ -> Alcotest.fail (name ^ ": expected an injected fault")
      | exception Harness.Chaos.Injected_fault site ->
          Alcotest.(check string) (name ^ ": faulting site") Harness.Sites.dpll site);
      let b = Budget.make () in
      ignore (cdcl_solve ~budget:b f);
      Alcotest.(check (list (pair string int)))
        (name ^ ": ticks") [ (Harness.Sites.dpll, ticks) ] (Budget.steps_by_site b))
    [ ("level-0 conflict", Cnf.falsum, 2); ("level-0 model", cnf 2 [ [ 1 ]; [ -1; 2 ] ], 1) ]

let test_normalize_shapes () =
  let f = cnf 4 [ [ 1; 2; 3; 4 ]; [ -1; -2 ]; [ 1; -3 ]; [ 2; 3; -4 ]; [ -2; 4 ]; [ 1; 3 ] ] in
  match Threesat.normalize f with
  | Threesat.Decided _ -> ()
  | Threesat.Formula f' ->
      Alcotest.(check bool) "gadget shape" true (Threesat.in_gadget_shape f')

let test_normalize_preserves_sat () =
  let rng = Random.State.make [| 11 |] in
  for _ = 1 to 50 do
    let f = Threesat.random rng ~n_vars:6 ~n_clauses:10 in
    let expected = Brute.is_sat f in
    match Threesat.normalize f with
    | Threesat.Decided b -> Alcotest.(check bool) "decided correctly" expected b
    | Threesat.Formula f' ->
        Alcotest.(check bool) "equisatisfiable" expected (Dpll.is_sat f');
        Alcotest.(check bool) "gadget shape" true (Threesat.in_gadget_shape f')
  done

let test_normalize_decides_trivial () =
  (match Threesat.normalize (cnf 1 [ [ 1 ]; [ -1 ] ]) with
  | Threesat.Decided false -> ()
  | Threesat.Decided true | Threesat.Formula _ -> Alcotest.fail "expected Decided false");
  match Threesat.normalize (cnf 2 [ [ 1; 2 ] ]) with
  | Threesat.Decided true -> ()
  | Threesat.Decided false | Threesat.Formula _ ->
      (* pure literal elimination satisfies everything *)
      Alcotest.fail "expected Decided true"

let test_gadget_shape_rejects () =
  Alcotest.(check bool) "unit clause" false (Threesat.in_gadget_shape (cnf 2 [ [ 1 ]; [ -1; 2 ]; [ -2; 1 ] ]));
  Alcotest.(check bool) "repeated var in clause" false
    (Threesat.in_gadget_shape (cnf 2 [ [ 1; 1; 2 ]; [ -1; -2 ] ]));
  Alcotest.(check bool) "pure variable" false
    (Threesat.in_gadget_shape (cnf 2 [ [ 1; 2 ]; [ 1; -2 ] ]));
  Alcotest.(check bool) "four occurrences" false
    (Threesat.in_gadget_shape
       (cnf 2 [ [ 1; 2 ]; [ 1; -2 ]; [ -1; 2 ]; [ -1; -2 ] ]))

let test_chain_family () =
  List.iter
    (fun n ->
      let sat = Threesat.chain ~sat:true n in
      let unsat = Threesat.chain ~sat:false n in
      Alcotest.(check bool) "sat variant in gadget shape" true (Threesat.in_gadget_shape sat);
      Alcotest.(check bool) "unsat variant in gadget shape" true
        (Threesat.in_gadget_shape unsat);
      Alcotest.(check bool) "sat variant satisfiable" true (Dpll.is_sat sat);
      Alcotest.(check bool) "unsat variant unsatisfiable" false (Dpll.is_sat unsat))
    [ 4; 5; 8; 13 ];
  Alcotest.(check bool) "n < 4 rejected" true
    (try
       ignore (Threesat.chain ~sat:true 3);
       false
     with Invalid_argument _ -> true)

let test_parse_dimacs () =
  (match Cnf.parse "p cnf 3 2\n1 -2 0\n2 3 0\n" with
  | Error msg -> Alcotest.fail msg
  | Ok f ->
      Alcotest.(check int) "clauses" 2 (Cnf.n_clauses f);
      Alcotest.(check bool) "sat" true (Dpll.is_sat f));
  match Cnf.parse "1 2" with
  | Ok _ -> Alcotest.fail "unterminated clause"
  | Error _ -> ()

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "satsolver"
    [
      ( "cnf",
        [
          Alcotest.test_case "validation" `Quick test_cnf_validation;
          Alcotest.test_case "eval" `Quick test_eval;
          Alcotest.test_case "occurrences" `Quick test_occurrences;
          Alcotest.test_case "parse" `Quick test_parse_dimacs;
        ] );
      ( "dpll",
        [
          Alcotest.test_case "basics" `Quick test_dpll_basic;
          Alcotest.test_case "model extraction" `Quick test_dpll_returns_model;
          Alcotest.test_case "brute guard" `Quick test_brute_guard;
          Alcotest.test_case "brute count" `Quick test_brute_count;
        ]
        @ qt [ prop_dpll_equals_brute; prop_dpll_model_valid ] );
      ( "cdcl",
        [
          Alcotest.test_case "agrees with DPLL past the brute guard" `Quick
            test_cdcl_equals_dpll;
          Alcotest.test_case "add_clause dedupes and drops tautologies" `Quick
            test_cdcl_add_clause;
          Alcotest.test_case "budget reaches the CDCL" `Quick test_budget_reaches_cdcl;
        ]
        @ qt [ prop_cdcl_equals_brute ] );
      ( "threesat",
        [
          Alcotest.test_case "chain family" `Quick test_chain_family;
          Alcotest.test_case "normalize shapes" `Quick test_normalize_shapes;
          Alcotest.test_case "normalize preserves sat" `Quick test_normalize_preserves_sat;
          Alcotest.test_case "decides trivial" `Quick test_normalize_decides_trivial;
          Alcotest.test_case "gadget shape rejects" `Quick test_gadget_shape_rejects;
        ] );
    ]
