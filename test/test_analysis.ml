(* The certificate audit story (static-analysis PR):

   - every catalogue classification emits a certificate the independent
     checker validates;
   - the checker is not vacuous: every single-field falsifying mutation of
     every catalogue certificate is rejected (a mutation-testing pass over
     the checker itself);
   - the solver's certificate gate degrades to the SAT tier when handed a
     tampered certificate, and still answers correctly;
   - the linter produces the documented codes, severities and positions. *)

module Query = Qlang.Query
module Atom = Qlang.Atom
module Term = Qlang.Term
module Parse = Qlang.Parse
module Fact = Relational.Fact
module Value = Relational.Value
module Cert = Core.Certificate
module Tripath = Core.Tripath
module Check = Analysis.Check
module Lint = Analysis.Lint

let catalogue_reports =
  List.map
    (fun (e : Workload.Catalog.entry) ->
      (e.Workload.Catalog.name, e.Workload.Catalog.query,
       Core.Dichotomy.classify e.Workload.Catalog.query))
    Workload.Catalog.all

(* ------------------------------------------------------------------ *)
(* Acceptance: the checker validates every certificate the classifier
   emits, and the licensed class matches the verdict. *)

let test_catalogue_certificates_accepted () =
  List.iter
    (fun (name, q, (r : Core.Dichotomy.report)) ->
      (match Check.check q r.Core.Dichotomy.certificate with
      | Error errors ->
          Alcotest.failf "%s: certificate rejected: %s" name
            (String.concat "; " errors)
      | Ok cls ->
          let expected =
            match r.Core.Dichotomy.verdict with
            | Core.Dichotomy.Ptime _ -> Check.Ptime
            | Core.Dichotomy.Conp_complete _ -> Check.Conp_complete
          in
          if cls <> expected then
            Alcotest.failf "%s: certificate licenses %s, verdict says %s" name
              (Check.verdict_class_to_string cls)
              (Check.verdict_class_to_string expected));
      match Check.audit_report r with
      | Ok () -> ()
      | Error errors ->
          Alcotest.failf "%s: report audit failed: %s" name
            (String.concat "; " errors))
    catalogue_reports

let test_catalogue_covers_every_kind () =
  (* The mutation pass below is only meaningful if the catalogue exercises
     every certificate shape. *)
  let kinds =
    List.map
      (fun (_, _, (r : Core.Dichotomy.report)) ->
        Cert.kind_name r.Core.Dichotomy.certificate)
      catalogue_reports
    |> List.sort_uniq String.compare
  in
  List.iter
    (fun k ->
      if not (List.mem k kinds) then
        Alcotest.failf "no catalogue query emits a %s certificate" k)
    [
      "trivial"; "thm3-hard"; "thm4-ptime"; "fork-hard"; "triangle-ptime";
      "no-tripath-ptime";
    ]

(* ------------------------------------------------------------------ *)
(* Mutation testing the checker. Every generated mutant differs from the
   genuine certificate in a single field and makes a FALSE claim (mutations
   that happen to state a different-but-true derivation are filtered out);
   the checker must reject all of them. *)

let flip_inclusions (inc : Cert.inclusions) =
  [
    { inc with Cert.shared_in_key_a = not inc.Cert.shared_in_key_a };
    { inc with Cert.shared_in_key_b = not inc.Cert.shared_in_key_b };
    { inc with Cert.key_a_in_key_b = not inc.Cert.key_a_in_key_b };
    { inc with Cert.key_b_in_key_a = not inc.Cert.key_b_in_key_a };
    { inc with Cert.key_a_in_vars_b = not inc.Cert.key_a_in_vars_b };
    { inc with Cert.key_b_in_vars_a = not inc.Cert.key_b_in_vars_a };
  ]

let bump_bounds (b : Cert.bounds) =
  [
    { b with Cert.max_spine = b.Cert.max_spine + 1 };
    { b with Cert.max_arm = b.Cert.max_arm + 1 };
    { b with Cert.max_merges = b.Cert.max_merges + 1 };
    { b with Cert.max_candidates = b.Cert.max_candidates + 1 };
  ]

let orientation_holds (inc : Cert.inclusions) = function
  | Cert.Key_a_in_key_b -> inc.Cert.key_a_in_key_b
  | Cert.Key_b_in_key_a -> inc.Cert.key_b_in_key_a
  | Cert.Shared_in_key_b -> inc.Cert.shared_in_key_b
  | Cert.Shared_in_key_a -> inc.Cert.shared_in_key_a

(* Truth of a triviality claim, for filtering mutated claims (same logic as
   the checker; a test-local copy so the filter is explicit). *)
let hom_fixing_shared ~from ~into =
  match Atom.homomorphism ~from ~into with
  | None -> false
  | Some h ->
      Term.Var_set.for_all
        (fun v ->
          match Term.Var_map.find_opt v h with
          | None -> true
          | Some t -> Term.equal t (Term.Var v))
        (Term.Var_set.inter (Atom.vars from) (Atom.vars into))

let triviality_holds (q : Query.t) = function
  | Query.Hom_a_to_b -> hom_fixing_shared ~from:q.Query.a ~into:q.Query.b
  | Query.Hom_b_to_a -> hom_fixing_shared ~from:q.Query.b ~into:q.Query.a
  | Query.Equal_key_tuples ->
      List.for_all2 Term.equal
        (Atom.key_tuple q.Query.schema q.Query.a)
        (Atom.key_tuple q.Query.schema q.Query.b)

(* A domain element that occurs in no generated tripath: splicing it into a
   key makes the surrounding solution conditions unsatisfiable. *)
let fresh_element = Value.tag "mutation" (Value.int 0)

let tamper_fact f =
  Fact.make f.Fact.rel
    (fresh_element :: List.tl (Array.to_list f.Fact.tuple))

let tamper_tripath q (tp : Tripath.t) =
  [
    { tp with Tripath.root = tp.Tripath.leaf1 };
    {
      tp with
      Tripath.center =
        { Tripath.fa = tp.Tripath.center.Tripath.fb; fb = tp.Tripath.center.Tripath.fb };
    };
    { tp with Tripath.root = tamper_fact tp.Tripath.root };
    { tp with Tripath.leaf1 = tamper_fact tp.Tripath.leaf1 };
    { tp with Tripath.leaf2 = tamper_fact tp.Tripath.leaf2 };
  ]
  @
  if Query.equal (Query.swap q) q then []
  else [ { tp with Tripath.query = Query.swap q } ]

let default_bounds = Cert.bounds_of_options Core.Tripath_search.default_options

let mutants q cert =
  match cert with
  | Cert.Trivial t ->
      (* A hardness claim for a trivial query, plus triviality reasons that
         do not hold. *)
      Cert.Thm3_hard (Cert.inclusions_of q)
      :: (List.filter
            (fun t' -> t' <> t && not (triviality_holds q t'))
            [ Query.Hom_a_to_b; Query.Hom_b_to_a; Query.Equal_key_tuples ]
         |> List.map (fun t' -> Cert.Trivial t'))
  | Cert.Thm3_hard inc ->
      (* Condition (1) holds, so no Theorem 4 orientation can. *)
      Cert.Thm4_ptime (inc, Cert.Key_a_in_key_b)
      :: List.map (fun i -> Cert.Thm3_hard i) (flip_inclusions inc)
  | Cert.Thm4_ptime (inc, o) ->
      (Cert.Thm3_hard inc
      :: List.map (fun i -> Cert.Thm4_ptime (i, o)) (flip_inclusions inc))
      @ (List.filter
           (fun o' -> o' <> o && not (orientation_holds inc o'))
           [
             Cert.Key_a_in_key_b; Cert.Key_b_in_key_a; Cert.Shared_in_key_b;
             Cert.Shared_in_key_a;
           ]
        |> List.map (fun o' -> Cert.Thm4_ptime (inc, o')))
  | Cert.Fork_hard (inc, tp) ->
      (* A fork witness relabelled as a triangle, flipped inclusion atoms,
         and tampered witnesses. *)
      (Cert.Triangle_ptime (inc, tp, default_bounds)
      :: List.map (fun i -> Cert.Fork_hard (i, tp)) (flip_inclusions inc))
      @ List.map (fun tp' -> Cert.Fork_hard (inc, tp')) (tamper_tripath q tp)
  | Cert.Triangle_ptime (inc, tp, b) ->
      (Cert.Fork_hard (inc, tp)
      :: List.map (fun i -> Cert.Triangle_ptime (i, tp, b)) (flip_inclusions inc))
      @ List.map (fun tp' -> Cert.Triangle_ptime (inc, tp', b)) (tamper_tripath q tp)
      @ List.map (fun b' -> Cert.Triangle_ptime (inc, tp, b')) (bump_bounds b)
  | Cert.No_tripath_ptime (inc, b) ->
      (* 2way-determined means condition (2) fails, so Theorem 3 cannot
         apply. *)
      (Cert.Thm3_hard inc
      :: List.map (fun i -> Cert.No_tripath_ptime (i, b)) (flip_inclusions inc))
      @ List.map (fun b' -> Cert.No_tripath_ptime (inc, b')) (bump_bounds b)

let test_all_mutants_rejected () =
  let total = ref 0 in
  List.iter
    (fun (name, q, (r : Core.Dichotomy.report)) ->
      List.iter
        (fun mutant ->
          incr total;
          match Check.check q mutant with
          | Error _ -> ()
          | Ok _ ->
              Alcotest.failf "%s: mutant %s certificate accepted (%a)" name
                (Cert.kind_name mutant) Cert.pp mutant)
        (mutants q r.Core.Dichotomy.certificate))
    catalogue_reports;
  (* Guard against the generator silently producing nothing. *)
  if !total < 100 then
    Alcotest.failf "mutation pass exercised only %d mutants" !total

let test_tampered_report_flags_rejected () =
  List.iter
    (fun (name, _, (r : Core.Dichotomy.report)) ->
      let tampered =
        [
          {
            r with
            Core.Dichotomy.two_way_determined =
              not r.Core.Dichotomy.two_way_determined;
          };
          { r with Core.Dichotomy.bounded_search = not r.Core.Dichotomy.bounded_search };
        ]
      in
      List.iter
        (fun r' ->
          match Check.audit_report r' with
          | Error _ -> ()
          | Ok () -> Alcotest.failf "%s: tampered report flags accepted" name)
        tampered)
    catalogue_reports

(* ------------------------------------------------------------------ *)
(* The solver gate: a tampered certificate fails the PTIME tier, the chain
   degrades to the SAT tier and still answers. *)

let test_solver_gate_degrades_on_tampered_certificate () =
  let q = Workload.Catalog.q3 in
  let report = Core.Dichotomy.classify q in
  let tampered =
    (* Claim Theorem 3 hardness for a Theorem 4 query. *)
    {
      report with
      Core.Dichotomy.certificate =
        Cert.Thm3_hard (Cert.inclusions_of q);
    }
  in
  let db =
    Qlang.Parse.database_exn "R(1 | 2)\nR(2 | 3)\nR(2 | 4)\nR(3 | 3)"
  in
  let check r = Check.audit_report r in
  (* Genuine certificate: the PTIME tier passes the gate and decides. *)
  (match Core.Solver.solve ~check_certificate:check report db with
  | Harness.Outcome.Decided (_, Core.Solver.Alg_cert2), _ -> ()
  | _ -> Alcotest.fail "gated PTIME tier should decide with a genuine certificate");
  (* Tampered certificate: the PTIME tier fails, the SAT tier decides. *)
  match Core.Solver.solve ~check_certificate:check tampered db with
  | Harness.Outcome.Decided (answer, alg), attempts ->
      let expected = Cqa.Exact.certain_query q db in
      if answer <> expected then
        Alcotest.failf "degraded answer %b disagrees with exact %b" answer expected;
      (match alg with
      | Core.Solver.Alg_cert2 ->
          Alcotest.fail "tampered certificate must not reach the PTIME algorithm"
      | _ -> ());
      let ptime_failed =
        List.exists
          (fun (a : Core.Solver.attempt) ->
            a.Core.Solver.tier = Core.Solver.Tier_ptime
            &&
            match a.Core.Solver.status with
            | Core.Solver.Attempt_failed msg ->
                (* The failure must name the gate, not some other fault. *)
                String.length msg >= 20
                && String.sub msg 0 20 = "certificate rejected"
            | _ -> false)
          attempts
      in
      if not ptime_failed then
        Alcotest.fail "attempt trace does not record the certificate rejection"
  | outcome, _ ->
      Alcotest.failf "chain did not decide: %a"
        (Harness.Outcome.pp
           (fun ppf (b, a) ->
             Format.fprintf ppf "%b via %a" b Core.Solver.pp_algorithm a)
           (fun ppf (_ : Cqa.Montecarlo.estimate) ->
             Format.pp_print_string ppf "estimate"))
        outcome

(* ------------------------------------------------------------------ *)
(* Linter. *)

let codes ds = List.map (fun d -> d.Lint.code) ds |> List.sort_uniq String.compare
let lint_source src = Lint.lint_spanned (Parse.query_spanned src)

let test_lint_codes () =
  let check_codes src expected =
    let got = codes (lint_source src) in
    if got <> List.sort_uniq String.compare expected then
      Alcotest.failf "lint %S: got [%s], expected [%s]" src
        (String.concat "; " got)
        (String.concat "; " expected)
  in
  check_codes "R(x | %) R(x | y)" [ "QL000" ];
  check_codes "R(x | y) S(y | z)" [ "QL003" ];
  (* q3: x and z occur once; Theorem 4 verdict carries no caveat. *)
  check_codes "R(x | y) R(y | z)" [ "QL001" ];
  (* Constant in a key position. *)
  check_codes "R(5 | x y) R(x | y 5)" [ "QL002" ];
  (* Identical atoms are both QL006 and trivially PTIME. *)
  check_codes "R(x | y) R(x | y)" [ "QL005"; "QL006" ];
  (* q6 (clique query): verdict relies on bounded tripath search. *)
  check_codes "R(x | y z) R(z | x y)" [ "QL004" ];
  (* q5: no tripath within bounds, and u occurs once. *)
  check_codes "R(x | y x) R(y | x u)" [ "QL001"; "QL004" ];
  (* q1: Theorem 3 hardness note. *)
  check_codes "R(x u | x v) R(v y | u y)" [ "QL007" ];
  (* q2: fork-tripath hardness plus a singleton variable. *)
  check_codes "R(x u | x y) R(u y | x z)" [ "QL001"; "QL007" ]

let test_lint_positions_and_severities () =
  match lint_source "R(x u | x y) R(u y | x z)" with
  | ds -> (
      let ql001 = List.filter (fun d -> d.Lint.code = "QL001") ds in
      match ql001 with
      | [ d ] -> (
          if d.Lint.severity <> Lint.Warning then
            Alcotest.fail "QL001 must be a warning";
          match d.Lint.position with
          | Some { Parse.line = 1; col = 24 } -> ()
          | Some p ->
              Alcotest.failf "QL001 anchored at %d:%d, expected 1:24" p.Parse.line
                p.Parse.col
          | None -> Alcotest.fail "QL001 lost its position")
      | _ -> Alcotest.failf "expected exactly one QL001, got %d" (List.length ql001))

let test_lint_exit_severity () =
  let sev src = Lint.max_severity (lint_source src) in
  (match sev "R(x | y z) R(z | x y)" with
  | Some Lint.Info -> ()
  | _ -> Alcotest.fail "clean bounded-search query should cap at info");
  (match sev "R(x | y) R(y | z)" with
  | Some Lint.Warning -> ()
  | _ -> Alcotest.fail "singleton variables should cap at warning");
  match sev "R(x | y) S(y | z)" with
  | Some Lint.Error -> ()
  | _ -> Alcotest.fail "a self-join mismatch should be an error"

(* ------------------------------------------------------------------ *)
(* JSON emitter. *)

let test_json_rendering () =
  let open Analysis.Json in
  Alcotest.(check string)
    "escaping" "{\"k\\\"ey\": \"a\\\\b\\nc\", \"n\": [1, true, null]}"
    (to_string
       (Obj [ ("k\"ey", String "a\\b\nc"); ("n", List [ Int 1; Bool true; Null ]) ]));
  (* The report encoder keeps the documented stable field names. *)
  let r = Core.Dichotomy.classify Workload.Catalog.q5 in
  let rendered =
    to_string
      (Analysis.Encode.report ~check:(Check.check Workload.Catalog.q5 r.Core.Dichotomy.certificate) r)
  in
  List.iter
    (fun needle ->
      let found =
        let nl = String.length needle and rl = String.length rendered in
        let rec at i = i + nl <= rl && (String.sub rendered i nl = needle || at (i + 1)) in
        at 0
      in
      if not found then
        Alcotest.failf "JSON report misses %S: %s" needle rendered)
    [
      "\"class\": \"ptime\"";
      "\"kind\": \"no-tripath-ptime\"";
      "\"bounds\"";
      "\"certificate_check\": {\"ok\": true";
      "\"max_candidates\": 200000";
    ]

(* ------------------------------------------------------------------ *)
(* JSON parser. *)

let test_json_parser () =
  let open Analysis.Json in
  let ok s expected =
    match of_string s with
    | Ok v when v = expected -> ()
    | Ok v -> Alcotest.failf "parse %S: got %s" s (to_string v)
    | Error e -> Alcotest.failf "parse %S failed: %s" s e
  in
  ok "null" Null;
  ok " true " (Bool true);
  ok "-42" (Int (-42));
  ok "3.25" (Float 3.25);
  ok "1e3" (Float 1000.);
  ok "[]" (List []);
  ok "{}" (Obj []);
  ok "[1, 2.5, \"x\", null]" (List [ Int 1; Float 2.5; String "x"; Null ]);
  ok "{\"a\": {\"b\": [true, false]}}"
    (Obj [ ("a", Obj [ ("b", List [ Bool true; Bool false ]) ]) ]);
  ok "\"a\\u0041\\n\"" (String "aA\n");
  (* Surrogate pair: U+1F600 encodes as 4 UTF-8 bytes. *)
  ok "\"\\ud83d\\ude00\"" (String "\xf0\x9f\x98\x80");
  List.iter
    (fun s ->
      match of_string s with
      | Ok v -> Alcotest.failf "parse %S should fail, got %s" s (to_string v)
      | Error _ -> ())
    [ ""; "tru"; "[1,]"; "{\"a\" 1}"; "1 2"; "\"unterminated"; "01x"; "\"\\ud83d\"" ]

let prop_json_round_trip =
  let open Analysis.Json in
  let gen =
    QCheck2.Gen.(
      sized
      @@ fix (fun self n ->
             let leaf =
               oneof
                 [
                   return Null;
                   map (fun b -> Bool b) bool;
                   map (fun i -> Int i) int;
                   map (fun f -> Float f) (float_range (-1e9) 1e9);
                   map (fun s -> String s) (string_size (int_range 0 8));
                 ]
             in
             if n <= 0 then leaf
             else
               oneof
                 [
                   leaf;
                   map (fun l -> List l) (list_size (int_range 0 4) (self (n / 2)));
                   map
                     (fun l -> Obj l)
                     (list_size (int_range 0 4)
                        (pair (string_size (int_range 0 6)) (self (n / 2))));
                 ]))
  in
  QCheck2.Test.make ~name:"pp/of_string round-trip" ~count:300 gen (fun v ->
      match of_string (to_string v) with Ok v' -> v = v' | Error _ -> false)

(* The float printer's oracle: the shortest precision that reads back,
   scanned from 1 digit upward. *)
let scan_float_repr f =
  if not (Float.is_finite f) then "null"
  else
    let rec try_prec p =
      if p > 17 then Printf.sprintf "%.17g" f
      else
        let s = Printf.sprintf "%.*g" p f in
        if float_of_string s = f then s else try_prec (p + 1)
    in
    let s = try_prec 1 in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s else s ^ ".0"

let printed f = Analysis.Json.to_string (Analysis.Json.Float f)

(* Every power of two and its two neighbours, both signs. Eight powers of
   two (2^-645, 2^149, ...) read back at 15 digits but not at 16, so a
   printer that assumes read-back is monotone in the precision can differ
   from the scan there. *)
let test_json_float_binade_edges () =
  for k = -1074 to 1023 do
    let edge = Float.ldexp 1.0 k in
    List.iter
      (fun f ->
        Alcotest.(check string) (Printf.sprintf "%h" f) (scan_float_repr f) (printed f))
      [ edge; Float.pred edge; Float.succ edge; -.edge; -.Float.pred edge; -.Float.succ edge ]
  done

let prop_json_float_scan =
  let gen =
    QCheck2.Gen.(
      oneof
        [
          (* random bit patterns, non-finite ones included *)
          map Int64.float_of_bits int64;
          (* binade edges and their neighbours *)
          map2
            (fun k step ->
              let edge = Float.ldexp 1.0 k in
              match step with 0 -> edge | 1 -> Float.pred edge | _ -> Float.succ edge)
            (int_range (-1074) 1023) (int_range 0 2);
          (* t_s-like: seconds since start, on a monotone clock *)
          float_range 0. 100_000.;
          (* short decimals *)
          map2
            (fun n d -> float_of_int n /. (10. ** float_of_int d))
            (int_range (-99_999) 99_999) (int_range 0 6);
        ])
  in
  QCheck2.Test.make ~name:"float printer = precision scan" ~count:20_000
    ~print:(Printf.sprintf "%h") gen (fun f -> printed f = scan_float_repr f)

let qt = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "analysis"
    [
      ( "check",
        [
          Alcotest.test_case "catalogue certificates accepted" `Quick
            test_catalogue_certificates_accepted;
          Alcotest.test_case "catalogue covers every kind" `Quick
            test_catalogue_covers_every_kind;
          Alcotest.test_case "all mutants rejected" `Quick test_all_mutants_rejected;
          Alcotest.test_case "tampered report flags rejected" `Quick
            test_tampered_report_flags_rejected;
          Alcotest.test_case "solver gate degrades on tampering" `Quick
            test_solver_gate_degrades_on_tampered_certificate;
        ] );
      ( "lint",
        [
          Alcotest.test_case "codes" `Quick test_lint_codes;
          Alcotest.test_case "positions and severities" `Quick
            test_lint_positions_and_severities;
          Alcotest.test_case "exit severity" `Quick test_lint_exit_severity;
        ] );
      ( "json",
        [
          Alcotest.test_case "rendering" `Quick test_json_rendering;
          Alcotest.test_case "float binade edges" `Quick test_json_float_binade_edges;
          Alcotest.test_case "parser" `Quick test_json_parser;
        ]
        @ qt [ prop_json_round_trip; prop_json_float_scan ] );
    ]
