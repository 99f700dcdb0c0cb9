(* Non-Boolean consistent query answering: certain answer TUPLES.

   A shipment-tracking relation Route(shipment | from to) records each
   shipment's single leg (primary key = shipment id). Two scanners disagree
   about some shipments. The query asks for pairs of shipments forming a
   relay — the second leg starts where the first ends:

     q(s, t) = Route(s | a b) ∧ Route(t | b c)

   With free variables the dichotomy machinery still applies: each candidate
   tuple grounds the query, grounded queries are classified (cached per
   coincidence pattern) and solved by the designated algorithm.

   Run with: dune exec examples/consistent_answers.exe *)

module V = Relational.Value

let q = Qlang.Parse.query_exn "Route(s | a b) Route(t | b c)"

let fact ship from_ to_ =
  Relational.Fact.make "Route" [ V.str ship; V.str from_; V.str to_ ]

let db =
  Relational.Database.of_facts
    [ q.Qlang.Query.schema ]
    [
      (* scanner 1 *)
      fact "s1" "lyon" "paris";
      fact "s2" "paris" "lille";
      fact "s3" "nice" "lyon";
      (* scanner 2 disagrees about s2's leg and adds s4 *)
      fact "s2" "marseille" "lille";
      fact "s4" "paris" "brest";
    ]

let () =
  Format.printf "query: %a@." Qlang.Query.pp q;
  Format.printf "database (%d facts, consistent: %b):@.%a@.@."
    (Relational.Database.size db)
    (Relational.Database.is_consistent db)
    Relational.Database.pp db;
  let free = [ "s"; "t" ] in
  let results = Core.Answers.evaluate ~free q db in
  Format.printf "%-14s %-9s@." "relay (s, t)" "certain";
  List.iter
    (fun (a : Core.Answers.t) ->
      Format.printf "%-14s %-9b@."
        (String.concat ", " (List.map V.to_string a.Core.Answers.tuple))
        a.Core.Answers.certain)
    results;
  Format.printf
    "@.(s3, s1) is certain: both scanners agree on those legs. (s1, s2) is \
     only@.possible: scanner 2 claims s2 departs from marseille, so in some \
     repairs the@.relay breaks. (s1, s4) is certain: s4 departs from paris \
     in every repair.@.@.";
  (* The same data, classified once and decided per database state: retract
     scanner 2's claim and watch (s1, s2) become certain. *)
  let grounded =
    Core.Answers.ground ~free q [ V.str "s1"; V.str "s2" ]
  in
  let report = Core.Dichotomy.classify grounded in
  Format.printf "certain(q(s1, s2)) initially: %b@."
    (fst (Core.Solver.certain report db));
  let db' = Relational.Database.remove db (fact "s2" "marseille" "lille") in
  Format.printf "after retracting Route(s2 | marseille lille): %b@."
    (fst (Core.Solver.certain report db'))
