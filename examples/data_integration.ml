(* A data-integration scenario, the paper's motivating setting: several
   sources are merged into one relation with a primary key; the sources
   disagree, and we refuse to make arbitrary cleaning choices. Instead we ask
   which answers are *certain* — true no matter how the conflicts are
   resolved.

   Mentors(person | mentor): each person has exactly one assigned mentor
   (primary key = person), but the HR export and the team wiki disagree.

   The query: "is somebody their own mentor's mentor?" —
   ∃x y. Mentors(x | y) ∧ Mentors(y | x), the 2way-determined query
   R(x | y) ∧ R(y | x), which the dichotomy puts in PTIME via Cert_k
   (no tripath). We also ask the path query R(x | y) ∧ R(y | z)
   ("a mentoring chain of length two"), PTIME via Cert_2.

   Run with: dune exec examples/data_integration.exe *)

module Db = Relational.Database
module V = Relational.Value

let mentors = Qlang.Parse.query_exn "M(x | y) M(y | x)"
let chain = Qlang.Parse.query_exn "M(x | y) M(y | z)"

let fact person mentor = Relational.Fact.make "M" [ V.str person; V.str mentor ]

let source_hr =
  [ fact "ada" "grace"; fact "grace" "ada"; fact "linus" "dennis"; fact "dennis" "ken" ]

let source_wiki =
  [ fact "ada" "hedy"; fact "linus" "dennis"; fact "ken" "linus" ]

let () =
  let schema = mentors.Qlang.Query.schema in
  let db = Db.of_facts [ schema ] (source_hr @ source_wiki) in
  Format.printf "merged database (%d facts, consistent: %b):@.%a@.@." (Db.size db)
    (Db.is_consistent db) Db.pp db;
  Format.printf "conflicting keys:@.";
  List.iter
    (fun (b : Relational.Block.t) ->
      if Relational.Block.size b > 1 then
        Format.printf "  %a@." Relational.Block.pp b)
    (Db.blocks db);
  Format.printf "repairs: %s@.@."
    (match Relational.Repair.count db with
    | Some n -> string_of_int n
    | None -> "overflow");

  List.iter
    (fun (name, q) ->
      let report = Core.Dichotomy.classify q in
      let answer, algorithm = Core.Solver.certain report db in
      Format.printf "%s: %a@.  %s@.  certain: %b (via %a)@.@." name Qlang.Query.pp q
        (Core.Dichotomy.verdict_summary report.Core.Dichotomy.verdict)
        answer Core.Solver.pp_algorithm algorithm)
    [ ("mutual mentoring", mentors); ("mentoring chain", chain) ];

  (* Mutual mentoring is NOT certain: the only candidate cycle is
     ada <-> grace, and the wiki's ada -> hedy breaks it in some repairs.
     The chain query IS certain: every repair keeps linus -> dennis, and
     dennis -> ken closes a chain in all of them. *)
  (match Cqa.Satreduce.falsifying_repair (Qlang.Solution_graph.of_query mentors db) with
  | Some picks ->
      let g = Qlang.Solution_graph.of_query mentors db in
      Format.printf "a repair with no mutual mentoring:@.";
      List.iter (fun i -> Format.printf "  %a@." Relational.Fact.pp g.Qlang.Solution_graph.facts.(i)) picks
  | None -> Format.printf "mutual mentoring holds in every repair.@.");

  (* What would it take to make mutual mentoring certain? Drop the wiki's
     claim about ada. *)
  let db' = Db.remove db (fact "ada" "hedy") in
  let answer, _ = Core.Solver.certain (Core.Dichotomy.classify mentors) db' in
  Format.printf "@.after retracting M(ada | hedy): mutual mentoring certain = %b@." answer
