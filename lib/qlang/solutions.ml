module Fact = Relational.Fact
module Database = Relational.Database

let solution_pair a b f g =
  match Unify.match_fact Subst.empty a f with
  | None -> false
  | Some s -> Option.is_some (Unify.match_fact s b g)

let solution_pair_sym a b f g = solution_pair a b f g || solution_pair a b g f

let pairs a b db =
  let facts = Database.facts db in
  let acc = ref [] in
  List.iter
    (fun f ->
      match Unify.match_fact Subst.empty a f with
      | None -> ()
      | Some s ->
          let b' = Subst.apply_atom s b in
          List.iter
            (fun g ->
              if Option.is_some (Unify.match_fact s b' g) then acc := (f, g) :: !acc)
            facts)
    facts;
  List.sort_uniq
    (fun (f1, g1) (f2, g2) ->
      let c = Fact.compare f1 f2 in
      if c <> 0 then c else Fact.compare g1 g2)
    !acc

let assignments a b db =
  let facts = Database.facts db in
  List.concat_map
    (fun f ->
      match Unify.match_fact Subst.empty a f with
      | None -> []
      | Some s ->
          let b' = Subst.apply_atom s b in
          List.filter_map
            (fun g ->
              match Unify.match_fact s b' g with
              | None -> None
              | Some s' -> Some (s', f, g))
            facts)
    facts

let satisfies a b facts =
  List.exists
    (fun f ->
      match Unify.match_fact Subst.empty a f with
      | None -> false
      | Some s ->
          let b' = Subst.apply_atom s b in
          List.exists (fun g -> Option.is_some (Unify.match_fact s b' g)) facts)
    facts

let pairs_compiled a b plane =
  let acc = ref [] in
  Pattern.iter_pairs (Pattern.pair plane a b) (fun i j -> acc := (i, j) :: !acc);
  List.rev !acc

let holds a b db f g = Database.mem db f && Database.mem db g && solution_pair a b f g
let query_pairs (q : Query.t) db = pairs q.Query.a q.Query.b db
let query_satisfies (q : Query.t) facts = satisfies q.Query.a q.Query.b facts
let query_solution_pair (q : Query.t) f g = solution_pair q.Query.a q.Query.b f g
let query_solution_pair_sym (q : Query.t) f g = solution_pair_sym q.Query.a q.Query.b f g
