module Query = Qlang.Query
module Term = Qlang.Term
module Atom = Qlang.Atom
module Subst = Qlang.Subst
module Value = Relational.Value
module Database = Relational.Database

type t = { tuple : Value.t list; certain : bool }

let validate_free ~free q =
  if free = [] then invalid_arg "Answers: empty free-variable list";
  if List.length (List.sort_uniq String.compare free) <> List.length free then
    invalid_arg "Answers: repeated free variable";
  let vars = Query.vars q in
  List.iter
    (fun v ->
      if not (Term.Var_set.mem v vars) then
        invalid_arg (Printf.sprintf "Answers: %s is not a variable of the query" v))
    free

let candidates ~free (q : Query.t) db =
  validate_free ~free q;
  Qlang.Solutions.assignments q.Query.a q.Query.b db
  |> List.filter_map (fun (subst, f, g) ->
         (* The witnessing pair must fit in one repair: equal facts or
            non-key-equal ones. *)
         if
           (not (Relational.Fact.equal f g)) && Database.key_equal db f g
         then None
         else
           Some
             (List.map
                (fun v ->
                  match Subst.find v subst with
                  | Some (Term.Cst value) -> value
                  | Some (Term.Var _) | None ->
                      invalid_arg
                        (Printf.sprintf "Answers: free variable %s left unbound" v))
                free))
  |> List.sort_uniq (List.compare Value.compare)

let ground ~free (q : Query.t) tuple =
  validate_free ~free q;
  if List.length tuple <> List.length free then
    invalid_arg "Answers.ground: tuple arity mismatch";
  let mapping = List.combine free tuple in
  let substitute_atom atom =
    Atom.of_array atom.Atom.rel
      (Array.map
         (function
           | Term.Var v as t -> (
               match List.assoc_opt v mapping with
               | Some value -> Term.cst value
               | None -> t)
           | Term.Cst _ as t -> t)
         atom.Atom.args)
  in
  Query.make_exn q.Query.schema (substitute_atom q.Query.a) (substitute_atom q.Query.b)

(* The classification of q(ā) depends only on which positions of ā coincide
   (and never on the concrete constants, since the original query has its
   own variables): cache verdicts per coincidence pattern. *)
let pattern tuple =
  let seen = ref [] in
  List.map
    (fun v ->
      match List.find_index (fun w -> Value.equal v w) !seen with
      | Some i -> i
      | None ->
          seen := !seen @ [ v ];
          List.length !seen - 1)
    tuple

let atom_has_constants atom =
  Array.exists (function Term.Cst _ -> true | Term.Var _ -> false) atom.Atom.args

let evaluate ?k ~free (q : Query.t) db =
  (* Verdict caching by coincidence pattern is sound only when the original
     query has no constants of its own (a candidate value could otherwise
     collide with one); queries with constants are classified per tuple. *)
  let cacheable =
    not (atom_has_constants q.Query.a || atom_has_constants q.Query.b)
  in
  let cache = Hashtbl.create 8 in
  (* One plane for every candidate: only the grounded query, and so the
     solution graph built on the plane, changes from tuple to tuple. *)
  let plane = lazy (Relational.Compiled.compile db) in
  List.map
    (fun tuple ->
      let grounded = ground ~free q tuple in
      let key = pattern tuple in
      (* Tuples with the same coincidence pattern yield isomorphic groundings,
         so the verdict and certificate of a representative carry over; only
         the query field is re-anchored to this tuple's grounding. *)
      let verdict, certificate =
        match if cacheable then Hashtbl.find_opt cache key else None with
        | Some cached -> cached
        | None ->
            let r = Dichotomy.classify grounded in
            let cached = (r.Dichotomy.verdict, r.Dichotomy.certificate) in
            if cacheable then Hashtbl.add cache key cached;
            cached
      in
      let report =
        {
          Dichotomy.query = grounded;
          verdict;
          certificate;
          two_way_determined = false;
          bounded_search = false;
        }
      in
      let graph =
        lazy (Qlang.Solution_graph.of_query_compiled grounded (Lazy.force plane))
      in
      let certain, _ = Solver.certain_graph ?k report ~plane ~graph in
      { tuple; certain })
    (candidates ~free q db)

let certain_answers ?k ~free q db =
  List.filter_map
    (fun a -> if a.certain then Some a.tuple else None)
    (evaluate ?k ~free q db)

let possible_answers ~free q db = candidates ~free q db
