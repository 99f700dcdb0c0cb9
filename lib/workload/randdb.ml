module Schema = Relational.Schema
module Fact = Relational.Fact
module Value = Relational.Value
module Database = Relational.Database
module Query = Qlang.Query
module Atom = Qlang.Atom
module Term = Qlang.Term

let value rng domain = Value.int (Random.State.int rng domain)

let random_fact rng (schema : Schema.t) ~domain =
  Fact.of_array schema.Schema.name
    (Array.init schema.Schema.arity (fun _ -> value rng domain))

let random rng schema ~n_facts ~domain =
  Database.of_facts [ schema ]
    (List.init n_facts (fun _ -> random_fact rng schema ~domain))

(* Instantiate an atom under a random assignment of its variables. *)
let atom_image rng atom ~domain =
  let assignment = Hashtbl.create 8 in
  let value_of v =
    match Hashtbl.find_opt assignment v with
    | Some value -> value
    | None ->
        let value = value rng domain in
        Hashtbl.add assignment v value;
        value
  in
  Fact.of_array atom.Atom.rel
    (Array.map
       (function Term.Cst v -> v | Term.Var v -> value_of v)
       atom.Atom.args)

let random_for_query rng (q : Query.t) ~n_facts ~domain =
  let schema = q.Query.schema in
  let facts =
    List.init n_facts (fun i ->
        match i mod 4 with
        | 0 -> atom_image rng q.Query.a ~domain
        | 1 -> atom_image rng q.Query.b ~domain
        | _ -> random_fact rng schema ~domain)
  in
  Database.of_facts [ schema ] facts

let random_delta rng q db ~domain ~len =
  let facts = Array.of_list (Database.facts db) in
  let n = Array.length facts in
  let fresh () =
    List.hd (Database.facts (random_for_query rng q ~n_facts:1 ~domain))
  in
  List.init len (fun _ ->
      match Random.State.int rng 4 with
      | 0 -> Relational.Delta.Insert (fresh ())
      | 1 when n > 0 ->
          Relational.Delta.Retract facts.(Random.State.int rng n)
      | 2 when n > 0 ->
          (* Redundant insert: the fact is already present. *)
          Relational.Delta.Insert facts.(Random.State.int rng n)
      | _ ->
          (* Retract of a fact that is (almost surely) absent. *)
          Relational.Delta.Retract (fresh ()))

let q3_components rng ~components =
  let fact k v = Fact.make "R" [ Value.int k; Value.int v ] in
  let component c =
    let value () = (c * 1000) + Random.State.int rng 7 in
    let draws = List.init 60 (fun _ -> (value (), value ())) in
    let keys = List.sort_uniq compare (List.map fst draws) in
    List.map (fun (k, v) -> fact k v) draws
    @ List.map (fun k -> fact k (1_000_000 + k)) keys
  in
  Database.of_facts [ Catalog.q3.Query.schema ]
    (List.concat (List.init components component))

let random_sjf rng (s : Qlang.Sjf.t) ~n_facts ~domain =
  let facts =
    List.init n_facts (fun i ->
        match i mod 4 with
        | 0 -> atom_image rng s.Qlang.Sjf.a ~domain
        | 1 -> atom_image rng s.Qlang.Sjf.b ~domain
        | 2 ->
            Fact.of_array s.Qlang.Sjf.s1.Schema.name
              (Array.init s.Qlang.Sjf.s1.Schema.arity (fun _ -> value rng domain))
        | _ ->
            Fact.of_array s.Qlang.Sjf.s2.Schema.name
              (Array.init s.Qlang.Sjf.s2.Schema.arity (fun _ -> value rng domain)))
  in
  Database.of_facts (Qlang.Sjf.schemas s) facts

let hard_instance rng g ~n_vars ~n_clauses =
  let phi = Satsolver.Threesat.random rng ~n_vars ~n_clauses in
  match Satsolver.Threesat.normalize phi with
  | Satsolver.Threesat.Decided _ -> None
  | Satsolver.Threesat.Formula phi' ->
      Some (phi', Core.Gadget.database g phi')
