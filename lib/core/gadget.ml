module Query = Qlang.Query
module Fact = Relational.Fact
module Value = Relational.Value
module Database = Relational.Database
module Cnf = Satsolver.Cnf

type t = {
  query : Query.t;
  tripath : Tripath.t;
  witness : Tripath.nice_witness;
}

let of_tripath tp =
  match Tripath.niceness tp with
  | Ok (Tripath.Fork, witness) -> Ok { query = tp.Tripath.query; tripath = tp; witness }
  | Ok (Tripath.Triangle, _) -> Error "the tripath is a triangle-tripath, not a fork"
  | Error errs -> Error (String.concat "; " errs)

let create ?opts q =
  match Tripath_search.find_nice ?opts ~want:Tripath.Fork q with
  | Some (tp, witness) -> Ok { query = q; tripath = tp; witness }
  | None -> Error "no nice fork-tripath found within the search bounds"

(* ------------------------------------------------------------------ *)
(* Value-level substitution of the six witness elements.               *)

let substitute_facts mapping facts =
  let subst v =
    match List.find_opt (fun (from, _) -> Value.equal from v) mapping with
    | Some (_, to_) -> to_
    | None -> v
  in
  List.map
    (fun (f : Fact.t) -> Fact.of_array f.Fact.rel (Array.map subst f.Fact.tuple))
    facts

(* Copy of the tripath facts under Θ[αx, αy, αz, αu, αv, αw]. The mapping is
   built first-come-first-served so that equal witness elements (x = y is
   allowed) receive equal images, as the paper requires. *)
let theta_copy g ~ax ~ay ~az ~au ~av ~aw =
  let w = g.witness in
  let mapping =
    List.fold_left
      (fun acc (from, to_) ->
        if List.exists (fun (f, _) -> Value.equal f from) acc then acc
        else (from, to_) :: acc)
      []
      [
        (w.Tripath.x, ax);
        (w.Tripath.y, ay);
        (w.Tripath.z, az);
        (w.Tripath.u, au);
        (w.Tripath.v, av);
        (w.Tripath.w, aw);
      ]
  in
  substitute_facts mapping (Database.facts (Tripath.database g.tripath))

(* ------------------------------------------------------------------ *)
(* Element encodings                                                   *)

let clause_val c = Value.tag "C" (Value.int c)
let var_val l = Value.tag "l" (Value.int l)

(* ⟨C, l⟩ annotated with the witness slot, keeping x/y/z copies disjoint. *)
let xyz_val slot c l = Value.pair (Value.pair (clause_val c) (var_val l)) (Value.str slot)

(* ⟨C, C', l⟩ — leaf identifiers shared between two copies. *)
let leaf_val c c' l = Value.triple (clause_val c) (clause_val c') (var_val l)

(* ------------------------------------------------------------------ *)
(* The database D(φ)                                                   *)

(* Occurrence analysis: for each variable, the clause indices where it
   occurs with its minority polarity ("positive" role, exactly one) and
   majority polarity. *)
type occurrence = {
  var : int;
  pos_clause : int;  (** The single clause of the minority-polarity literal. *)
  neg_clauses : int list;  (** One or two clauses of the other polarity. *)
}

let occurrences_of (phi : Cnf.t) =
  let table = Hashtbl.create 16 in
  List.iteri
    (fun ci clause ->
      List.iter
        (fun lit ->
          let v = abs lit in
          let pos, neg = Option.value ~default:([], []) (Hashtbl.find_opt table v) in
          if lit > 0 then Hashtbl.replace table v (ci :: pos, neg)
          else Hashtbl.replace table v (pos, ci :: neg))
        clause)
    phi.Cnf.clauses;
  Hashtbl.fold
    (fun v (pos, neg) acc ->
      match (pos, neg) with
      | [ c ], others | others, [ c ] ->
          { var = v; pos_clause = c; neg_clauses = List.rev others } :: acc
      | _, _ ->
          invalid_arg
            (Printf.sprintf
               "Gadget.database: variable %d does not have a single \
                minority-polarity occurrence"
               v))
    table []
  |> List.sort (fun o1 o2 -> Int.compare o1.var o2.var)

let variable_gadget g occ =
  let l = occ.var in
  let copy c ~v ~w =
    theta_copy g
      ~ax:(xyz_val "x" c l) ~ay:(xyz_val "y" c l) ~az:(xyz_val "z" c l)
      ~au:(clause_val c) ~av:v ~aw:w
  in
  match occ.neg_clauses with
  | [ c' ] ->
      (* V2: one positive clause c, one negative clause c'. *)
      let c = occ.pos_clause in
      copy c ~v:(leaf_val c c l) ~w:(leaf_val c c' l)
      @ copy c' ~v:(leaf_val c' c' l) ~w:(leaf_val c c' l)
  | [ c1; c2 ] ->
      (* V3: one positive clause c, negative clauses c1 and c2. *)
      let c = occ.pos_clause in
      copy c ~v:(leaf_val c c2 l) ~w:(leaf_val c c1 l)
      @ copy c1 ~v:(leaf_val c1 c1 l) ~w:(leaf_val c c1 l)
      @ copy c2 ~v:(leaf_val c c2 l) ~w:(leaf_val c2 c2 l)
  | [] | _ :: _ :: _ ->
      invalid_arg
        (Printf.sprintf
           "Gadget.database: variable %d has %d majority occurrences (expected 1 \
            or 2)"
           occ.var
           (List.length occ.neg_clauses))

(* A padding fact for a singleton block: same key, fresh non-key values. The
   construction is verified: the fact must form no solution with anything. *)
let pad_singletons (q : Query.t) db =
  let schema = q.Query.schema in
  let counter = ref 0 in
  let fresh () =
    incr counter;
    Value.tag "pad" (Value.int !counter)
  in
  let l = schema.Relational.Schema.key_len in
  let padded =
    List.fold_left
      (fun acc (block : Relational.Block.t) ->
        if Relational.Block.size block > 1 then acc
        else
          match block.Relational.Block.facts with
          | [ lone ] ->
              let tuple =
                Array.mapi
                  (fun i v -> if i < l then v else fresh ())
                  lone.Fact.tuple
              in
              Fact.of_array lone.Fact.rel tuple :: acc
          | [] | _ :: _ :: _ -> acc)
      [] (Database.blocks db)
  in
  let db' = List.fold_left Database.add db padded in
  (* Soundness check: padding facts participate in no solution. The facts
     that do are those with a self-loop or an edge in the solution graph,
     built on the compiled keyed join. *)
  let in_solution =
    let g = Qlang.Solution_graph.of_query_compiled q (Relational.Compiled.compile db') in
    let marked = ref Fact.Set.empty in
    Array.iteri
      (fun v f ->
        if g.Qlang.Solution_graph.self.(v) || g.Qlang.Solution_graph.adj.(v) <> []
        then marked := Fact.Set.add f !marked)
      g.Qlang.Solution_graph.facts;
    !marked
  in
  List.iter
    (fun p ->
      if Fact.Set.mem p in_solution then
        invalid_arg
          (Format.asprintf
             "Gadget.database: padding fact %a forms a solution — the tripath \
              is not nice enough"
             Fact.pp p))
    padded;
  db'

let database g (phi : Cnf.t) =
  if not (Satsolver.Threesat.in_gadget_shape phi) then
    invalid_arg
      "Gadget.database: formula not in gadget shape (normalize it with \
       Threesat.normalize first)";
  let facts = List.concat_map (variable_gadget g) (occurrences_of phi) in
  let db = Database.of_facts [ g.query.Query.schema ] facts in
  pad_singletons g.query db
