module String_map = Map.Make (String)

module Key_map = Map.Make (struct
  type t = string * Value.t list

  let compare (r1, k1) (r2, k2) =
    let c = String.compare r1 r2 in
    if c <> 0 then c else List.compare Value.compare k1 k2
end)

type t = {
  schemas : Schema.t String_map.t;
  facts : Fact.Set.t;
  size : int;  (* [Fact.Set.cardinal facts], kept so [size] is O(1) *)
  by_key : Fact.Set.t Key_map.t;  (* index: (rel, key tuple) -> facts *)
}

let empty schemas =
  if schemas = [] then invalid_arg "Database.empty: no schemas";
  let map =
    List.fold_left
      (fun acc (s : Schema.t) ->
        if String_map.mem s.Schema.name acc then
          invalid_arg
            (Printf.sprintf "Database.empty: duplicate relation %s" s.Schema.name)
        else String_map.add s.Schema.name s acc)
      String_map.empty schemas
  in
  { schemas = map; facts = Fact.Set.empty; size = 0; by_key = Key_map.empty }

let schema db rel =
  match String_map.find_opt rel db.schemas with
  | Some s -> s
  | None ->
      (* Invalid_argument rather than bare Not_found: callers up to the CLI
         treat Invalid_argument as a user-input error (exit 2 with message),
         and this matches the error [fact_key] raises for the same mistake. *)
      invalid_arg (Printf.sprintf "Database: undeclared relation %s" rel)

let schema_of db (f : Fact.t) = schema db f.Fact.rel

let checked_schema db (f : Fact.t) =
  let s = schema db f.Fact.rel in
  if Schema.(s.arity) <> Fact.arity f then
    invalid_arg
      (Format.asprintf "Database: fact %a has wrong arity for schema %a" Fact.pp
         f Schema.pp s);
  s

let fact_key db (f : Fact.t) = (f.Fact.rel, Fact.key (checked_schema db f) f)
let check_fact db f = ignore (checked_schema db f)

let add db f =
  let k = fact_key db f in
  if Fact.Set.mem f db.facts then db
  else
    let bucket = Option.value ~default:Fact.Set.empty (Key_map.find_opt k db.by_key) in
    {
      db with
      facts = Fact.Set.add f db.facts;
      size = db.size + 1;
      by_key = Key_map.add k (Fact.Set.add f bucket) db.by_key;
    }

let remove db f =
  if not (Fact.Set.mem f db.facts) then db
  else
    let k = fact_key db f in
    let bucket = Option.value ~default:Fact.Set.empty (Key_map.find_opt k db.by_key) in
    let bucket = Fact.Set.remove f bucket in
    {
      db with
      facts = Fact.Set.remove f db.facts;
      size = db.size - 1;
      by_key =
        (if Fact.Set.is_empty bucket then Key_map.remove k db.by_key
         else Key_map.add k bucket db.by_key);
    }

(* The fold of [add], in one sort: every fact is validated first, in input
   order, so the first bad one raises what its [add] would; then
   [Fact.Set.of_list] sorts and deduplicates once. Sorted fact order is
   (relation, tuple) order and keys are tuple prefixes, so each block is a
   run of the sorted facts and the index is built run by run. *)
let of_facts schemas facts =
  let db = empty schemas in
  List.iter (check_fact db) facts;
  let set = Fact.Set.of_list facts in
  let run = ref [] and size = ref 0 and by_key = ref Key_map.empty in
  let close () =
    match !run with
    | [] -> ()
    | f :: _ ->
        by_key := Key_map.add (fact_key db f) (Fact.Set.of_list !run) !by_key;
        run := []
  in
  Fact.Set.iter
    (fun (f : Fact.t) ->
      incr size;
      (match !run with
      | g :: _ when Fact.key_equal (schema_of db f) f g -> ()
      | _ -> close ());
      run := f :: !run)
    set;
  close ();
  { db with facts = set; size = !size; by_key = !by_key }

let mem db f = Fact.Set.mem f db.facts
let size db = db.size
let is_empty db = Fact.Set.is_empty db.facts
let facts db = Fact.Set.elements db.facts
let fact_set db = db.facts
let schemas db = List.map snd (String_map.bindings db.schemas)

let fold_blocks f acc db =
  Key_map.fold
    (fun (rel, _) fs acc -> f acc (Block.make (schema db rel) (Fact.Set.elements fs)))
    db.by_key acc

let blocks db = List.rev (fold_blocks (fun acc b -> b :: acc) [] db)
let block_count db = Key_map.cardinal db.by_key

let block_of db f =
  match Key_map.find_opt (fact_key db f) db.by_key with
  | None -> []
  | Some fs -> Fact.Set.elements fs

let siblings db f = List.filter (fun g -> not (Fact.equal f g)) (block_of db f)

let is_consistent db =
  Key_map.for_all (fun _ fs -> Fact.Set.cardinal fs <= 1) db.by_key

let key_equal db f g =
  String.equal f.Fact.rel g.Fact.rel
  &&
  match String_map.find_opt f.Fact.rel db.schemas with
  | None -> false
  | Some s -> Fact.arity f = Schema.(s.arity) && Fact.key_equal s f g

let union d1 d2 =
  let schemas =
    String_map.union
      (fun name s1 s2 ->
        if Schema.equal s1 s2 then Some s1
        else
          invalid_arg
            (Printf.sprintf "Database.union: conflicting schemas for %s" name))
      d1.schemas d2.schemas
  in
  (* Facts in either database were validated and indexed by their [add];
     merging the persistent sets and index buckets directly skips the
     redundant membership test and [fact_key] revalidation a re-[add] of
     every fact would pay. Key collisions across the two databases merge
     buckets — same relation, same schema (checked above), same key. *)
  let facts = Fact.Set.union d1.facts d2.facts in
  {
    schemas;
    facts;
    size = Fact.Set.cardinal facts;
    by_key =
      Key_map.union
        (fun _ b1 b2 -> Some (Fact.Set.union b1 b2))
        d1.by_key d2.by_key;
  }

let filter p db =
  (* Filter the index buckets in place (dropping emptied keys) rather than
     re-validating and re-indexing every surviving fact through [add]. *)
  let facts = Fact.Set.filter p db.facts in
  {
    db with
    facts;
    size = Fact.Set.cardinal facts;
    by_key =
      Key_map.filter_map
        (fun _ bucket ->
          let bucket = Fact.Set.filter p bucket in
          if Fact.Set.is_empty bucket then None else Some bucket)
        db.by_key;
  }

let adom db =
  Fact.Set.fold (fun f acc -> Value.Set.union (Fact.adom f) acc) db.facts
    Value.Set.empty

let equal d1 d2 =
  Fact.Set.equal d1.facts d2.facts
  && String_map.equal Schema.equal d1.schemas d2.schemas

let pp ppf db =
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Fact.pp)
    (facts db)
