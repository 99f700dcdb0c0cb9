let database ?max_facts text =
  match Qlang.Parse.database text with
  | Error e ->
      Error
        {
          Protocol.code = Protocol.Bad_db;
          message = Qlang.Parse.error_to_string e;
        }
  | exception Invalid_argument msg ->
      (* Schema violations (undeclared relation, arity mismatch) raise out
         of the database constructors; fold them into the same path. *)
      Error { Protocol.code = Protocol.Bad_db; message = msg }
  | Ok db -> (
      match max_facts with
      | Some cap when Relational.Database.size db > cap ->
          Error
            {
              Protocol.code = Protocol.Db_too_large;
              message =
                Printf.sprintf "database has %d facts, over the cap of %d"
                  (Relational.Database.size db) cap;
            }
      | _ -> Ok db)

(* One fact per line for the update op: blank lines and '#' comments are
   tolerated as in a database file, but schema declarations are not — an
   update never changes the schema, it only toggles facts, and the caller
   validates them against the named database's existing schema. *)
let facts text =
  let rec go acc lineno = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
        let s = String.trim line in
        if s = "" || s.[0] = '#' then go acc (lineno + 1) rest
        else (
          match Qlang.Parse.fact s with
          | Ok parsed -> go (parsed :: acc) (lineno + 1) rest
          | Error e ->
              Error
                {
                  Protocol.code = Protocol.Bad_db;
                  message =
                    Printf.sprintf "line %d: %s" lineno
                      (Qlang.Parse.error_to_string e);
                })
  in
  go [] 1 (String.split_on_char '\n' text)

let key_markers db parsed =
  match
    List.find_map
      (fun ((f : Relational.Fact.t), marker) ->
        match Relational.Database.schema_of db f with
        | exception Invalid_argument _ ->
            (* Undeclared relation: the delta application reports it with
               the structured Database error; don't pre-empt it here. *)
            None
        | s -> Qlang.Parse.key_marker_error s f marker)
      parsed
  with
  | None -> Ok ()
  | Some message -> Error { Protocol.code = Protocol.Bad_db; message }

let query src =
  match Qlang.Parse.query src with
  | Ok q -> Ok q
  | Error e ->
      Error
        {
          Protocol.code = Protocol.Bad_query;
          message = Qlang.Parse.error_to_string e;
        }
