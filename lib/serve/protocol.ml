module Json = Analysis.Json

type code =
  | Ok_code
  | Not_certain
  | Diagnostics
  | Bad_frame
  | Bad_request
  | Bad_query
  | Bad_db
  | Db_too_large
  | Unknown_db
  | Solver_error
  | Overloaded
  | Degraded_estimate
  | Budget_exhausted
  | Fault_injected
  | Timeout
  | Corrupt_plane

let code_name = function
  | Ok_code -> "ok"
  | Not_certain -> "not-certain"
  | Diagnostics -> "diagnostics"
  | Bad_frame -> "bad-frame"
  | Bad_request -> "bad-request"
  | Bad_query -> "bad-query"
  | Bad_db -> "bad-db"
  | Db_too_large -> "db-too-large"
  | Unknown_db -> "unknown-db"
  | Solver_error -> "solver-error"
  | Overloaded -> "overloaded"
  | Degraded_estimate -> "degraded-estimate"
  | Budget_exhausted -> "budget-exhausted"
  | Fault_injected -> "fault-injected"
  | Timeout -> "timeout"
  | Corrupt_plane -> "corrupt-plane"

(* The CLI exit-code contract (README "Solver harness & exit codes"):
   0 certain, 1 not certain, 2 usage/input error, 3 degraded, 124 timeout. *)
let exit_of_code = function
  | Ok_code -> 0
  | Not_certain | Diagnostics -> 1
  | Bad_frame | Bad_request | Bad_query | Bad_db | Db_too_large | Unknown_db
  | Solver_error | Corrupt_plane ->
      2
  | Overloaded | Degraded_estimate | Budget_exhausted | Fault_injected -> 3
  | Timeout -> 124

let code_of_outcome : Core.Solver.outcome -> code = function
  | Harness.Outcome.Decided (answer, _) -> if answer then Ok_code else Not_certain
  | Harness.Outcome.Estimated _ -> Degraded_estimate
  | Harness.Outcome.Timeout -> Timeout
  | Harness.Outcome.Budget_exhausted -> Budget_exhausted
  | Harness.Outcome.Solver_error _ -> Solver_error

let code_of_diagnostics diagnostics =
  match Analysis.Lint.max_severity diagnostics with
  | Some (Analysis.Lint.Error | Analysis.Lint.Warning) -> Diagnostics
  | Some Analysis.Lint.Info | None -> Ok_code

let status_of_code c =
  match exit_of_code c with
  | 0 | 1 -> "ok"
  | 3 -> "degraded"
  | 124 -> "timeout"
  | _ -> "error"

type error = { code : code; message : string }

type db_ref = Named of string | Inline of string

type request =
  | Ping
  | Load of { name : string; text : string }
  | Classify of { query : string }
  | Certain of {
      query : string;
      db : db_ref;
      trials : int option;
      explain : bool;
    }
  | Lint of { query : string }
  | Analyze of { query : string; db : db_ref option }
  | Update of { db : string; insert : string; retract : string }
  | Stats
  | Trace of { last : int }
  | Shutdown

let op_name = function
  | Ping -> "ping"
  | Load _ -> "load"
  | Classify _ -> "classify"
  | Certain _ -> "certain"
  | Lint _ -> "lint"
  | Analyze _ -> "analyze"
  | Update _ -> "update"
  | Stats -> "stats"
  | Trace _ -> "trace"
  | Shutdown -> "shutdown"

let decode ~max_bytes line =
  let fail ?id code message = Error (id, { code; message }) in
  if String.length line > max_bytes then
    fail Bad_frame
      (Printf.sprintf "frame exceeds %d bytes (%d)" max_bytes
         (String.length line))
  else
    match Json.of_string line with
    | Error msg -> fail Bad_frame ("frame is not valid JSON: " ^ msg)
    | Ok (Json.Obj fields) -> (
        let id = List.assoc_opt "id" fields in
        let str name =
          match List.assoc_opt name fields with
          | Some (Json.String s) -> Ok s
          | Some _ ->
              Error { code = Bad_request; message = name ^ " must be a string" }
          | None ->
              Error { code = Bad_request; message = "missing field " ^ name }
        in
        let ( let* ) r f = match r with Ok v -> f v | Error e -> Error (id, e) in
        let* op = str "op" in
        match op with
        | "ping" -> Ok (id, Ping)
        | "stats" -> Ok (id, Stats)
        | "shutdown" -> Ok (id, Shutdown)
        | "trace" -> (
            match List.assoc_opt "last" fields with
            | None -> Ok (id, Trace { last = 10 })
            | Some (Json.Int n) when n > 0 -> Ok (id, Trace { last = n })
            | Some _ -> fail ?id Bad_request "last must be a positive integer")
        | "classify" ->
            let* query = str "query" in
            Ok (id, Classify { query })
        | "lint" ->
            let* query = str "query" in
            Ok (id, Lint { query })
        | "analyze" ->
            let* query = str "query" in
            let* db =
              match
                (List.assoc_opt "db" fields, List.assoc_opt "facts" fields)
              with
              | Some (Json.String n), None -> Ok (Some (Named n))
              | None, Some (Json.String t) -> Ok (Some (Inline t))
              | None, None -> Ok None
              | Some _, Some _ ->
                  Error
                    {
                      code = Bad_request;
                      message = "pass either db or facts, not both";
                    }
              | _ ->
                  Error
                    {
                      code = Bad_request;
                      message = "db and facts must be strings";
                    }
            in
            Ok (id, Analyze { query; db })
        | "load" ->
            let* name = str "name" in
            let* text = str "facts" in
            Ok (id, Load { name; text })
        | "update" ->
            let* db = str "db" in
            let opt name =
              match List.assoc_opt name fields with
              | None -> Ok ""
              | Some (Json.String s) -> Ok s
              | Some _ ->
                  Error
                    { code = Bad_request; message = name ^ " must be a string" }
            in
            let* insert = opt "insert" in
            let* retract = opt "retract" in
            if insert = "" && retract = "" then
              fail ?id Bad_request "update needs insert or retract facts"
            else Ok (id, Update { db; insert; retract })
        | "certain" ->
            let* query = str "query" in
            let* db =
              match
                (List.assoc_opt "db" fields, List.assoc_opt "facts" fields)
              with
              | Some (Json.String n), None -> Ok (Named n)
              | None, Some (Json.String t) -> Ok (Inline t)
              | None, None ->
                  Error
                    {
                      code = Bad_request;
                      message = "certain needs a db name or inline facts";
                    }
              | Some _, Some _ ->
                  Error
                    {
                      code = Bad_request;
                      message = "pass either db or facts, not both";
                    }
              | _ ->
                  Error
                    {
                      code = Bad_request;
                      message = "db and facts must be strings";
                    }
            in
            let* trials =
              match List.assoc_opt "trials" fields with
              | None -> Ok None
              | Some (Json.Int n) when n > 0 -> Ok (Some n)
              | Some _ ->
                  Error
                    {
                      code = Bad_request;
                      message = "trials must be a positive integer";
                    }
            in
            let* explain =
              match List.assoc_opt "explain" fields with
              | None -> Ok false
              | Some (Json.Bool b) -> Ok b
              | Some _ ->
                  Error
                    {
                      code = Bad_request;
                      message = "explain must be a boolean";
                    }
            in
            Ok (id, Certain { query; db; trials; explain })
        | other -> fail ?id Bad_request ("unknown op " ^ other))
    | Ok _ -> fail Bad_frame "frame must be a JSON object"

let response ?id ~op code fields =
  let base =
    [
      ("op", Json.String op);
      ("status", Json.String (status_of_code code));
      ("code", Json.String (code_name code));
      ("exit", Json.Int (exit_of_code code));
    ]
  in
  let base = match id with None -> base | Some v -> ("id", v) :: base in
  Json.Obj (base @ fields)

let to_frame j = Json.to_string j ^ "\n"
