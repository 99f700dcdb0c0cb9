module Schema = Relational.Schema
module Fact = Relational.Fact
module Database = Relational.Database
module Value = Relational.Value

let ( let* ) = Result.bind

type position = { line : int; col : int }
type error_kind = Lex | Syntax | Mismatch
type error = { message : string; position : position option; kind : error_kind }

let pp_position ppf p = Format.fprintf ppf "line %d, col %d" p.line p.col

let error_to_string e =
  match e.position with
  | None -> e.message
  | Some p -> Format.asprintf "%a: %s" pp_position p e.message

let err ?pos ?(kind = Syntax) fmt =
  Format.kasprintf (fun message -> Error { message; position = pos; kind }) fmt

(* Re-anchor an error produced while parsing an isolated line to the line's
   number in the enclosing source (database files, linted query files). *)
let error_at_line line e =
  { e with position = Option.map (fun p -> { p with line }) e.position }

type token =
  | Ident of string
  | Lpar
  | Rpar
  | Bar
  | Lbracket
  | Rbracket
  | Comma

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '\'' || c = '-' || c = '<' || c = '>'

(* Tokens carry the 1-based line/column of their first character. *)
let tokenize s =
  let n = String.length s in
  let rec go i line col acc =
    if i >= n then Ok (List.rev acc)
    else
      let pos = { line; col } in
      let punct k tok = go (i + k) line (col + k) ((tok, pos) :: acc) in
      match s.[i] with
      | '\n' -> go (i + 1) (line + 1) 1 acc
      | ' ' | '\t' | '\r' -> go (i + 1) line (col + 1) acc
      | '(' -> punct 1 Lpar
      | ')' -> punct 1 Rpar
      | '|' -> punct 1 Bar
      | '[' -> punct 1 Lbracket
      | ']' -> punct 1 Rbracket
      | ',' -> punct 1 Comma
      | '&' when i + 1 < n && s.[i + 1] = '&' -> go (i + 2) line (col + 2) acc
      | '/' when i + 1 < n && s.[i + 1] = '\\' -> go (i + 2) line (col + 2) acc
      | '\xe2' when i + 2 < n && s.[i + 1] = '\x88' && s.[i + 2] = '\xa7' ->
          (* UTF-8 for the conjunction sign; one display column. *)
          go (i + 3) line (col + 1) acc
      | c when is_ident_char c ->
          let j = ref i in
          while !j < n && is_ident_char s.[!j] do
            incr j
          done;
          go !j line (col + (!j - i)) ((Ident (String.sub s i (!j - i)), pos) :: acc)
      | c -> err ~pos ~kind:Lex "unexpected character %C" c
  in
  go 0 1 1 []

let value_of_ident id =
  match int_of_string_opt id with Some n -> Value.int n | None -> Value.str id

let term_of_ident id =
  match int_of_string_opt id with
  | Some n -> Term.cst (Value.int n)
  | None ->
      let c = id.[0] in
      if (c >= 'a' && c <= 'z') || c = '_' then Term.var id
      else Term.cst (Value.str id)

(* Parses [Name ( arg ... arg | arg ... arg )]; returns the name and its
   position, the positioned args, the bar position, and the leftover
   tokens. *)
let parse_tuple tokens =
  match tokens with
  | (Ident name, name_pos) :: (Lpar, _) :: rest ->
      let rec args acc bar i = function
        | (Rpar, _) :: rest -> Ok ((name, name_pos, List.rev acc, bar), rest)
        | (Bar, pos) :: rest ->
            if bar = None then args acc (Some i) i rest
            else err ~pos "duplicate key separator '|'"
        | (Ident id, pos) :: rest -> args ((id, pos) :: acc) bar (i + 1) rest
        | (Comma, _) :: rest -> args acc bar i rest
        | ((Lpar | Lbracket | Rbracket), pos) :: _ -> err ~pos "malformed tuple"
        | [] -> err "unexpected end of input, expected ')'"
      in
      args [] None 0 rest
  | (_, pos) :: _ -> err ~pos "expected an atom of the form Name(...)"
  | [] -> err "expected an atom of the form Name(...)"

type atom_span = { rel_pos : position; arg_positions : position list }
type query_spans = { span_a : atom_span; span_b : atom_span }

let query_spanned s =
  let* tokens = tokenize s in
  let* (name_a, pos_a, args_a, bar_a), rest = parse_tuple tokens in
  let* (name_b, pos_b, args_b, bar_b), rest = parse_tuple rest in
  let* () =
    match rest with
    | [] -> Ok ()
    | (_, pos) :: _ -> err ~pos "trailing input after second atom"
  in
  let* () =
    if String.equal name_a name_b then Ok ()
    else
      err ~pos:pos_b ~kind:Mismatch
        "the two atoms must use the same relation symbol (%s vs %s)" name_a name_b
  in
  let arity = List.length args_a in
  let* () =
    if List.length args_b = arity then Ok ()
    else
      err ~pos:pos_b ~kind:Mismatch "the two atoms must have the same arity (%d vs %d)"
        arity (List.length args_b)
  in
  let* () = if arity > 0 then Ok () else err ~pos:pos_a "atoms must have arity >= 1" in
  let* key_len =
    match (bar_a, bar_b) with
    | Some l, Some l' when l = l' -> Ok l
    | Some l, None | None, Some l -> Ok l
    | None, None -> Ok arity
    | Some l, Some l' ->
        err ~pos:pos_b ~kind:Mismatch "inconsistent key separators (%d vs %d)" l l'
  in
  let schema = Schema.make ~name:name_a ~arity ~key_len in
  let atom name args = Atom.make name (List.map (fun (id, _) -> term_of_ident id) args) in
  let* q =
    match Query.make schema (atom name_a args_a) (atom name_b args_b) with
    | Ok q -> Ok q
    | Error msg -> err "%s" msg
  in
  let span rel_pos args = { rel_pos; arg_positions = List.map snd args } in
  Ok (q, { span_a = span pos_a args_a; span_b = span pos_b args_b })

let query s = Result.map fst (query_spanned s)

let query_exn s =
  match query s with
  | Ok q -> q
  | Error e -> invalid_arg ("Parse.query: " ^ error_to_string e)

let fact_of_tokens tokens =
  let* (name, _, args, bar), rest = parse_tuple tokens in
  let* () =
    match rest with
    | [] -> Ok ()
    | (_, pos) :: _ -> err ~pos "trailing input after fact"
  in
  let* () = if args <> [] then Ok () else err "facts must have arity >= 1" in
  Ok (Fact.make name (List.map (fun (id, _) -> value_of_ident id) args), bar)

let fact s =
  let* tokens = tokenize s in
  fact_of_tokens tokens

let strip_comment line =
  match String.index_opt line '#' with
  | None -> line
  | Some i -> String.sub line 0 i

let parse_schema_decl tokens =
  match List.map fst tokens with
  | [ Ident name; Lbracket; Ident k; Comma; Ident l; Rbracket ] -> (
      match (int_of_string_opt k, int_of_string_opt l) with
      | Some arity, Some key_len -> Some (Schema.make ~name ~arity ~key_len)
      | _, _ -> None)
  | _ -> None

let database s =
  let lines =
    String.split_on_char '\n' s
    |> List.mapi (fun i l -> (i + 1, String.trim (strip_comment l)))
    |> List.filter (fun (_, l) -> l <> "")
  in
  let rec go schemas pending = function
    | [] -> Ok (List.rev schemas, List.rev pending)
    | (lineno, text) :: rest -> (
        let* tokens = Result.map_error (error_at_line lineno) (tokenize text) in
        match parse_schema_decl tokens with
        | Some sc -> go (sc :: schemas) pending rest
        | None ->
            let* f, bar =
              Result.map_error (error_at_line lineno) (fact_of_tokens tokens)
            in
            go schemas ((f, bar, lineno) :: pending) rest)
  in
  let* schemas, facts = go [] [] lines in
  (* Infer schemas for relations without a declaration, using the bar. *)
  let* schemas =
    List.fold_left
      (fun acc (f, bar, lineno) ->
        let* acc = acc in
        let rel = f.Fact.rel in
        if List.exists (fun (sc : Schema.t) -> String.equal sc.Schema.name rel) acc
        then Ok acc
        else
          match bar with
          | Some key_len ->
              Ok (Schema.make ~name:rel ~arity:(Fact.arity f) ~key_len :: acc)
          | None ->
              err
                ~pos:{ line = lineno; col = 1 }
                "no schema for relation %s: declare %s[k,l] or use a '|'" rel rel)
      (Ok schemas) facts
  in
  let* () = if schemas <> [] then Ok () else err "empty database file" in
  try Ok (Database.of_facts schemas (List.map (fun (f, _, _) -> f) facts))
  with Invalid_argument msg -> err "%s" msg

let database_exn s =
  match database s with
  | Ok db -> db
  | Error e -> invalid_arg ("Parse.database: " ^ error_to_string e)

(* Minimal CSV: separator-split with support for double-quoted cells
   (doubled quotes escape). *)
let split_csv_line separator line =
  let n = String.length line in
  let cells = ref [] in
  let buf = Buffer.create 16 in
  let flush () =
    cells := Buffer.contents buf :: !cells;
    Buffer.clear buf
  in
  let rec go i in_quotes =
    if i >= n then begin
      flush ();
      Ok (List.rev !cells)
    end
    else
      let c = line.[i] in
      if in_quotes then
        if c = '"' then
          if i + 1 < n && line.[i + 1] = '"' then begin
            Buffer.add_char buf '"';
            go (i + 2) true
          end
          else go (i + 1) false
        else begin
          Buffer.add_char buf c;
          go (i + 1) true
        end
      else if c = '"' && Buffer.length buf = 0 then go (i + 1) true
      else if c = separator then begin
        flush ();
        go (i + 1) false
      end
      else begin
        Buffer.add_char buf c;
        go (i + 1) false
      end
  in
  go 0 false

let csv ?(separator = ',') ?(skip_header = false) ~schema s =
  let lines =
    String.split_on_char '\n' s
    |> List.mapi (fun i l -> (i + 1, String.trim l))
    |> List.filter (fun (_, l) -> l <> "")
  in
  let lines =
    if skip_header then match lines with _ :: r -> r | [] -> [] else lines
  in
  let arity = schema.Schema.arity in
  let* facts =
    List.fold_left
      (fun acc (lineno, line) ->
        let* acc = acc in
        let* cells = split_csv_line separator line in
        if List.length cells <> arity then
          err
            ~pos:{ line = lineno; col = 1 }
            "csv row %S has %d cells, expected %d" line (List.length cells) arity
        else
          let values =
            List.map
              (fun cell ->
                let cell = String.trim cell in
                match int_of_string_opt cell with
                | Some n -> Value.int n
                | None -> Value.str cell)
              cells
          in
          Ok (Fact.make schema.Schema.name values :: acc))
      (Ok []) lines
  in
  try Ok (Database.of_facts [ schema ] (List.rev facts))
  with Invalid_argument msg -> err "%s" msg
