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

(* The one lexer, over the bytes [pos .. stop - 1] of [src]. [line] and
   [col] are the 1-based position of [pos]; a lexeme's first byte and
   position are kept in [start], [tline] and [tcol]. *)
type cursor = {
  src : string;
  mutable stop : int;
  mutable pos : int;
  mutable line : int;
  mutable col : int;
  mutable start : int;
  mutable tline : int;
  mutable tcol : int;
}

(* A [Word] is an identifier, the bytes [start .. pos - 1]; [Punct] is
   never [Ident]. *)
type lexeme = Word | Punct of token | End | Illegal

let cursor src ~pos ~stop ~line =
  { src; stop; pos; line; col = 1; start = pos; tline = line; tcol = 1 }

let advance c bytes cols =
  c.pos <- c.pos + bytes;
  c.col <- c.col + cols

(* Blanks, newlines and the conjunction signs "&&", "/\\" and "∧" (UTF-8,
   one display column) separate lexemes and are skipped. *)
let rec lex c =
  let s = c.src and i = c.pos in
  if i >= c.stop then End
  else
    match s.[i] with
    | '\n' ->
        c.pos <- i + 1;
        c.line <- c.line + 1;
        c.col <- 1;
        lex c
    | ' ' | '\t' | '\r' ->
        advance c 1 1;
        lex c
    | '&' when i + 1 < c.stop && s.[i + 1] = '&' ->
        advance c 2 2;
        lex c
    | '/' when i + 1 < c.stop && s.[i + 1] = '\\' ->
        advance c 2 2;
        lex c
    | '\xe2' when i + 2 < c.stop && s.[i + 1] = '\x88' && s.[i + 2] = '\xa7' ->
        advance c 3 1;
        lex c
    | ch when is_ident_char ch ->
        c.start <- i;
        c.tline <- c.line;
        c.tcol <- c.col;
        let j = ref (i + 1) in
        while !j < c.stop && is_ident_char s.[!j] do
          incr j
        done;
        advance c (!j - i) (!j - i);
        Word
    | ch -> (
        c.start <- i;
        c.tline <- c.line;
        c.tcol <- c.col;
        let lexeme =
          match ch with
          | '(' -> Punct Lpar
          | ')' -> Punct Rpar
          | '|' -> Punct Bar
          | '[' -> Punct Lbracket
          | ']' -> Punct Rbracket
          | ',' -> Punct Comma
          | _ -> Illegal
        in
        match lexeme with
        | Illegal -> Illegal
        | _ ->
            advance c 1 1;
            lexeme)

let lexeme_pos c = { line = c.tline; col = c.tcol }

let lex_error c =
  err ~pos:(lexeme_pos c) ~kind:Lex "unexpected character %C" c.src.[c.start]

(* Tokens carry the 1-based line/column of their first character. *)
let tokenize s =
  let c = cursor s ~pos:0 ~stop:(String.length s) ~line:1 in
  let rec go acc =
    match lex c with
    | End -> Ok (List.rev acc)
    | Illegal -> lex_error c
    | Word -> go ((Ident (String.sub s c.start (c.pos - c.start)), lexeme_pos c) :: acc)
    | Punct tok -> go ((tok, lexeme_pos c) :: acc)
  in
  go []

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

(* The fact reader, for database lines and [fact] alike: one fact read
   straight off the cursor, each value built from its identifier's bytes,
   with no token list. Errors keep the precedence of lexing the whole input
   before parsing it: after a syntax error the rest is lexed, and an
   illegal character there wins. *)
let rec lex_rest c e =
  match lex c with End -> e | Illegal -> lex_error c | Word | Punct _ -> lex_rest c e

(* A syntax error at the last lexeme read. *)
let syntax_error c message = lex_rest c (err ~pos:(lexeme_pos c) "%s" message)

(* The int a run of at most 18 decimal digits spells, or -1 for any other
   word: the [Int] that [int_of_string] reads, without its string. *)
let rec decimal s i stop n =
  if i >= stop then n
  else
    match s.[i] with
    | '0' .. '9' as ch -> decimal s (i + 1) stop ((10 * n) + Char.code ch - 48)
    | _ -> -1

let word_value c =
  let len = c.pos - c.start in
  let n = if len <= 18 then decimal c.src c.start c.pos 0 else -1 in
  if n >= 0 then Value.int n else value_of_ident (String.sub c.src c.start len)

(* The values of a fact after its '(' ([vals] reversed, [n] of them) up to
   its ')', then the end of the input; [bar] counts the values before the
   '|', -1 before one is read. *)
let rec read_args c name vals n bar =
  match lex c with
  | Word -> read_args c name (word_value c :: vals) (n + 1) bar
  | Punct Comma -> read_args c name vals n bar
  | Punct Bar ->
      if bar < 0 then read_args c name vals n n
      else syntax_error c "duplicate key separator '|'"
  | Punct Rpar -> (
      match lex c with
      | End ->
          if n = 0 then err "facts must have arity >= 1"
          else Ok (Fact.make name (List.rev vals), if bar < 0 then None else Some bar)
      | Illegal -> lex_error c
      | Word | Punct _ -> syntax_error c "trailing input after fact")
  | Punct (Lpar | Lbracket | Rbracket | Ident _) -> syntax_error c "malformed tuple"
  | End -> err "unexpected end of input, expected ')'"
  | Illegal -> lex_error c

let not_an_atom = "expected an atom of the form Name(...)"

(* One fact and its bar, the input's only content. *)
let read_fact c =
  match lex c with
  | Word -> (
      let name = String.sub c.src c.start (c.pos - c.start) in
      let line = c.tline and col = c.tcol in
      match lex c with
      | Punct Lpar -> read_args c name [] 0 (-1)
      | Illegal -> lex_error c
      | Word | Punct _ | End ->
          (* The error points at the name, the lexeme after it is read. *)
          lex_rest c (err ~pos:{ line; col } "%s" not_an_atom))
  | Punct _ -> syntax_error c not_an_atom
  | End -> err "%s" not_an_atom
  | Illegal -> lex_error c

let fact s = read_fact (cursor s ~pos:0 ~stop:(String.length s) ~line:1)

let key_marker_error (s : Schema.t) f = function
  | Some l when l <> s.Schema.key_len ->
      Some
        (Printf.sprintf "fact %s declares key length %d but schema %s has %d"
           (Fact.to_string f) l s.Schema.name s.Schema.key_len)
  | Some _ | None -> None

let parse_schema_decl tokens =
  match List.map fst tokens with
  | [ Ident name; Lbracket; Ident k; Comma; Ident l; Rbracket ] -> (
      match (int_of_string_opt k, int_of_string_opt l) with
      | Some arity, Some key_len -> Some (Schema.make ~name ~arity ~key_len)
      | _, _ -> None)
  | _ -> None

(* [String.trim]'s blanks. *)
let is_blank c = c = ' ' || c = '\012' || c = '\n' || c = '\r' || c = '\t'

let rec find_char s ch i stop = if i >= stop || s.[i] = ch then i else find_char s ch (i + 1) stop

(* A line that is not a fact may declare a schema: [R\[k,l\]]. *)
let schema_decl text =
  match tokenize text with Ok tokens -> parse_schema_decl tokens | Error _ -> None

let database s =
  let n = String.length s in
  let c = cursor s ~pos:0 ~stop:0 ~line:1 in
  (* Line [lineno] starts at byte [from]. It is read up to its first '#'
     and without the blanks around it, and its columns count from its
     first byte that is kept. *)
  let rec go lineno from schemas pending =
    if from > n then Ok (List.rev schemas, List.rev pending)
    else
      let eol = find_char s '\n' from n in
      let start = ref from and stop = ref (find_char s '#' from eol) in
      while !start < !stop && is_blank s.[!start] do
        incr start
      done;
      while !stop > !start && is_blank s.[!stop - 1] do
        decr stop
      done;
      if !start = !stop then go (lineno + 1) (eol + 1) schemas pending
      else begin
        c.pos <- !start;
        c.stop <- !stop;
        c.line <- lineno;
        c.col <- 1;
        match read_fact c with
        | Ok (f, bar) -> go (lineno + 1) (eol + 1) schemas ((f, bar, lineno) :: pending)
        | Error e -> (
            match schema_decl (String.sub s !start (!stop - !start)) with
            | Some sc -> go (lineno + 1) (eol + 1) (sc :: schemas) pending
            | None -> Error e)
      end
  in
  let* schemas, facts = go 1 0 [] [] in
  (* Infer schemas for relations without a declaration, using the bar. A
     bar must agree with its relation's schema, declared or inferred; a
     fact of the wrong arity is left to [Database.of_facts]' error. *)
  let rec infer schemas = function
    | [] -> Ok schemas
    | ((f : Fact.t), bar, line) :: rest -> (
        let rel = f.Fact.rel in
        match List.find_opt (fun (sc : Schema.t) -> String.equal sc.Schema.name rel) schemas with
        | Some sc when sc.Schema.arity = Fact.arity f -> (
            match key_marker_error sc f bar with
            | Some message -> Error { message; position = Some { line; col = 1 }; kind = Syntax }
            | None -> infer schemas rest)
        | Some _ -> infer schemas rest
        | None -> (
            match bar with
            | Some key_len ->
                infer (Schema.make ~name:rel ~arity:(Fact.arity f) ~key_len :: schemas) rest
            | None ->
                err ~pos:{ line; col = 1 } "no schema for relation %s: declare %s[k,l] or use a '|'"
                  rel rel))
  in
  let* schemas = infer schemas facts in
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
