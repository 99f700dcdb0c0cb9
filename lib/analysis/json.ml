type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let add_escaped buf s =
  if not (String.exists needs_escape s) then Buffer.add_string buf s
  else
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

(* The C primitive behind [Printf]'s [%g]: the same text, without
   interpreting a format at each call. *)
external format_float : string -> float -> string = "caml_format_float"

let g_formats = Array.init 18 (fun p -> "%." ^ string_of_int p ^ "g")

(* Shortest decimal representation that reads back as exactly the same
   float, always containing '.' or 'e' so a reader keeps it a Float: the
   text a scan of precisions 1, 2, ..., 17 stops at (17 digits always read
   back). Up to 15 digits, read-back is monotone in the precision, so when
   15 digits read back the shortest precision is bisected below them. From
   15 to 16 it is not: at eight powers of two (2^149, ...), whose lower
   neighbour is nearer than the upper one, 15 digits read back and 16 do
   not. Measured times need 16 or 17 digits, so they take two or three
   probes. *)
let float_repr f =
  let probe p =
    let s = format_float g_formats.(p) f in
    if float_of_string s = f then Some s else None
  in
  (* [hi] reads back as [s_hi]; no precision below [lo] does. *)
  let rec shortest lo hi s_hi =
    if lo >= hi then s_hi
    else
      let mid = (lo + hi) / 2 in
      match probe mid with
      | Some s -> shortest lo mid s
      | None -> shortest (mid + 1) hi s_hi
  in
  let s =
    match probe 15 with
    | Some s -> shortest 1 15 s
    | None -> ( match probe 16 with Some s -> s | None -> format_float g_formats.(17) f)
  in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
  else s ^ ".0"

let rec render buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f ->
      (* JSON has no literal for nan/infinity; null is the conventional
         degradation. *)
      Buffer.add_string buf (if Float.is_finite f then float_repr f else "null")
  | String s ->
      Buffer.add_char buf '"';
      add_escaped buf s;
      Buffer.add_char buf '"'
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buf ", ";
          render buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (key, value) ->
          if i > 0 then Buffer.add_string buf ", ";
          Buffer.add_char buf '"';
          add_escaped buf key;
          Buffer.add_string buf "\": ";
          render buf value)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  render buf v;
  Buffer.contents buf

let pp ppf v = Format.pp_print_string ppf (to_string v)

(* Recursive-descent parser, the inverse of [pp]. It accepts standard JSON
   (RFC 8259) documents; numbers with '.', 'e' or 'E', or too large for a
   native [int], become [Float]. *)

exception Parse_error of int * string

let of_string input =
  let n = String.length input in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then Some input.[!pos] else None in
  let advance () = incr pos in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> fail (Printf.sprintf "expected '%c', found '%c'" c c')
    | None -> fail (Printf.sprintf "expected '%c', found end of input" c)
  in
  let skip_ws () =
    while
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          true
      | _ -> false
    do
      ()
    done
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub input !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let add_utf8 buf code =
    (* Encode a Unicode scalar value as UTF-8. *)
    if code < 0x80 then Buffer.add_char buf (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else if code < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let s = String.sub input !pos 4 in
    pos := !pos + 4;
    match int_of_string_opt ("0x" ^ s) with
    | Some c -> c
    | None -> fail (Printf.sprintf "invalid \\u escape \\u%s" s)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | None -> fail "unterminated escape"
          | Some c ->
              advance ();
              (match c with
              | '"' -> Buffer.add_char buf '"'
              | '\\' -> Buffer.add_char buf '\\'
              | '/' -> Buffer.add_char buf '/'
              | 'b' -> Buffer.add_char buf '\b'
              | 'f' -> Buffer.add_char buf '\012'
              | 'n' -> Buffer.add_char buf '\n'
              | 'r' -> Buffer.add_char buf '\r'
              | 't' -> Buffer.add_char buf '\t'
              | 'u' ->
                  let c1 = hex4 () in
                  if c1 >= 0xD800 && c1 <= 0xDBFF then begin
                    (* High surrogate: must pair with \uDC00-\uDFFF. *)
                    expect '\\';
                    expect 'u';
                    let c2 = hex4 () in
                    if c2 < 0xDC00 || c2 > 0xDFFF then fail "unpaired surrogate"
                    else
                      add_utf8 buf
                        (0x10000 + ((c1 - 0xD800) lsl 10) + (c2 - 0xDC00))
                  end
                  else if c1 >= 0xDC00 && c1 <= 0xDFFF then
                    fail "unpaired surrogate"
                  else add_utf8 buf c1
              | c -> fail (Printf.sprintf "invalid escape \\%c" c));
              go ())
      | Some c when Char.code c < 0x20 -> fail "control character in string"
      | Some c ->
          advance ();
          Buffer.add_char buf c;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    if peek () = Some '-' then advance ();
    let digits () =
      let seen = ref false in
      while match peek () with Some '0' .. '9' -> true | _ -> false do
        seen := true;
        advance ()
      done;
      if not !seen then fail "expected digit"
    in
    digits ();
    if peek () = Some '.' then begin
      is_float := true;
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        is_float := true;
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ());
    let s = String.sub input start (!pos - start) in
    if !is_float then Float (float_of_string s)
    else
      match int_of_string_opt s with
      | Some i -> Int i
      | None -> Float (float_of_string s)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "expected a value, found end of input"
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (v :: acc)
            | Some ']' ->
                advance ();
                List (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          items []
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else
          let field () =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (key, v)
          in
          let rec fields acc =
            let kv = field () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields (kv :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev (kv :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          fields []
    | Some c -> fail (Printf.sprintf "unexpected character '%c'" c)
  in
  try
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then Error (Printf.sprintf "offset %d: trailing garbage" !pos)
    else Ok v
  with
  | Parse_error (p, msg) -> Error (Printf.sprintf "offset %d: %s" p msg)
  | Failure msg -> Error msg

(* Accessors for consumers of parsed documents. *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_list_opt = function List l -> Some l | _ -> None
let to_int_opt = function Int i -> Some i | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_string_opt = function String s -> Some s | _ -> None
