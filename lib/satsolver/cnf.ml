type clause = int list
type t = { n_vars : int; clauses : clause list }

let make ~n_vars clauses =
  if n_vars < 0 then invalid_arg "Cnf.make: negative variable count";
  List.iter
    (fun clause ->
      if clause = [] then invalid_arg "Cnf.make: empty clause";
      List.iter
        (fun l ->
          let v = abs l in
          if l = 0 || v > n_vars then
            invalid_arg (Printf.sprintf "Cnf.make: literal %d out of range" l))
        clause)
    clauses;
  { n_vars; clauses }

let falsum = { n_vars = 1; clauses = [ [ 1 ]; [ -1 ] ] }
let verum = { n_vars = 0; clauses = [] }
let n_clauses f = List.length f.clauses

let eval f assignment =
  if Array.length assignment < f.n_vars + 1 then
    invalid_arg "Cnf.eval: assignment too short";
  List.for_all
    (List.exists (fun l ->
         let v = assignment.(abs l) in
         if l > 0 then v else not v))
    f.clauses

let occurrences f =
  let occ = Array.make (f.n_vars + 1) 0 in
  List.iter (List.iter (fun l -> occ.(abs l) <- occ.(abs l) + 1)) f.clauses;
  occ

let polarities f =
  let pos = Array.make (f.n_vars + 1) 0 and neg = Array.make (f.n_vars + 1) 0 in
  List.iter
    (List.iter (fun l ->
         if l > 0 then pos.(l) <- pos.(l) + 1 else neg.(-l) <- neg.(-l) + 1))
    f.clauses;
  Array.init (f.n_vars + 1) (fun v -> (pos.(v), neg.(v)))

let clauses_of_var f v =
  List.mapi (fun i clause -> (i, clause)) f.clauses
  |> List.filter_map (fun (i, clause) ->
         if List.exists (fun l -> abs l = v) clause then Some i else None)

let pp ppf f =
  let pp_lit ppf l =
    if l > 0 then Format.fprintf ppf "x%d" l else Format.fprintf ppf "\u{00AC}x%d" (-l)
  in
  let pp_clause ppf c =
    Format.fprintf ppf "(%a)"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " \u{2228} ")
         pp_lit)
      c
  in
  if f.clauses = [] then Format.pp_print_string ppf "\u{22A4}"
  else
    Format.fprintf ppf "@[<hov>%a@]"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf " \u{2227}@ ")
         pp_clause)
      f.clauses

let to_string f = Format.asprintf "%a" pp f

let parse s =
  let tokens =
    String.split_on_char '\n' s
    |> List.filter (fun line ->
           let t = String.trim line in
           t = "" || (t.[0] <> 'c' && t.[0] <> 'p'))
    |> String.concat " "
    |> String.split_on_char ' '
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun t -> String.trim t <> "")
  in
  let rec go current clauses max_var = function
    | [] ->
        if current = [] then
          Ok (make ~n_vars:max_var (List.rev clauses))
        else Error "unterminated clause (missing 0)"
    | tok :: rest -> (
        match int_of_string_opt tok with
        | None -> Error (Printf.sprintf "bad token %S" tok)
        | Some 0 ->
            if current = [] then Error "empty clause"
            else go [] (List.rev current :: clauses) max_var rest
        | Some l -> go (l :: current) clauses (max max_var (abs l)) rest)
  in
  try go [] [] 0 tokens with Invalid_argument msg -> Error msg
