module Query = Qlang.Query
module Atom = Qlang.Atom
module Term = Qlang.Term
module Schema = Relational.Schema

(* Restricted growth strings of length n: s.(0) = 0 and
   s.(i) <= 1 + max(s.(0..i-1)). Each string is a canonical variable-naming
   pattern; they enumerate set partitions of the positions. *)
let growth_strings n =
  let rec go prefix maxv i acc =
    if i = n then List.rev prefix :: acc
    else
      let acc = ref acc in
      for v = 0 to maxv + 1 do
        acc := go (v :: prefix) (max maxv v) (i + 1) !acc
      done;
      !acc
  in
  if n = 0 then [ [] ] else go [] (-1) 0 []

(* Canonical renaming of an arbitrary index sequence: first occurrence
   order. *)
let canonicalize seq =
  let table = Hashtbl.create 8 in
  List.map
    (fun v ->
      match Hashtbl.find_opt table v with
      | Some c -> c
      | None ->
          let c = Hashtbl.length table in
          Hashtbl.add table v c;
          c)
    seq

let var_name i = Printf.sprintf "v%d" i

let query_of_string ~arity ~key_len seq =
  let schema = Schema.make ~name:"R" ~arity ~key_len in
  let terms = List.map (fun i -> Term.var (var_name i)) seq in
  let rec split i acc = function
    | rest when i = arity -> (List.rev acc, rest)
    | t :: rest -> split (i + 1) (t :: acc) rest
    | [] -> invalid_arg "Atlas: sequence too short"
  in
  let args_a, args_b = split 0 [] terms in
  Query.make_exn schema (Atom.make "R" args_a) (Atom.make "R" args_b)

let enumerate ~arity ~key_len =
  if arity < 1 || key_len < 0 || key_len > arity then
    invalid_arg "Atlas.enumerate: invalid signature";
  growth_strings (2 * arity)
  |> List.filter_map (fun seq ->
         (* Break the AB ~ BA symmetry: keep the representative whose
            canonical form is lexicographically minimal. *)
         let rec split i acc = function
           | rest when i = arity -> (List.rev acc, rest)
           | x :: rest -> split (i + 1) (x :: acc) rest
           | [] -> assert false
         in
         let a, b = split 0 [] seq in
         let swapped = canonicalize (b @ a) in
         if List.compare Int.compare seq swapped <= 0 then
           Some (query_of_string ~arity ~key_len seq)
         else None)

type entry = { query : Query.t; report : Dichotomy.report }

type summary = {
  total : int;
  trivial : int;
  cert2 : int;
  no_tripath : int;
  triangle : int;
  fork : int;
  sjf_hard : int;
}

let classify_all ?opts queries =
  List.map (fun query -> { query; report = Dichotomy.classify ?opts query }) queries

let summarize entries =
  List.fold_left
    (fun acc e ->
      let acc = { acc with total = acc.total + 1 } in
      match e.report.Dichotomy.verdict with
      | Dichotomy.Ptime (Dichotomy.Trivial _) -> { acc with trivial = acc.trivial + 1 }
      | Dichotomy.Ptime Dichotomy.Cert2 -> { acc with cert2 = acc.cert2 + 1 }
      | Dichotomy.Ptime Dichotomy.Certk_no_tripath ->
          { acc with no_tripath = acc.no_tripath + 1 }
      | Dichotomy.Ptime (Dichotomy.Combined_triangle _) ->
          { acc with triangle = acc.triangle + 1 }
      | Dichotomy.Conp_complete (Dichotomy.Fork_tripath _) -> { acc with fork = acc.fork + 1 }
      | Dichotomy.Conp_complete Dichotomy.Sjf_hard -> { acc with sjf_hard = acc.sjf_hard + 1 })
    { total = 0; trivial = 0; cert2 = 0; no_tripath = 0; triangle = 0; fork = 0; sjf_hard = 0 }
    entries

let pp_summary ppf s =
  Format.fprintf ppf
    "@[<v>total queries:          %4d@,PTIME trivial:          %4d@,PTIME Cert_2 (Thm 4):   %4d@,PTIME no tripath (9):   %4d@,PTIME triangle (18):    %4d@,coNP fork (Thm 12):     %4d@,coNP sjf (Thm 3):       %4d@]"
    s.total s.trivial s.cert2 s.no_tripath s.triangle s.fork s.sjf_hard
