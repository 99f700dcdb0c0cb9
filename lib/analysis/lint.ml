module Query = Qlang.Query
module Atom = Qlang.Atom
module Term = Qlang.Term
module Parse = Qlang.Parse
module Certificate = Core.Certificate

type severity = Error | Warning | Info

type diagnostic = {
  code : string;
  severity : severity;
  message : string;
  position : Parse.position option;
}

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let pp_diagnostic ppf d =
  (match d.position with
  | Some p -> Format.fprintf ppf "%d:%d: " p.Parse.line p.Parse.col
  | None -> ());
  Format.fprintf ppf "%s %s: %s" (severity_to_string d.severity) d.code d.message

let severity_rank = function Info -> 0 | Warning -> 1 | Error -> 2

let max_severity ds =
  List.fold_left
    (fun acc d ->
      match acc with
      | None -> Some d.severity
      | Some s -> if severity_rank d.severity > severity_rank s then Some d.severity else acc)
    None ds

(* Position of argument [i] of atom A/B, when spans are available. *)
let arg_position spans ~atom i =
  Option.bind spans (fun s ->
      let span = if atom = `A then s.Parse.span_a else s.Parse.span_b in
      List.nth_opt span.Parse.arg_positions i)

let atom_label = function `A -> "first atom" | `B -> "second atom"

(* QL001: variables occurring exactly once across both atoms. *)
let singleton_variables ?spans (q : Query.t) =
  let occurrences = Hashtbl.create 8 in
  let record atom_tag (atom : Atom.t) =
    Array.iteri
      (fun i t ->
        match t with
        | Term.Var v ->
            let prev = Option.value ~default:[] (Hashtbl.find_opt occurrences v) in
            Hashtbl.replace occurrences v ((atom_tag, i) :: prev)
        | Term.Cst _ -> ())
      atom.Atom.args
  in
  record `A q.Query.a;
  record `B q.Query.b;
  Hashtbl.fold
    (fun v occs acc ->
      match occs with
      | [ (atom, i) ] ->
          {
            code = "QL001";
            severity = Warning;
            message =
              Printf.sprintf
                "variable %s occurs only once (position %d of the %s); it is \
                 projected away"
                v (i + 1) (atom_label atom);
            position = arg_position spans ~atom i;
          }
          :: acc
      | _ -> acc)
    occurrences []
  |> List.sort compare

(* QL002: constants in key positions. *)
let key_constants ?spans (q : Query.t) =
  let key_len = q.Query.schema.Relational.Schema.key_len in
  let of_atom atom_tag (atom : Atom.t) =
    List.filteri (fun i _ -> i < key_len) (Array.to_list atom.Atom.args)
    |> List.mapi (fun i t -> (i, t))
    |> List.filter_map (fun (i, t) ->
           match t with
           | Term.Cst v ->
               Some
                 {
                   code = "QL002";
                   severity = Warning;
                   message =
                     Printf.sprintf
                       "constant %s in key position %d of the %s: the atom is \
                        confined to a single block"
                       (Relational.Value.to_string v)
                       (i + 1) (atom_label atom_tag);
                   position = arg_position spans ~atom:atom_tag i;
                 }
           | Term.Var _ -> None)
  in
  of_atom `A q.Query.a @ of_atom `B q.Query.b

let classification_diagnostics ?opts (q : Query.t) =
  let r = Core.Dichotomy.classify ?opts q in
  let trivial =
    match r.Core.Dichotomy.verdict with
    | Core.Dichotomy.Ptime (Core.Dichotomy.Trivial t) ->
        [
          {
            code = "QL005";
            severity = Info;
            message =
              Printf.sprintf "query is equivalent to a one-atom query (%s)"
                (match t with
                | Query.Hom_a_to_b -> "a homomorphism maps A into B"
                | Query.Hom_b_to_a -> "a homomorphism maps B into A"
                | Query.Equal_key_tuples -> "the key tuples coincide");
            position = None;
          };
        ]
    | _ -> []
  in
  let hard =
    match r.Core.Dichotomy.verdict with
    | Core.Dichotomy.Conp_complete _ ->
        [
          {
            code = "QL007";
            severity = Info;
            message =
              Printf.sprintf
                "CERTAIN(q) is coNP-complete (%s); exact solving may be exponential"
                (Certificate.kind_name r.Core.Dichotomy.certificate);
            position = None;
          };
        ]
    | Core.Dichotomy.Ptime _ -> []
  in
  let bounded =
    match Certificate.search_bounds r.Core.Dichotomy.certificate with
    | Some b when r.Core.Dichotomy.bounded_search ->
        [
          {
            code = "QL004";
            severity = Info;
            message =
              Format.asprintf
                "verdict relies on tripath non-existence within bounded search (%a)"
                Certificate.pp_bounds b;
            position = None;
          };
        ]
    | Some _ | None -> []
  in
  trivial @ hard @ bounded

let identical_atoms (q : Query.t) =
  if Atom.equal q.Query.a q.Query.b then
    [
      {
        code = "QL006";
        severity = Warning;
        message = "the two atoms are identical: spell the query with one atom";
        position = None;
      };
    ]
  else []

let lint_query ?opts ?spans q =
  singleton_variables ?spans q @ key_constants ?spans q @ identical_atoms q
  @ classification_diagnostics ?opts q

(* Database-aware lints, run only when the caller supplies an instance. *)
let lint_database ?(block_threshold = 32) ~(query : Query.t) db =
  let blocks = Relational.Database.blocks db in
  let oversized =
    List.filter
      (fun (b : Relational.Block.t) ->
        List.length b.Relational.Block.facts > block_threshold)
      blocks
  in
  let ql008 =
    match oversized with
    | [] -> []
    | _ ->
        let largest =
          List.fold_left
            (fun acc (b : Relational.Block.t) ->
              max acc (List.length b.Relational.Block.facts))
            0 oversized
        in
        [
          {
            code = "QL008";
            severity = Warning;
            message =
              Printf.sprintf
                "%d block%s exceed%s %d facts (largest has %d): the repair \
                 space grows with the product of block sizes, which is what \
                 the coNP tier enumerates"
                (List.length oversized)
                (if List.length oversized = 1 then "" else "s")
                (if List.length oversized = 1 then "s" else "")
                block_threshold largest;
            position = None;
          };
        ]
  in
  let matched =
    [ query.Query.a.Atom.rel; query.Query.b.Atom.rel ]
  in
  let ql009 =
    Relational.Database.schemas db
    |> List.filter_map (fun (s : Relational.Schema.t) ->
           if List.mem s.Relational.Schema.name matched then None
           else
             Some
               {
                 code = "QL009";
                 severity = Info;
                 message =
                   Printf.sprintf
                     "relation %s is never matched by either atom of the query"
                     s.Relational.Schema.name;
                 position = None;
               })
  in
  let ql010 =
    if Relational.Database.is_consistent db then
      [
        {
          code = "QL010";
          severity = Warning;
          message =
            "database is already consistent: CERTAIN(q) coincides with \
             standard evaluation, no repair reasoning is needed";
          position = None;
        };
      ]
    else []
  in
  ql008 @ ql009 @ ql010

let lint_spanned ?opts parsed =
  match parsed with
  | Ok (q, spans) -> lint_query ?opts ~spans q
  | Error e ->
      let code = match e.Parse.kind with Parse.Mismatch -> "QL003" | _ -> "QL000" in
      [ { code; severity = Error; message = e.Parse.message; position = e.Parse.position } ]
