module Compiled = Relational.Compiled
module Pattern = Qlang.Pattern

let diag code message =
  { Lint.code; severity = Lint.Error; message; position = None }

(* Abstract state: which environment slots are definitely bound. Programs of
   one pattern share the environment, so the state threads across them in
   pattern order — exactly the order the matcher executes atoms. *)
let verify_program plane ~n_vars ~bound ~atom_index (p : Pattern.program) =
  if not p.Pattern.ok then []
  else begin
    let errs = ref [] in
    let err code fmt =
      Printf.ksprintf (fun m -> errs := diag code m :: !errs) fmt
    in
    let n_rels = Compiled.n_relations plane in
    let n_values = Compiled.n_values plane in
    let arity = Array.length p.Pattern.ops in
    if p.Pattern.rel < 0 || p.Pattern.rel >= n_rels then
      err "PL113" "atom %d: relation index %d outside schema table [0, %d)"
        atom_index p.Pattern.rel n_rels
    else begin
      let s = plane.Compiled.schemas.(p.Pattern.rel) in
      if arity <> s.Relational.Schema.arity then
        err "PL113" "atom %d: program arity %d but relation %s has arity %d"
          atom_index arity s.Relational.Schema.name s.Relational.Schema.arity
    end;
    Array.iteri
      (fun i op ->
        match op with
        | Pattern.Const c ->
            if c < 0 || c >= n_values then
              err "PL112"
                "atom %d, position %d: Const %d outside interner domain [0, %d)"
                atom_index (i + 1) c n_values
        | Pattern.Bind x ->
            if x < 0 || x >= n_vars then
              err "PL110"
                "atom %d, position %d: Bind slot %d outside environment [0, %d)"
                atom_index (i + 1) x n_vars
            else bound.(x) <- true
        | Pattern.Check x ->
            if x < 0 || x >= n_vars then
              err "PL110"
                "atom %d, position %d: Check slot %d outside environment [0, %d)"
                atom_index (i + 1) x n_vars
            else if not bound.(x) then
              err "PL111"
                "atom %d, position %d: Check reads slot %d before any Bind"
                atom_index (i + 1) x)
      p.Pattern.ops;
    List.rev !errs
  end

let verify_programs plane ~n_vars progs =
  let bound = Array.make (max 1 n_vars) false in
  List.concat
    (List.mapi
       (fun k p -> verify_program plane ~n_vars ~bound ~atom_index:(k + 1) p)
       progs)

let verify_pair plane p =
  let pa, pb, n_vars = Pattern.pair_programs p in
  verify_programs plane ~n_vars [ pa; pb ]

let verify_query plane (q : Qlang.Query.t) =
  verify_pair plane (Pattern.pair plane q.Qlang.Query.a q.Qlang.Query.b)
