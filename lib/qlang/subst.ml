type t = Term.t Term.Var_map.t

let empty = Term.Var_map.empty
let is_empty = Term.Var_map.is_empty
let find x s = Term.Var_map.find_opt x s
let bindings s = Term.Var_map.bindings s

let apply_term s t =
  match t with
  | Term.Cst _ -> t
  | Term.Var x -> ( match Term.Var_map.find_opt x s with Some t' -> t' | None -> t)

let apply_atom s a =
  Atom.of_array a.Atom.rel (Array.map (apply_term s) a.Atom.args)

let extend x t s =
  let t = apply_term s t in
  match Term.Var_map.find_opt x s with
  | Some existing -> if Term.equal existing t then Some s else None
  | None ->
      if Term.equal t (Term.Var x) then Some s
      else
        let single = Term.Var_map.singleton x t in
        let rewritten = Term.Var_map.map (fun u -> apply_term single u) s in
        Some (Term.Var_map.add x t rewritten)

let pp ppf s =
  Format.fprintf ppf "@[<h>{%a}@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       (fun ppf (x, t) -> Format.fprintf ppf "%s:=%a" x Term.pp t))
    (bindings s)
