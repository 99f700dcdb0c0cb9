type t = { rel : string; tuple : Value.t array }

let own rel tuple =
  if Array.length tuple = 0 then invalid_arg "Fact.of_array: empty tuple";
  { rel; tuple }

let of_array rel tuple = own rel (Array.copy tuple)
let make rel values = own rel (Array.of_list values)
let arity f = Array.length f.tuple

let nth f i =
  if i < 0 || i >= Array.length f.tuple then invalid_arg "Fact.nth: out of bounds";
  f.tuple.(i)

let check_schema (s : Schema.t) f =
  if not (String.equal s.Schema.name f.rel && s.Schema.arity = arity f) then
    invalid_arg
      (Format.asprintf "Fact: fact %s/%d does not match schema %a" f.rel
         (arity f) Schema.pp s)

let key s f =
  check_schema s f;
  List.map (fun i -> f.tuple.(i)) (Schema.key_positions s)

let key_set s f = Value.Set.of_list (key s f)
let adom f = Array.fold_left (fun acc v -> Value.Set.add v acc) Value.Set.empty f.tuple

(* Keys are tuple prefixes, so [f ~ g] compares the first [key_len] cells
   in place. *)
let rec same_prefix a b l p =
  p >= l || (Value.equal a.(p) b.(p) && same_prefix a b l (p + 1))

let key_equal s f g =
  String.equal f.rel g.rel && arity f = arity g
  &&
  (check_schema s f;
   same_prefix f.tuple g.tuple s.Schema.key_len 0)

let compare f g =
  let c = String.compare f.rel g.rel in
  if c <> 0 then c
  else
    let c = Int.compare (arity f) (arity g) in
    if c <> 0 then c
    else
      let rec go i =
        if i >= Array.length f.tuple then 0
        else
          let c = Value.compare f.tuple.(i) g.tuple.(i) in
          if c <> 0 then c else go (i + 1)
      in
      go 0

let equal f g = compare f g = 0

let hash f =
  Array.fold_left (fun acc v -> Hashtbl.hash (acc, Value.hash v)) (Hashtbl.hash f.rel) f.tuple

let pp ppf f =
  Format.fprintf ppf "@[<h>%s(%a)@]" f.rel
    (Format.pp_print_array ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ") Value.pp)
    f.tuple

let pp_with_key s ppf f =
  check_schema s f;
  let l = s.Schema.key_len in
  Format.fprintf ppf "@[<h>%s(" f.rel;
  Array.iteri
    (fun i v ->
      if i > 0 then Format.pp_print_string ppf " ";
      if i = l && l < Array.length f.tuple then Format.pp_print_string ppf "| ";
      Value.pp ppf v)
    f.tuple;
  Format.fprintf ppf ")@]"

let to_string f = Format.asprintf "%a" pp f

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
