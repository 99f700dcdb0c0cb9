type t =
  | Int of int
  | Str of string
  | Pair of t * t

let int n = Int n
let str s = Str s
let pair a b = Pair (a, b)
let triple a b c = Pair (a, Pair (b, c))
let tag label v = Pair (Str label, v)

let rec compare v1 v2 =
  match (v1, v2) with
  | Int a, Int b -> Stdlib.compare a b
  | Int _, (Str _ | Pair _) -> -1
  | Str _, Int _ -> 1
  | Str a, Str b -> String.compare a b
  | Str _, Pair _ -> -1
  | Pair _, (Int _ | Str _) -> 1
  | Pair (a1, b1), Pair (a2, b2) ->
      let c = compare a1 a2 in
      if c <> 0 then c else compare b1 b2

let equal v1 v2 = compare v1 v2 = 0

(* [Hashtbl.hash] of an immediate or a string allocates nothing; a pair
   mixes its halves into one int rather than hashing a boxed tuple. *)
let rec hash = function
  | Int n -> Hashtbl.hash n
  | Str s -> Hashtbl.hash s
  | Pair (a, b) -> Hashtbl.hash ((hash a * 65599) + hash b + 2)

let rec pp ppf = function
  | Int n -> Format.pp_print_int ppf n
  | Str s -> Format.pp_print_string ppf s
  | Pair (a, b) -> Format.fprintf ppf "@[<h>\u{27E8}%a,%a\u{27E9}@]" pp a pp b

let to_string v = Format.asprintf "%a" pp v

(* A nonnegative int's decimal digits, written without a string. *)
let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let hex = "0123456789ABCDEF"

(* A digits-only string printed plainly would collide with the [Int] that
   prints the same; escaping its first character keeps the map injective. *)
let add_str buf s =
  let all_digits = s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s in
  for i = 0 to String.length s - 1 do
    let c = String.unsafe_get s i in
    let plain =
      (c >= 'a' && c <= 'z')
      || (c >= 'A' && c <= 'Z')
      || (c >= '0' && c <= '9')
      || c = '_'
    in
    if plain && not (all_digits && i = 0) then Buffer.add_char buf c
    else begin
      Buffer.add_char buf '\'';
      Buffer.add_char buf hex.[Char.code c lsr 4];
      Buffer.add_char buf hex.[Char.code c land 15]
    end
  done

let rec add_token buf = function
  | Int n when n >= 0 -> add_digits buf n
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Str s -> add_str buf s
  | Pair (a, b) ->
      Buffer.add_char buf '<';
      add_token buf a;
      Buffer.add_char buf '-';
      add_token buf b;
      Buffer.add_char buf '>'

let to_token v =
  let buf = Buffer.create 16 in
  add_token buf v;
  Buffer.contents buf

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
