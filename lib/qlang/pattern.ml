module Compiled = Relational.Compiled

(* One tuple position of a compiled atom. [Bind] is the first occurrence of
   a variable anywhere in the pattern (claims its environment slot); [Check]
   is every later occurrence. Environment slots hold interned value ids,
   [-1] until a row first writes them. *)
type slot = Const of int | Bind of int | Check of int

type atom = {
  rel : int;  (* index into the plane's schemas; -1 when unsatisfiable *)
  slots : slot array;
  ok : bool;  (* relation known and every constant interned *)
}

type pair = { plane : Compiled.t; pa : atom; pb : atom; n_vars : int }
type single = { splane : Compiled.t; satom : atom; senv : int array }

let compile_atom plane vars (a : Atom.t) =
  let ok = ref true in
  let slots =
    Array.map
      (function
        | Term.Cst v -> (
            match Compiled.find_value plane v with
            | Some id -> Const id
            | None ->
                (* The constant occurs nowhere in the database: no fact can
                   match. *)
                ok := false;
                Const (-1))
        | Term.Var x -> (
            match Hashtbl.find_opt vars x with
            | Some slot -> Check slot
            | None ->
                let slot = Hashtbl.length vars in
                Hashtbl.add vars x slot;
                Bind slot))
      a.Atom.args
  in
  let rel =
    match Compiled.rel_index plane a.Atom.rel with
    | Some r -> r
    | None ->
        ok := false;
        -1
  in
  { rel; slots; ok = !ok }

let pair plane a b =
  let vars = Hashtbl.create 8 in
  let pa = compile_atom plane vars a in
  let pb = compile_atom plane vars b in
  { plane; pa; pb; n_vars = Hashtbl.length vars }

(* Match slots [i ..] of an atom against the interned tuple. A [Bind]
   writes its slot unconditionally: it is the first occurrence of its
   variable in the pattern (Verify_pattern's PL111), so every [Check]
   reads a slot that this row, or the [a]-row being probed, has just
   written, and a value left over from an earlier row is overwritten
   before anything reads it, so no slot is reset between rows. *)
let rec match_from slots (tuple : int array) env i =
  i >= Array.length slots
  ||
  let v = tuple.(i) in
  (match slots.(i) with
  | Const c -> v = c
  | Check x -> env.(x) = v
  | Bind x ->
      env.(x) <- v;
      true)
  && match_from slots tuple env (i + 1)

let match_atom p (tuple : int array) env =
  Array.length tuple = Array.length p.slots && match_from p.slots tuple env 0

(* The filters of [match_atom] that hold for every environment: the arity
   and the constants. *)
let rec admits_from slots (tuple : int array) i =
  i >= Array.length slots
  || (match slots.(i) with
     | Const c -> tuple.(i) = c
     | Bind _ | Check _ -> true)
     && admits_from slots tuple (i + 1)

let admits a (tuple : int array) =
  Array.length tuple = Array.length a.slots && admits_from a.slots tuple 0

(* The join key: every position of [b] holding a [Check] of a variable that
   [a] binds, paired with that variable's slot. Once an [a]-row matches, a
   [b]-row can complete the pair only if it holds the bound values there. *)
let join_key p =
  let bound_by_a x =
    Array.exists (function Bind y -> y = x | Const _ | Check _ -> false) p.pa.slots
  in
  let key = ref [] in
  Array.iteri
    (fun col -> function
      | Check x when bound_by_a x -> key := (col, x) :: !key
      | Const _ | Bind _ | Check _ -> ())
    p.pb.slots;
  (Array.of_list (List.rev_map fst !key), Array.of_list (List.rev_map snd !key))

(* [key_hash v keys] mixes [v.(keys.(0))], [v.(keys.(1))], ... — the
   values of a tuple at the key columns, or of the environment at the key
   variables. *)
let key_hash (v : int array) keys =
  let h = ref 0 in
  for k = 0 to Array.length keys - 1 do
    h := (!h * 0x1000193) lxor v.(keys.(k))
  done;
  !h

(* A hash index over the [b]-rows that pass [admits], in CSR form: the rows
   of bucket [h] are [rows.(start.(h)) .. rows.(start.(h + 1) - 1)], in
   ascending order. The bucket count is a power of two no smaller than the
   range, so both arrays are sized to |B|. The first pass counts the rows
   of each bucket into [start.(h)], and a running sum turns each count
   into the end of its bucket. The second pass places rows from the top
   down, stepping [start.(h)] back before each one, so it ends at the
   bucket's first row. *)
let index_b p cols blo bhi =
  let tuples = p.plane.Compiled.tuples in
  let n_buckets =
    let rec grow m = if m >= bhi - blo then m else grow (2 * m) in
    grow 1
  in
  let mask = n_buckets - 1 in
  let start = Array.make (n_buckets + 1) 0 in
  for j = blo to bhi - 1 do
    if admits p.pb tuples.(j) then begin
      let h = key_hash tuples.(j) cols land mask in
      start.(h) <- start.(h) + 1
    end
  done;
  for h = 1 to n_buckets do
    start.(h) <- start.(h) + start.(h - 1)
  done;
  let rows = Array.make (max 1 start.(n_buckets)) 0 in
  for j = bhi - 1 downto blo do
    if admits p.pb tuples.(j) then begin
      let h = key_hash tuples.(j) cols land mask in
      start.(h) <- start.(h) - 1;
      rows.(start.(h)) <- j
    end
  done;
  (start, rows, mask)

(* One keyed join. Each [a]-row that matches probes the one bucket its
   bindings hash to; every row there is re-checked by [match_atom], so a
   hash collision costs a failed match, never a wrong pair. Rows inside a
   bucket ascend, so pairs come out in lexicographic order, exactly as a
   nested loop over both ranges would emit them. A [b]-row writes only
   the slots of variables [a] does not hold, so the [a]-row's bindings
   stay intact from one candidate to the next. *)
let iter_pairs ?tick p f =
  if p.pa.ok && p.pb.ok then begin
    let plane = p.plane in
    let tuples = plane.Compiled.tuples in
    let env = Array.make (max 1 p.n_vars) (-1) in
    let alo, ahi = plane.Compiled.rel_range.(p.pa.rel) in
    let blo, bhi = plane.Compiled.rel_range.(p.pb.rel) in
    let cols, vars = join_key p in
    let start, rows, mask = index_b p cols blo bhi in
    for i = alo to ahi - 1 do
      (match tick with Some tick -> tick () | None -> ());
      if match_atom p.pa tuples.(i) env then begin
        let h = key_hash env vars land mask in
        for s = start.(h) to start.(h + 1) - 1 do
          let j = rows.(s) in
          if match_atom p.pb tuples.(j) env then f i j
        done
      end
    done
  end

let single plane a =
  let vars = Hashtbl.create 8 in
  let satom = compile_atom plane vars a in
  { splane = plane; satom; senv = Array.make (max 1 (Hashtbl.length vars)) (-1) }

let matches p i =
  p.satom.ok
  && p.splane.Compiled.rel_of.(i) = p.satom.rel
  && match_atom p.satom p.splane.Compiled.tuples.(i) p.senv

(* Read-only program view for the static analyzer. [op] mirrors [slot]
   constructor for constructor; the copy through [op_of_slot] keeps the
   matcher's arrays unreachable from outside. *)
type op = Const of int | Bind of int | Check of int
type program = { rel : int; ops : op array; ok : bool }

let program_of_atom (a : atom) : program =
  let op_of_slot : slot -> op = function
    | Const c -> Const c
    | Bind x -> Bind x
    | Check x -> Check x
  in
  { rel = a.rel; ops = Array.map op_of_slot a.slots; ok = a.ok }

let pair_programs (p : pair) =
  (program_of_atom p.pa, program_of_atom p.pb, p.n_vars)
