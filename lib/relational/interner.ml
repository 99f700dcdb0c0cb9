(* Open addressing with linear probing: [slots] holds id + 1 (0 is an empty
   slot), its length is a power of two, and it is doubled whenever the load
   would pass 1/2, so every probe sequence ends at an empty slot. *)
type t = {
  mutable slots : int array;
  mutable values : Value.t array;  (* slots [0 .. next - 1] are live *)
  mutable next : int;
}

let dummy = Value.Int 0

let create () = { slots = Array.make 32 0; values = Array.make 16 dummy; next = 0 }
let size t = t.next

let equal v w =
  match (v, w) with
  | Value.Int a, Value.Int b -> a = b
  | _ -> Value.equal v w

(* The slot index holding [v], or the empty slot where it would go. A
   top-level recursion over explicit arguments, so a probe allocates no
   closure. *)
let rec probe slots values mask v i =
  let s = Array.unsafe_get slots i in
  if s = 0 || equal (Array.unsafe_get values (s - 1)) v then i
  else probe slots values mask v ((i + 1) land mask)

let slot_of t v =
  let mask = Array.length t.slots - 1 in
  probe t.slots t.values mask v (Value.hash v land mask)

let rehash t =
  let slots = Array.make (2 * Array.length t.slots) 0 in
  let mask = Array.length slots - 1 in
  for id = 0 to t.next - 1 do
    let i = probe slots t.values mask t.values.(id) (Value.hash t.values.(id) land mask) in
    slots.(i) <- id + 1
  done;
  t.slots <- slots

let intern t v =
  let i = slot_of t v in
  let s = t.slots.(i) in
  if s > 0 then s - 1
  else begin
    let id = t.next in
    if id = Array.length t.values then begin
      let values = Array.make (2 * id) dummy in
      Array.blit t.values 0 values 0 id;
      t.values <- values
    end;
    t.values.(id) <- v;
    t.next <- id + 1;
    if 2 * t.next > Array.length t.slots then rehash t else t.slots.(i) <- id + 1;
    id
  end

let find t v =
  let s = t.slots.(slot_of t v) in
  if s > 0 then Some (s - 1) else None

let copy t = { slots = Array.copy t.slots; values = Array.copy t.values; next = t.next }

let value t id =
  if id < 0 || id >= t.next then
    invalid_arg (Printf.sprintf "Interner.value: unassigned id %d" id);
  t.values.(id)

let iter f t =
  for id = 0 to t.next - 1 do
    f id t.values.(id)
  done

let unsafe_alias t ~keep ~clobber =
  if keep < 0 || keep >= t.next then
    invalid_arg (Printf.sprintf "Interner.unsafe_alias: unassigned id %d" keep);
  if clobber < 0 || clobber >= t.next then
    invalid_arg
      (Printf.sprintf "Interner.unsafe_alias: unassigned id %d" clobber);
  (* Deliberately skip the [slots] reverse map: the whole point is to break
     the bijection so the sanitizer has something to catch. *)
  t.values.(clobber) <- t.values.(keep)
