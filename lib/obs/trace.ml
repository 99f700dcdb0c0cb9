type value =
  | Bool of bool
  | Int of int
  | Float of float
  | String of string

type span = {
  id : int;
  parent : int option;
  name : string;
  start_s : float;
  duration_s : float;
  attrs : (string * value) list;
}

type open_span = {
  o_id : int;
  o_parent : int option;
  o_name : string;
  o_start : float;
  mutable o_attrs : (string * value) list;  (* reversed *)
}

type t = {
  clock : unit -> float;
  epoch : float;
  cap : int;
  mutable next_id : int;
  mutable stack : open_span list;  (* innermost first *)
  (* Closed spans live in a bounded ring: [buf] grows geometrically up to
     [cap], then wraps — slot [count mod cap] — dropping the oldest-closed
     span. A recorder in a week-long daemon stays O(capacity) while the
     drop count keeps truncation visible. *)
  mutable buf : span array;
  mutable count : int;  (* total spans ever closed *)
}

let default_capacity = 65_536

let create ?(clock = Harness.Clock.now) ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Trace.create: capacity must be >= 1";
  { clock; epoch = clock (); cap = capacity; next_id = 0; stack = [];
    buf = [||]; count = 0 }

let capacity t = t.cap
let dropped t = if t.count > t.cap then t.count - t.cap else 0

let push t span =
  if t.count < t.cap then begin
    let blen = Array.length t.buf in
    if t.count >= blen then begin
      let nlen = Stdlib.min t.cap (Stdlib.max 8 (2 * blen)) in
      let nb = Array.make nlen span in
      Array.blit t.buf 0 nb 0 blen;
      t.buf <- nb
    end;
    t.buf.(t.count) <- span
  end
  else t.buf.(t.count mod t.cap) <- span;
  t.count <- t.count + 1

let now t = t.clock () -. t.epoch

let enter t attrs name =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.stack with [] -> None | o :: _ -> Some o.o_id in
  t.stack <-
    { o_id = id; o_parent = parent; o_name = name; o_start = now t;
      o_attrs = List.rev attrs }
    :: t.stack

let close t =
  match t.stack with
  | [] -> ()
  | o :: rest ->
      t.stack <- rest;
      push t
        {
          id = o.o_id;
          parent = o.o_parent;
          name = o.o_name;
          start_s = o.o_start;
          duration_s = now t -. o.o_start;
          attrs = List.rev o.o_attrs;
        }

let add_attr t key v =
  match t.stack with [] -> () | o :: _ -> o.o_attrs <- (key, v) :: o.o_attrs

let with_span t ?(attrs = []) name f =
  enter t attrs name;
  match f () with
  | v ->
      close t;
      v
  | exception e ->
      add_attr t "raised" (String (Printexc.to_string e));
      close t;
      raise e

let spans t =
  let retained = Stdlib.min t.count t.cap in
  let out = ref [] in
  for i = retained - 1 downto 0 do
    out := t.buf.(i) :: !out
  done;
  List.sort (fun a b -> compare a.id b.id) !out

let open_spans t = List.length t.stack
