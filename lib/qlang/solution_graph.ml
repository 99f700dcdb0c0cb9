module Fact = Relational.Fact
module Database = Relational.Database
module Block = Relational.Block
module Compiled = Relational.Compiled

type t = {
  facts : Fact.t array;
  block_of : int array;
  blocks : int array array;
  adj : int list array;
  self : bool array;
  directed : (int * int) list;
}

(* The compiled plane already holds the vertex array and the block partition
   in exactly the order this graph needs (sorted fact order; (relation, key)
   block order), so construction is nothing but the solution enumeration —
   no [Fact.Map] index preamble. The arrays are shared with the plane, not
   copied; both structures are read-only after construction. The adjacency
   lists are sorted in place, and only those with two or more entries: an
   empty or one-entry list is already sorted and duplicate-free. *)
let of_compiled ?tick a b plane =
  let n = Compiled.n_facts plane in
  let self = Array.make n false in
  let adj = Array.make n [] in
  let directed = ref [] in
  Pattern.iter_pairs ?tick (Pattern.pair plane a b) (fun i j ->
      if i = j then self.(i) <- true
      else begin
        adj.(i) <- j :: adj.(i);
        adj.(j) <- i :: adj.(j)
      end;
      directed := (i, j) :: !directed);
  for v = 0 to n - 1 do
    match adj.(v) with
    | [] | [ _ ] -> ()
    | ns -> adj.(v) <- List.sort_uniq Int.compare ns
  done;
  {
    facts = plane.Compiled.facts;
    block_of = plane.Compiled.block_of;
    blocks = plane.Compiled.blocks;
    adj;
    self;
    directed = List.rev !directed;
  }

let of_atoms ?tick a b db = of_compiled ?tick a b (Compiled.compile ?tick db)
let of_query ?tick (q : Query.t) db = of_atoms ?tick q.Query.a q.Query.b db

let of_query_compiled ?tick (q : Query.t) plane =
  of_compiled ?tick q.Query.a q.Query.b plane

(* The pre-compilation builder, frozen: an explicit [Fact.Map] index over
   the persistent database and the substitution-based solution enumeration
   of [Solutions.pairs]. Kept as the reference implementation the
   plane-equivalence suite (and the benchmark's persistent-plane baseline)
   measures [of_compiled] against; not used by any solver. *)
let of_atoms_reference a b db =
  let facts = Array.of_list (Database.facts db) in
  let n = Array.length facts in
  let index =
    let m = ref Fact.Map.empty in
    Array.iteri (fun i f -> m := Fact.Map.add f i !m) facts;
    !m
  in
  let idx f = Fact.Map.find f index in
  let block_of = Array.make n (-1) in
  let blocks =
    Database.blocks db
    |> List.mapi (fun bi (blk : Block.t) ->
           let members = List.map idx blk.Block.facts in
           List.iter (fun i -> block_of.(i) <- bi) members;
           Array.of_list members)
    |> Array.of_list
  in
  let self = Array.make n false in
  let adj_sets = Array.make n [] in
  let directed =
    Solutions.pairs a b db
    |> List.map (fun (f, g) ->
           let i = idx f and j = idx g in
           if i = j then self.(i) <- true
           else begin
             adj_sets.(i) <- j :: adj_sets.(i);
             adj_sets.(j) <- i :: adj_sets.(j)
           end;
           (i, j))
  in
  let adj = Array.map (List.sort_uniq Int.compare) adj_sets in
  { facts; block_of; blocks; adj; self; directed }

let equal g1 g2 =
  Array.length g1.facts = Array.length g2.facts
  && Array.for_all2 Fact.equal g1.facts g2.facts
  && g1.block_of = g2.block_of
  && g1.blocks = g2.blocks
  && g1.adj = g2.adj
  && g1.self = g2.self
  && g1.directed = g2.directed
let n_facts g = Array.length g.facts
let n_blocks g = Array.length g.blocks

let index g f =
  let n = n_facts g in
  let rec go i =
    if i >= n then raise Not_found
    else if Fact.equal g.facts.(i) f then i
    else go (i + 1)
  in
  go 0

let edge g i j = i <> j && List.mem j g.adj.(i)

(* Label with [c] every unlabelled vertex of [ws], appending each to the
   breadth-first queue at [tail]; the new tail. *)
let rec enqueue comp c queue tail = function
  | [] -> tail
  | w :: ws ->
      if comp.(w) < 0 then begin
        comp.(w) <- c;
        queue.(tail) <- w;
        enqueue comp c queue (tail + 1) ws
      end
      else enqueue comp c queue tail ws

(* Every vertex enters the queue once, so one array of n slots holds it;
   each component's breadth-first search reuses it from slot 0. *)
let components g =
  let n = n_facts g in
  let comp = Array.make n (-1) in
  let queue = Array.make (max n 1) 0 in
  let next = ref 0 in
  for start = 0 to n - 1 do
    if comp.(start) < 0 then begin
      let c = !next in
      incr next;
      comp.(start) <- c;
      queue.(0) <- start;
      let head = ref 0 and tail = ref 1 in
      while !head < !tail do
        let v = queue.(!head) in
        incr head;
        tail := enqueue comp c queue !tail g.adj.(v)
      done
    end
  done;
  (comp, !next)

(* The neighbours in [ws] that lie in component [c] outside block [b],
   added to [k]. *)
let rec across member block_of c b k = function
  | [] -> k
  | w :: ws ->
      across member block_of c b
        (if member.(w) = c && block_of.(w) <> b then k + 1 else k)
        ws

(* Vertex [v] of component [c] meets the quasi-clique condition iff its
   neighbours outside its own block and inside [c] are all of [c] outside
   that block. Neighbour lists are duplicate-free and never hold [v], so
   comparing the two counts decides it: the size of [c], less [v]'s
   block-mates in [c] (itself included). The blocks partition the
   vertices, so one pass over them, tallying each block's members by
   component, visits every vertex once with its block-mates counted. *)
let quasi_cliques g ~member ~n_comps =
  let size = Array.make n_comps 0 in
  Array.iter (fun c -> size.(c) <- size.(c) + 1) member;
  let flags = Array.make n_comps true in
  let mates = Array.make n_comps 0 in
  Array.iter
    (fun block ->
      for k = 0 to Array.length block - 1 do
        let c = member.(block.(k)) in
        mates.(c) <- mates.(c) + 1
      done;
      for k = 0 to Array.length block - 1 do
        let v = block.(k) in
        let c = member.(v) in
        if across member g.block_of c g.block_of.(v) 0 g.adj.(v) <> size.(c) - mates.(c)
        then flags.(c) <- false
      done;
      for k = 0 to Array.length block - 1 do
        mates.(member.(block.(k))) <- 0
      done)
    g.blocks;
  flags

let is_clique_database g =
  let member, n_comps = components g in
  Array.for_all Fun.id (quasi_cliques g ~member ~n_comps)

let pp ppf g =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun i f ->
      Format.fprintf ppf "%d: %a%s -> [%s]@," i Fact.pp f
        (if g.self.(i) then " (self)" else "")
        (String.concat "," (List.map string_of_int g.adj.(i))))
    g.facts;
  Format.fprintf ppf "@]"
