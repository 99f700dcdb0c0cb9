module Solution_graph = Qlang.Solution_graph

type reason =
  | Initial of int * int
  | Via_block of int * (int * int list) list

type certificate = { set : int list; why : reason; premises : certificate list }

(* The fixpoint state.

   k-sets live in one int arena, appended in id order: set [id] is the
   sorted vertex slice [arena.(off.(id)) .. arena.(off.(id + 1) - 1)], and
   [off.(n_sets)] is the arena's used length. [table] interns
   slices to dense ids by open addressing (linear probing, load at most
   one half) on a bit-mixing hash; a slot holds [base + id] and the set's
   hash side by side, and a value below [base] marks the slot empty. Ids
   are handed out in first-interning order at fixed points (the empty set
   at the start of every block derivation, every candidate union that
   passes the k-set and subsumption tests, and every admitted seed), so
   they, and everything ordered by them, are a function of the graph
   alone.

   The antichain of minimal derived sets is the ids whose [minimal] flag
   is set. The bucket of [v] lists the ascending ids of those containing
   [v]: [by_vertex.(v).(0)] is their count n and [.(1 .. n)] the ids,
   followed by spare capacity. [derive_for_block] walks the bucket of [u]
   while the admissions it makes prune and extend buckets (admitting [S]
   can prune [S ∪ {u}] from the very bucket being walked), and the walk
   must see the bucket as it was when the walk began. So a walk reads the
   array and its count once, at its node, and the ids below a count are
   never edited in place: a prune or an insertion below the largest id
   builds a new array. Only an id above every entry is written in place,
   into the spare capacity just past the count, which is then raised; a
   walk of that array stops below it, since one array's count only grows
   (a shrink builds a new array). Admitted ids are not all increasing (a
   partial union interned by an earlier derivation can be admitted
   later), so both kinds of insertion occur. In fact no insertion reaches
   a walked bucket at all: every walk in progress is over the bucket of
   a member of the block being derived, and a set derived there meets
   that block nowhere (each premise [T_u] is a k-set holding [u], so
   [T_u \ {u}] holds no other member). The prunes are what the copies
   guard against. Every empty bucket is the shared [no_ids], which has
   no spare capacity and so is never written.

   [subsumed S] asks whether a minimal set is a subset of [S]. It takes the
   cheaper of two exact checks: look each subset of [S] with at least two
   vertices up in [table] and test its [minimal] flag (2^|S| - 1 - |S|
   lookups), or scan the buckets of [S]'s vertices for a subset (their
   summed length). Both give the same answer, so the choice changes only
   the time. A one-vertex subset is never looked up: [single.(v)] is set
   to the run's stamp when {v} is admitted, and only ∅ can prune {v},
   which [empty_derived] answers first.

   How an admitted set was derived never changes, so certificates survive
   antichain pruning. [prov.(id)] is the position of the set's record in
   [slab], or [-1] before it is admitted. A derivation's record is its
   block, then one (u, premise id) pair per member of the block; a seed's
   is [-1 - i], then [j], for the solution pair (i, j) it covers. The slab
   is a list of fixed-size chunks, so it grows without copying: a
   doubling array would hold its old and new copies at once, and on a
   large fixpoint that peak exceeds all the rest of the state. The worklist
   is a ring of [Array.length ring] slots holding the dirty blocks, from
   [ring_head] on for [ring_len]: a block re-derives only when a new
   minimal set touching one of its vertices was admitted since its last
   run, and [queued] keeps each block in the ring at most once, so a ring
   of one slot per block never overflows. [visited] memoises
   [derive_for_block]'s exploration on (remaining facts, partial union)
   keys; a slot counts only when its stamp is the current block
   derivation's generation, so no derivation clears it.

   Each domain keeps one state between runs, so a run allocates no array
   above the minor-heap limit once that state fits it; a fresh state per
   run would allocate its arrays on the major heap every run, and pay for
   the major collections that drives. [reset] empties the pooled state in
   time proportional to the graph, not to the arrays an earlier, larger
   run grew: [base] moves past every id interned before, and the run,
   visited and block stamps only grow. The int arrays and slab chunks keep
   stale entries, which no run reads before writing them: [intern] writes
   an id's [prov], the ring and the slab start empty, and every bucket
   starts as [no_ids]. [release] pools a state only once it references
   nothing of its run (no bucket array, not the graph's [block_of]), and
   only while all its arrays together stay within [retain_words]. *)

let no_ids = [| 0 |]
let chunk_bits = 12
let chunk_mask = (1 lsl chunk_bits) - 1

type state = {
  mutable k : int;
  mutable block_of : int array;
  mutable arena : int array;
  mutable off : int array;  (* id -> offset in [arena] *)
  mutable minimal : bool array;  (* id -> in the antichain *)
  mutable prov : int array;  (* id -> its record's position in [slab], or -1 *)
  mutable slab : int array array;  (* chunks of [1 lsl chunk_bits] ints *)
  mutable slab_len : int;
  mutable n_sets : int;
  mutable table : int array;  (* slot i: base + id at 2i, hash at 2i + 1 *)
  mutable base : int;
  mutable by_vertex : int array array;  (* count, ascending ids, spare capacity *)
  mutable single : int array;  (* vertex v -> [run] when {v} was admitted *)
  mutable run : int;
  mutable empty_derived : bool;
  mutable cand : int array;  (* work buffer: a candidate union or seed *)
  mutable sub : int array;  (* work buffer: a subset of a candidate *)
  mutable chosen : int array;  (* derive_for_block's (u, premise id) stack *)
  mutable block_seen : int array;  (* block -> stamp of the last k-set test *)
  mutable block_stamp : int;
  mutable visited : int array;  (* slot i: key at 2i, generation at 2i + 1 *)
  mutable n_visited : int;
  mutable generation : int;
  mutable ring : int array;  (* dirty blocks, FIFO *)
  mutable ring_head : int;
  mutable ring_len : int;
  mutable queued : bool array;
}

let mix h =
  let h = (h lxor (h lsr 31)) * 0x2545F4914F6CDD1D in
  let h = (h lxor (h lsr 29)) * 0x1CE4E5B9BF58476D in
  h lxor (h lsr 32)

let hash_slice a o l =
  let h = ref l in
  for i = o to o + l - 1 do
    h := mix (!h lxor a.(i))
  done;
  !h

let size st id = st.off.(id + 1) - st.off.(id)

let slice_equal st id a o l =
  size st id = l
  &&
  let arena = st.arena and p = st.off.(id) in
  let i = ref 0 in
  while !i < l && arena.(p + !i) = a.(o + !i) do
    incr i
  done;
  !i = l

(* The id in slot [i], or [-1] when the slot is empty. *)
let slot_id st i =
  let v = st.table.(2 * i) in
  if v < st.base then -1 else v - st.base

(* The slot holding set [a.(o) .. a.(o + l - 1)] (hash [h]), or the empty
   slot where it belongs. *)
let rec probe st a o l h i =
  let id = slot_id st i in
  if id < 0 || (st.table.((2 * i) + 1) = h && slice_equal st id a o l) then i
  else probe st a o l h ((i + 1) land ((Array.length st.table / 2) - 1))

let slot_of st h = h land ((Array.length st.table / 2) - 1)

(* The id of a set, or [-1] when it was never interned. *)
let find st a o l =
  let h = hash_slice a o l in
  slot_id st (probe st a o l h (slot_of st h))

let grow_table st =
  let old = st.table in
  st.table <- Array.make (2 * Array.length old) (-1);
  for i = 0 to (Array.length old / 2) - 1 do
    let v = old.(2 * i) in
    if v >= st.base then begin
      let h = old.((2 * i) + 1) in
      let j = ref (slot_of st h) in
      while slot_id st !j >= 0 do
        j := (!j + 1) land ((Array.length st.table / 2) - 1)
      done;
      st.table.(2 * !j) <- v;
      st.table.((2 * !j) + 1) <- h
    end
  done

(* An array of at least [need] elements that starts with [a]'s first
   [used]. *)
let grow a ~used ~need fill =
  let b = Array.make (max need (2 * Array.length a)) fill in
  Array.blit a 0 b 0 used;
  b

(* The id of [cand.(0) .. cand.(l - 1)], interning it if new. *)
let intern st l =
  let cand = st.cand in
  let h = hash_slice cand 0 l in
  let i = probe st cand 0 l h (slot_of st h) in
  let id = slot_id st i in
  if id >= 0 then id
  else begin
    let id = st.n_sets and p = st.off.(st.n_sets) in
    if id + 1 = Array.length st.off then begin
      st.off <- grow st.off ~used:(id + 1) ~need:0 0;
      st.prov <- grow st.prov ~used:id ~need:0 (-1);
      st.minimal <- grow st.minimal ~used:id ~need:0 false
    end;
    if p + l > Array.length st.arena then st.arena <- grow st.arena ~used:p ~need:(p + l) 0;
    Array.blit cand 0 st.arena p l;
    st.off.(id + 1) <- p + l;
    st.prov.(id) <- -1;
    st.minimal.(id) <- false;
    st.n_sets <- id + 1;
    st.table.(2 * i) <- st.base + id;
    st.table.((2 * i) + 1) <- h;
    if 2 * st.n_sets > Array.length st.table / 2 then grow_table st;
    id
  end

(* Is set [tid] a subset of the sorted slice [a.(o) .. a.(o + l - 1)]? *)
let id_subset st tid a o l =
  let arena = st.arena and p = st.off.(tid) and n = size st tid in
  let i = ref 0 and j = ref 0 in
  while !i < n && !j < l && arena.(p + !i) >= a.(o + !j) do
    if arena.(p + !i) = a.(o + !j) then incr i;
    incr j
  done;
  !i = n

(* Some minimal set among the subsets of the slice with at least two
   vertices, by lookup. *)
let subset_minimal st a o l =
  let sub = st.sub and last = (1 lsl l) - 1 in
  let found = ref false and m = ref 3 in
  while (not !found) && !m <= last do
    if !m land (!m - 1) <> 0 then begin
      let n = ref 0 in
      for i = 0 to l - 1 do
        if !m land (1 lsl i) <> 0 then begin
          sub.(!n) <- a.(o + i);
          incr n
        end
      done;
      let id = find st sub 0 !n in
      found := id >= 0 && st.minimal.(id)
    end;
    incr m
  done;
  !found

(* Some minimal set in the buckets of the slice's vertices is a subset of
   it. Every nonempty minimal subset contains one of those vertices. *)
let bucket_subset st a o l =
  let found = ref false and i = ref 0 in
  while (not !found) && !i < l do
    let bucket = st.by_vertex.(a.(o + !i)) in
    let j = ref 1 in
    while (not !found) && !j <= bucket.(0) do
      found := id_subset st bucket.(!j) a o l;
      incr j
    done;
    incr i
  done;
  !found

(* Is the sorted slice a superset of some derived set? The empty set is
   covered by the [empty_derived] flag, a singleton by [single]. *)
let subsumed st a o l =
  st.empty_derived
  ||
  let scan = ref 0 and one = ref false in
  for i = o to o + l - 1 do
    let v = a.(i) in
    scan := !scan + st.by_vertex.(v).(0);
    if st.single.(v) = st.run then one := true
  done;
  !one
  || l > 1
     &&
     if l < Sys.int_size - 2 && (1 lsl l) - 1 - l <= !scan then subset_minimal st a o l
     else bucket_subset st a o l

(* A set of vertices is a k-set iff it has at most k elements and at most
   one vertex per block (so it extends to a repair); [cand.(0 .. l - 1)]
   already has at most k. *)
let distinct_blocks st l =
  st.block_stamp <- st.block_stamp + 1;
  let stamp = st.block_stamp in
  let ok = ref true and i = ref 0 in
  while !ok && !i < l do
    let b = st.block_of.(st.cand.(!i)) in
    if st.block_seen.(b) = stamp then ok := false else st.block_seen.(b) <- stamp;
    incr i
  done;
  !ok

(* [cand] := set [acc] ∪ (set [tid] \ {u}); its size, or [-1] beyond k. *)
let union_without st acc tid u =
  let arena = st.arena and cand = st.cand and k = st.k in
  let i = ref st.off.(acc) and j = ref st.off.(tid) in
  let ie = st.off.(acc + 1) and je = st.off.(tid + 1) in
  let n = ref 0 in
  while !n >= 0 && (!i < ie || !j < je) do
    if !j < je && arena.(!j) = u then incr j
    else begin
      let x =
        if !j >= je || (!i < ie && arena.(!i) < arena.(!j)) then begin
          let x = arena.(!i) in
          incr i;
          x
        end
        else begin
          let y = arena.(!j) in
          if !i < ie && arena.(!i) = y then incr i;
          incr j;
          y
        end
      in
      if !n = k then n := -1
      else begin
        cand.(!n) <- x;
        incr n
      end
    end
  done;
  !n

(* Drop the sets pruned from the antichain from [v]'s bucket, into a new
   array; the bucket stays as it is when it has none. *)
let drop_pruned st v =
  let bucket = st.by_vertex.(v) in
  let n = bucket.(0) in
  let live = ref 0 in
  for j = 1 to n do
    if st.minimal.(bucket.(j)) then incr live
  done;
  if !live = 0 then st.by_vertex.(v) <- no_ids
  else if !live < n then begin
    let b = Array.make (!live + 1) !live and m = ref 1 in
    for j = 1 to n do
      if st.minimal.(bucket.(j)) then begin
        b.(!m) <- bucket.(j);
        incr m
      end
    done;
    st.by_vertex.(v) <- b
  end

(* Add [id] to [v]'s bucket: in place when it is above every entry and
   the array has room, else into a new array. *)
let add_id st v (id : int) =
  let bucket = st.by_vertex.(v) in
  let n = bucket.(0) in
  if n = 0 || bucket.(n) < id then begin
    if n + 1 < Array.length bucket then begin
      bucket.(n + 1) <- id;
      bucket.(0) <- n + 1
    end
    else begin
      let b = Array.make (max 5 ((2 * n) + 1)) (n + 1) in
      Array.blit bucket 1 b 1 n;
      b.(n + 1) <- id;
      st.by_vertex.(v) <- b
    end
  end
  else begin
    let at = ref 1 in
    while bucket.(!at) < id do
      incr at
    done;
    let b = Array.make (n + 2) id in
    b.(0) <- n + 1;
    Array.blit bucket 1 b 1 (!at - 1);
    Array.blit bucket !at b (!at + 1) (n + 1 - !at);
    st.by_vertex.(v) <- b
  end

let enqueue st b =
  if not st.queued.(b) then begin
    st.queued.(b) <- true;
    let cap = Array.length st.ring in
    let i = st.ring_head + st.ring_len in
    st.ring.(if i >= cap then i - cap else i) <- b;
    st.ring_len <- st.ring_len + 1
  end

let dequeue st =
  let b = st.ring.(st.ring_head) in
  st.ring_head <- (if st.ring_head + 1 = Array.length st.ring then 0 else st.ring_head + 1);
  st.ring_len <- st.ring_len - 1;
  st.queued.(b) <- false;
  b

(* Make set [id], which no derived set subsumes, a member of the
   antichain. A freshly admitted set can only enable new derivations at
   blocks holding one of its vertices (a useful premise [T_u] must contain
   [u]), so those blocks become dirty. *)
let install st id =
  let p = st.off.(id) and l = size st id in
  if l = 0 then begin
    (* ∅ subsumes everything: collapse the antichain and stop. *)
    Array.fill st.minimal 0 st.n_sets false;
    st.minimal.(id) <- true;
    Array.fill st.by_vertex 0 (Array.length st.block_of) no_ids;
    st.empty_derived <- true
  end
  else begin
    (* Remove supersets of the new minimal set from the antichain (their
       provenance is kept for certificate reconstruction). Every superset
       contains the first vertex, so its bucket lists all candidates; only
       an entry larger than the new set can strictly contain it, so a
       k-set prunes nothing. *)
    if l < st.k then begin
      let bucket = st.by_vertex.(st.arena.(p)) in
      let n = bucket.(0) in
      let pruned = ref false in
      for j = 1 to n do
        let tid = bucket.(j) in
        let size_t = size st tid in
        if size_t > l && id_subset st id st.arena st.off.(tid) size_t then begin
          st.minimal.(tid) <- false;
          pruned := true
        end
      done;
      if !pruned then
        for j = 1 to n do
          let tid = bucket.(j) in
          if not st.minimal.(tid) then
            for i = st.off.(tid) to st.off.(tid + 1) - 1 do
              drop_pruned st st.arena.(i)
            done
        done
    end;
    if l = 1 then st.single.(st.arena.(p)) <- st.run;
    for i = p to p + l - 1 do
      let v = st.arena.(i) in
      add_id st v id;
      enqueue st st.block_of.(v)
    done;
    st.minimal.(id) <- true
  end

let visited_slot st key = mix key land ((Array.length st.visited / 2) - 1)

(* Memoise a (remaining facts, partial union) key in the current
   generation, probing from slot [i]; [false] when it was already there. *)
let rec visit st key i =
  let v = st.visited in
  if v.((2 * i) + 1) <> st.generation then begin
    v.(2 * i) <- key;
    v.((2 * i) + 1) <- st.generation;
    st.n_visited <- st.n_visited + 1;
    if 4 * st.n_visited > Array.length v then grow_visited st;
    true
  end
  else v.(2 * i) <> key && visit st key ((i + 1) land ((Array.length v / 2) - 1))

and grow_visited st =
  let old = st.visited in
  st.visited <- Array.make (2 * Array.length old) 0;
  st.n_visited <- 0;
  for j = 0 to (Array.length old / 2) - 1 do
    if old.((2 * j) + 1) = st.generation then
      ignore (visit st old.(2 * j) (visited_slot st old.(2 * j)))
  done

(* Append [x] to the slab. *)
let push st x =
  let p = st.slab_len in
  let c = p lsr chunk_bits in
  if c = Array.length st.slab then st.slab <- grow st.slab ~used:c ~need:(c + 1) [||];
  if Array.length st.slab.(c) = 0 then st.slab.(c) <- Array.make (1 lsl chunk_bits) 0;
  st.slab.(c).(p land chunk_mask) <- x;
  st.slab_len <- p + 1

let slab_get st p = st.slab.(p lsr chunk_bits).(p land chunk_mask)

(* The inductive step for one block: derive S = union over u in B of
   (T_u \ {u}) for each choice of T_u in Delta containing u. Choices where
   T_u does not contain u are redundant: T_u ⊆ S then, so S is subsumed by
   the member T_u and yields no new minimal set. Partial unions that are
   already subsumed are pruned for the same reason: every extension of a
   subsumed union is subsumed. Distinct choice sequences frequently
   produce the same partial union; memoising on (remaining facts, partial
   union) keeps the exploration polynomial in the size of the antichain
   instead of exponential in the block size. *)
let rec choose st budget members block depth acc =
  let n = Array.length members in
  if depth = n then begin
    if not (subsumed st st.arena st.off.(acc) (size st acc)) then begin
      install st acc;
      st.prov.(acc) <- st.slab_len;
      push st block;
      for i = 0 to (2 * n) - 1 do
        push st st.chosen.(i)
      done
    end
  end
  else begin
    Harness.Budget.tick ~site:Harness.Sites.certk budget;
    let key = (acc * (n + 1)) + depth in
    if visit st key (visited_slot st key) then begin
      let u = members.(depth) in
      let bucket = st.by_vertex.(u) in
      for j = 1 to bucket.(0) do
        let tid = bucket.(j) in
        let l = union_without st acc tid u in
        if l >= 0 && distinct_blocks st l && not (subsumed st st.cand 0 l) then begin
          let acc' = intern st l in
          st.chosen.(2 * depth) <- u;
          st.chosen.((2 * depth) + 1) <- tid;
          choose st budget members block (depth + 1) acc'
        end
      done
    end
  end

let derive_for_block (g : Solution_graph.t) ~budget st block =
  let empty = intern st 0 in
  st.generation <- st.generation + 1;
  st.n_visited <- 0;
  choose st budget g.Solution_graph.blocks.(block) block 0 empty

let fresh_state () =
  {
    k = 1;
    block_of = [||];
    arena = Array.make 256 0;
    off = Array.make 64 0;
    minimal = Array.make 64 false;
    prov = Array.make 64 (-1);
    slab = [||];
    slab_len = 0;
    n_sets = 0;
    table = Array.make 256 (-1);
    base = 0;
    by_vertex = [||];
    single = [||];
    run = 0;
    empty_derived = false;
    cand = [||];
    sub = [||];
    chosen = [||];
    block_seen = [||];
    block_stamp = 0;
    visited = Array.make 256 0;
    n_visited = 0;
    generation = 0;
    ring = [||];
    ring_head = 0;
    ring_len = 0;
    queued = [||];
  }

(* Empty [st], which holds nothing of an earlier run, for a run of
   [Cert_k] on [g]. *)
let reset st (g : Solution_graph.t) ~k =
  let n = Solution_graph.n_facts g and n_blocks = Solution_graph.n_blocks g in
  let widest = Array.fold_left (fun w b -> max w (Array.length b)) 0 g.Solution_graph.blocks in
  st.k <- k;
  st.block_of <- g.Solution_graph.block_of;
  st.base <- st.base + st.n_sets;
  st.n_sets <- 0;
  st.off.(0) <- 0;
  st.slab_len <- 0;
  st.empty_derived <- false;
  st.ring_head <- 0;
  st.ring_len <- 0;
  st.run <- st.run + 1;
  if Array.length st.by_vertex < n then st.by_vertex <- Array.make n no_ids;
  if Array.length st.single < n then st.single <- Array.make n 0;
  if Array.length st.ring < n_blocks then st.ring <- Array.make n_blocks 0;
  if Array.length st.queued < n_blocks then st.queued <- Array.make n_blocks false
  else Array.fill st.queued 0 n_blocks false;
  if Array.length st.block_seen < n_blocks then st.block_seen <- Array.make n_blocks 0;
  if Array.length st.cand < min k n + 2 then begin
    st.cand <- Array.make (min k n + 2) 0;
    st.sub <- Array.make (min k n + 2) 0
  end;
  if Array.length st.chosen < 2 * widest then st.chosen <- Array.make (2 * widest) 0

(* Admit [cand.(0 .. l - 1)] as the initial set of solution [(i, j)]. *)
let seed_set st l i j =
  if not (subsumed st st.cand 0 l) then begin
    let id = intern st l in
    install st id;
    st.prov.(id) <- st.slab_len;
    push st (-1 - i);
    push st j
  end

(* Initial sets: minimal k-sets satisfying q — solution pairs across
   distinct blocks, and singletons for self-loop solutions. Each admission
   seeds the worklist with the blocks it touches. *)
let rec seed_initial st = function
  | [] -> ()
  | (i, j) :: rest ->
      if i = j then begin
        st.cand.(0) <- i;
        seed_set st 1 i j
      end
      else if st.block_of.(i) <> st.block_of.(j) && st.k >= 2 then begin
        st.cand.(0) <- Int.min i j;
        st.cand.(1) <- Int.max i j;
        seed_set st 2 i j
      end;
      seed_initial st rest

(* Drain the worklist. Untouched blocks stay untouched: a block whose
   members all have empty [by_vertex] buckets can derive nothing, and it
   only becomes derivable once a set touching it is admitted — which
   enqueues it. *)
let drain ?(budget = Harness.Budget.unlimited ()) (g : Solution_graph.t) st =
  while (not st.empty_derived) && st.ring_len > 0 do
    derive_for_block g ~budget st (dequeue st)
  done

(* About twice the 118,458 words the state holds after Cert_2 on the
   largest fixpoint-bound graph (16 q3 components, 673 facts), slab chunks
   included. *)
let retain_words = 1 lsl 18

let pool = Domain.DLS.new_key (fun () -> ref None)

let release slot st =
  let words =
    Array.length st.arena + Array.length st.off + Array.length st.minimal
    + Array.length st.prov
    + Array.fold_left (fun w chunk -> w + Array.length chunk) (Array.length st.slab) st.slab
    + Array.length st.table
    + Array.length st.by_vertex + Array.length st.single
    + Array.length st.cand + Array.length st.sub + Array.length st.chosen
    + Array.length st.block_seen + Array.length st.visited + Array.length st.ring
    + Array.length st.queued
  in
  if words <= retain_words then begin
    Array.fill st.by_vertex 0 (Array.length st.block_of) no_ids;
    st.block_of <- [||];
    slot := Some st
  end

(* Saturate [Cert_k] on [g] in the domain's pooled state (a fresh one when
   a run holds it or it was dropped), hand the state to [f], then pool it.
   A run that raises leaves its state to the collector. *)
let with_fixpoint ?budget (g : Solution_graph.t) ~k f =
  if k < 1 then invalid_arg "Certk: k must be >= 1";
  let slot = Domain.DLS.get pool in
  let st = match !slot with Some st -> st | None -> fresh_state () in
  slot := None;
  reset st g ~k;
  seed_initial st g.Solution_graph.directed;
  drain ?budget g st;
  let result = f st in
  release slot st;
  result

let run ?budget ~k g = with_fixpoint ?budget g ~k (fun st -> st.empty_derived)

let set_list st id = List.init (size st id) (fun i -> st.arena.(st.off.(id) + i))

let derived ~k g =
  with_fixpoint g ~k (fun st ->
      let sets = ref [] in
      for id = st.n_sets - 1 downto 0 do
        if st.minimal.(id) then sets := set_list st id :: !sets
      done;
      List.sort (List.compare Int.compare) !sets)

(* Certificates: follow provenance from the empty set down to the initial
   solutions. Derivations are acyclic by construction (every premise was
   added strictly before the conclusion, and a pruned set is never
   re-admitted), so the recursion terminates; each id's node is built once
   and shared by every derivation that uses it. *)
let certificate ~k g =
  with_fixpoint g ~k (fun st ->
      if not st.empty_derived then None
      else
        let memo = Array.make st.n_sets None and built = Array.make st.n_sets false in
        let rec build id =
          if not built.(id) then begin
            built.(id) <- true;
            let p = st.prov.(id) in
            memo.(id) <-
              (if p < 0 then None
               else
                 let b = slab_get st p in
                 if b < 0 then
                   Some
                     {
                       set = set_list st id;
                       why = Initial (-1 - b, slab_get st (p + 1));
                       premises = [];
                     }
                 else
                   let n = Array.length g.Solution_graph.blocks.(b) in
                   let u c = slab_get st (p + 1 + (2 * c))
                   and t c = slab_get st (p + 2 + (2 * c)) in
                   let premises = List.init n (fun c -> build (t c)) in
                   if List.exists Option.is_none premises then None
                   else
                     Some
                       {
                         set = set_list st id;
                         why = Via_block (b, List.init n (fun c -> (u c, set_list st (t c))));
                         premises = List.filter_map Fun.id premises;
                       })
          end;
          memo.(id)
        in
        build (find st st.cand 0 0))

(* A premise whose set was printed before is printed once more as
   "(derived above)", without its sub-derivation: a shared premise would
   otherwise be printed once per use, exponentially often. *)
let rec pp_certificate_aux g printed indent ppf cert =
  let pp_set ppf s =
    if s = [] then Format.pp_print_string ppf "{}"
    else
      Format.fprintf ppf "{%s}"
        (String.concat ", "
           (List.map
              (fun v -> Relational.Fact.to_string g.Solution_graph.facts.(v))
              s))
  in
  if Hashtbl.mem printed cert.set then
    Format.fprintf ppf "%s%a (derived above)@," indent pp_set cert.set
  else begin
    Hashtbl.add printed cert.set ();
    (match cert.why with
    | Initial (i, j) ->
        Format.fprintf ppf "%s%a satisfies q: solution (%s, %s)@," indent pp_set cert.set
          (Relational.Fact.to_string g.Solution_graph.facts.(i))
          (Relational.Fact.to_string g.Solution_graph.facts.(j))
    | Via_block (b, choices) ->
        Format.fprintf ppf "%s%a derived via block %d using:@," indent pp_set cert.set b;
        List.iter
          (fun (u, t) ->
            Format.fprintf ppf "%s  fact %s with premise %a@," indent
              (Relational.Fact.to_string g.Solution_graph.facts.(u))
              pp_set t)
          choices);
    List.iter (pp_certificate_aux g printed (indent ^ "  ") ppf) cert.premises
  end

let pp_certificate g ppf cert =
  Format.fprintf ppf "@[<v>";
  pp_certificate_aux g (Hashtbl.create 64) "" ppf cert;
  Format.fprintf ppf "@]"

let kappa (q : Qlang.Query.t) =
  let l = q.Qlang.Query.schema.Relational.Schema.key_len in
  let rec pow acc i = if i = 0 then acc else pow (acc * l) (i - 1) in
  if l = 0 then 1 else pow 1 l

let paper_k q =
  let kap = kappa q in
  if kap >= 30 then max_int
  else (1 lsl ((2 * kap) + 1)) + kap - 1
