type t = { pair_left : int array; pair_right : int array; size : int }

let infinity_dist = max_int

(* Each phase lays out the left side by BFS from the free left vertices,
   then augments along shortest paths by DFS. The BFS queue is an int
   array: a left vertex enters it at most once per phase, when its
   distance is set, so [n] slots hold it. [dfs u] ticks and tries [u]'s
   row through [try_from u k], which goes on from the row's slot [k]; both
   are made once per run, so a visit allocates nothing. *)
let hopcroft_karp ?(tick = fun () -> ()) (g : Bipartite.t) =
  let n = g.Bipartite.n_left and m = g.Bipartite.n_right in
  let offsets = g.Bipartite.offsets and targets = g.Bipartite.targets in
  let pair_left = Array.make (max n 1) (-1) in
  let pair_right = Array.make (max m 1) (-1) in
  let dist = Array.make (max n 1) infinity_dist in
  let queue = Array.make (max n 1) 0 in
  (* BFS layering from free left vertices; true if an augmenting path
     exists. *)
  let bfs () =
    let tail = ref 0 in
    for u = 0 to n - 1 do
      if pair_left.(u) < 0 then begin
        dist.(u) <- 0;
        queue.(!tail) <- u;
        incr tail
      end
      else dist.(u) <- infinity_dist
    done;
    let found = ref false and head = ref 0 in
    while !head < !tail do
      let u = queue.(!head) in
      incr head;
      tick ();
      for k = offsets.(u) to offsets.(u + 1) - 1 do
        let u' = pair_right.(targets.(k)) in
        if u' < 0 then found := true
        else if dist.(u') = infinity_dist then begin
          dist.(u') <- dist.(u) + 1;
          queue.(!tail) <- u';
          incr tail
        end
      done
    done;
    !found
  in
  let rec dfs u =
    tick ();
    try_from u offsets.(u)
  and try_from u k =
    if k = offsets.(u + 1) then begin
      dist.(u) <- infinity_dist;
      false
    end
    else
      let v = targets.(k) in
      let u' = pair_right.(v) in
      if u' < 0 || (dist.(u') = dist.(u) + 1 && dfs u') then begin
        pair_left.(u) <- v;
        pair_right.(v) <- u;
        true
      end
      else try_from u (k + 1)
  in
  let size = ref 0 in
  while bfs () do
    for u = 0 to n - 1 do
      if pair_left.(u) < 0 && dfs u then incr size
    done
  done;
  { pair_left; pair_right; size = !size }

let augmenting ?(tick = fun () -> ()) (g : Bipartite.t) =
  let n = g.Bipartite.n_left and m = g.Bipartite.n_right in
  let offsets = g.Bipartite.offsets and targets = g.Bipartite.targets in
  let pair_left = Array.make (max n 1) (-1) in
  let pair_right = Array.make (max m 1) (-1) in
  let visited = Array.make (max m 1) false in
  let rec try_augment u =
    tick ();
    try_from u offsets.(u)
  and try_from u k =
    k < offsets.(u + 1)
    &&
    let v = targets.(k) in
    if visited.(v) then try_from u (k + 1)
    else begin
      visited.(v) <- true;
      if pair_right.(v) < 0 || try_augment pair_right.(v) then begin
        pair_left.(u) <- v;
        pair_right.(v) <- u;
        true
      end
      else try_from u (k + 1)
    end
  in
  let size = ref 0 in
  for u = 0 to n - 1 do
    Array.fill visited 0 (max m 1) false;
    if try_augment u then incr size
  done;
  { pair_left; pair_right; size = !size }

let saturates_left (g : Bipartite.t) m =
  let n = g.Bipartite.n_left in
  m.size = n
  &&
  let rec go u = u >= n || (m.pair_left.(u) >= 0 && go (u + 1)) in
  go 0

let is_valid (g : Bipartite.t) m =
  let n = g.Bipartite.n_left and mr = g.Bipartite.n_right in
  let ok = ref true in
  for u = 0 to n - 1 do
    let v = m.pair_left.(u) in
    if v >= 0 then
      if v >= mr || not (Bipartite.mem_edge g u v) || m.pair_right.(v) <> u then
        ok := false
  done;
  for v = 0 to mr - 1 do
    let u = m.pair_right.(v) in
    if u >= 0 && (u >= n || m.pair_left.(u) <> v) then ok := false
  done;
  let count = Array.fold_left (fun acc v -> if v >= 0 then acc + 1 else acc) 0 m.pair_left in
  !ok && count = m.size
