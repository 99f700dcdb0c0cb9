module Solution_graph = Qlang.Solution_graph

(* clique(a) identifiers: components that are quasi-cliques get one id for
   the whole component; every other fact gets a singleton id. *)
let clique_ids (g : Solution_graph.t) =
  let member, n_comps = Solution_graph.components g in
  let is_qc = Solution_graph.quasi_cliques g ~member ~n_comps in
  let n = Solution_graph.n_facts g in
  let clique_of = Array.make n (-1) in
  let next = ref 0 in
  let comp_clique = Array.make n_comps (-1) in
  for v = 0 to n - 1 do
    let c = member.(v) in
    if is_qc.(c) then begin
      if comp_clique.(c) < 0 then begin
        comp_clique.(c) <- !next;
        incr next
      end;
      clique_of.(v) <- comp_clique.(c)
    end
    else begin
      clique_of.(v) <- !next;
      incr next
    end
  done;
  (clique_of, !next)

(* H(D, q) in CSR form, filled straight from the blocks. Row [b] holds
   the clique ids of [b]'s facts [a] with [D ⊭ q(aa)], ascending and
   without repeats. A counting sort lists the facts by clique id; walking
   it from the highest id down and writing each id at the top of its
   block's row that is still free fills every row in ascending order, and
   [last.(b)], the id last written for block [b], drops repeats, since a
   clique's facts are contiguous in the walk. The walk runs twice: once to
   count each row, once to fill it. *)
let bipartite (g : Solution_graph.t) =
  let clique_of, n_cliques = clique_ids g in
  let n = Solution_graph.n_facts g and n_blocks = Solution_graph.n_blocks g in
  let block_of = g.Solution_graph.block_of and self = g.Solution_graph.self in
  (* The facts of clique [r] are [by_clique.(first.(r)) ..
     by_clique.(first.(r + 1) - 1)], placed as [Pattern]'s index places
     its rows. *)
  let first = Array.make (n_cliques + 1) 0 in
  Array.iter (fun r -> first.(r) <- first.(r) + 1) clique_of;
  for r = 1 to n_cliques do
    first.(r) <- first.(r) + first.(r - 1)
  done;
  let by_clique = Array.make (max n 1) 0 in
  for v = n - 1 downto 0 do
    let r = clique_of.(v) in
    first.(r) <- first.(r) - 1;
    by_clique.(first.(r)) <- v
  done;
  let last = Array.make (max n_blocks 1) (-1) in
  let walk emit =
    Array.fill last 0 (Array.length last) (-1);
    for r = n_cliques - 1 downto 0 do
      for s = first.(r) to first.(r + 1) - 1 do
        let v = by_clique.(s) in
        let b = block_of.(v) in
        if (not self.(v)) && last.(b) <> r then begin
          last.(b) <- r;
          emit b r
        end
      done
    done
  in
  (* Row [b]'s length goes to [offsets.(b)], and a running sum turns each
     length into the end of its row; the fill steps [offsets.(b)] back
     before each write, so it ends at the row's first slot. *)
  let offsets = Array.make (n_blocks + 1) 0 in
  walk (fun b _ -> offsets.(b) <- offsets.(b) + 1);
  for b = 1 to n_blocks do
    offsets.(b) <- offsets.(b) + offsets.(b - 1)
  done;
  let targets = Array.make offsets.(n_blocks) 0 in
  walk (fun b r ->
      offsets.(b) <- offsets.(b) - 1;
      targets.(offsets.(b)) <- r);
  Graphs.Bipartite.of_csr ~n_right:n_cliques ~offsets ~targets

let run ?(budget = Harness.Budget.unlimited ()) g =
  Harness.Budget.tick ~site:Harness.Sites.matching budget;
  let h = bipartite g in
  let tick () = Harness.Budget.tick ~site:Harness.Sites.matching budget in
  Graphs.Matching.saturates_left h (Graphs.Matching.hopcroft_karp ~tick h)
