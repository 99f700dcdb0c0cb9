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

let bipartite (g : Solution_graph.t) =
  let clique_of, n_cliques = clique_ids g in
  let edges = ref [] in
  Array.iteri
    (fun v clique ->
      if not g.Solution_graph.self.(v) then
        edges := (g.Solution_graph.block_of.(v), clique) :: !edges)
    clique_of;
  Graphs.Bipartite.make ~n_left:(Solution_graph.n_blocks g) ~n_right:n_cliques !edges

let run ?(budget = Harness.Budget.unlimited ()) g =
  Harness.Budget.tick ~site:Harness.Sites.matching budget;
  let h = bipartite g in
  let tick () = Harness.Budget.tick ~site:Harness.Sites.matching budget in
  Graphs.Matching.saturates_left h (Graphs.Matching.hopcroft_karp ~tick h)
