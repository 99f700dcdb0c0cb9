module Solution_graph = Qlang.Solution_graph

let falsifying_repair ?(budget = Harness.Budget.unlimited ()) (g : Solution_graph.t) =
  let n = Solution_graph.n_facts g in
  let n_blocks = Solution_graph.n_blocks g in
  (* conflicts.(v) counts already-chosen neighbours of v. A vertex is
     available iff it has no self-loop and no chosen neighbour. *)
  let conflicts = Array.make n 0 in
  let chosen = Array.make n_blocks (-1) in
  let assigned = Array.make n_blocks false in
  let available v = (not g.Solution_graph.self.(v)) && conflicts.(v) = 0 in
  let candidates b =
    Array.to_list g.Solution_graph.blocks.(b) |> List.filter available
  in
  let n_candidates b =
    let block = g.Solution_graph.blocks.(b) and c = ref 0 in
    for i = 0 to Array.length block - 1 do
      if available block.(i) then incr c
    done;
    !c
  in
  (* Fewest-candidates-first over the unassigned blocks; the first such
     block on a tie. *)
  let next_block () =
    let best = ref (-1) and best_c = ref 0 in
    for b = 0 to n_blocks - 1 do
      if not assigned.(b) then begin
        let c = n_candidates b in
        if !best < 0 || c < !best_c then begin
          best := b;
          best_c := c
        end
      end
    done;
    if !best < 0 then None else Some (!best, !best_c)
  in
  let rec solve remaining =
    Harness.Budget.tick ~site:Harness.Sites.exact budget;
    if remaining = 0 then true
    else
      match next_block () with
      | None -> true
      | Some (_, 0) -> false
      | Some (b, _) ->
          assigned.(b) <- true;
          let found =
            List.exists
              (fun v ->
                Harness.Budget.tick ~site:Harness.Sites.exact budget;
                chosen.(b) <- v;
                List.iter (fun w -> conflicts.(w) <- conflicts.(w) + 1) g.Solution_graph.adj.(v);
                let ok = solve (remaining - 1) in
                if not ok then begin
                  List.iter
                    (fun w -> conflicts.(w) <- conflicts.(w) - 1)
                    g.Solution_graph.adj.(v);
                  chosen.(b) <- -1
                end;
                ok)
              (candidates b)
          in
          if not found then assigned.(b) <- false;
          found
  in
  if solve n_blocks then Some (Array.to_list chosen |> List.filter (fun v -> v >= 0))
  else None

let certain ?budget g = Option.is_none (falsifying_repair ?budget g)
let certain_query ?budget q db = certain ?budget (Solution_graph.of_query q db)
let certain_sjf ?budget s db = certain ?budget (Qlang.Sjf.solution_graph s db)

let certain_enum ?(budget = Harness.Budget.unlimited ()) q db =
  (match Relational.Repair.count db with
  | Some c when c <= 1 lsl 20 -> ()
  | Some _ | None -> invalid_arg "Exact.certain_enum: too many repairs");
  Relational.Repair.for_all db (fun r ->
      Harness.Budget.tick ~site:Harness.Sites.exact budget;
      Qlang.Solutions.query_satisfies q r)
