module Solution_graph = Qlang.Solution_graph
module Cnf = Satsolver.Cnf
module Cdcl = Satsolver.Cdcl

(* The falsifying-repair encoding, enumerated once for both views: fact [v]
   is variable [v + 1]; one at-least-one clause per block, one unit per
   self-loop, one binary clause per edge. *)
let iter_clauses (g : Solution_graph.t) add =
  Array.iter
    (fun block -> add (Array.fold_right (fun v acc -> (v + 1) :: acc) block []))
    g.Solution_graph.blocks;
  Array.iteri (fun v self -> if self then add [ -(v + 1) ]) g.Solution_graph.self;
  Array.iteri
    (fun v neighbours ->
      List.iter (fun w -> if v < w then add [ -(v + 1); -(w + 1) ]) neighbours)
    g.Solution_graph.adj

let encode g =
  let n = Solution_graph.n_facts g in
  if n = 0 then Cnf.verum
  else begin
    let clauses = ref [] in
    iter_clauses g (fun c -> clauses := c :: !clauses);
    Cnf.make ~n_vars:n !clauses
  end

let rejected what = invalid_arg ("Satreduce: model rejected: " ^ what)

(* One pass over the blocks: each takes its first chosen fact, which must
   have no self-loop and no edge to a fact taken before it. Edges are
   symmetric, so this covers every pair of taken facts. *)
let checked_repair (g : Solution_graph.t) model =
  let taken = Array.make (Solution_graph.n_facts g) false in
  Array.to_list
    (Array.map
       (fun block ->
         match Array.find_opt (fun v -> model.(v + 1)) block with
         | None -> rejected "a block has no chosen fact"
         | Some v ->
             if g.Solution_graph.self.(v) then rejected "a chosen fact has a self-loop";
             if List.exists (fun w -> taken.(w)) g.Solution_graph.adj.(v) then
               rejected "two chosen facts form a solution";
             taken.(v) <- true;
             v)
       g.Solution_graph.blocks)

let falsifying_repair ?budget g =
  let solver = Cdcl.create ~n_vars:(Solution_graph.n_facts g) in
  iter_clauses g (Cdcl.add_clause solver);
  match Cdcl.solve ?budget solver with
  | Cdcl.Unsat -> None
  | Cdcl.Sat model -> Some (checked_repair g model)

let certain ?budget g = Option.is_none (falsifying_repair ?budget g)
