module Solution_graph = Qlang.Solution_graph
module Cnf = Satsolver.Cnf

let encode (g : Solution_graph.t) =
  let n = Solution_graph.n_facts g in
  let clauses = ref [] in
  Array.iter
    (fun block ->
      clauses := Array.to_list (Array.map (fun v -> v + 1) block) :: !clauses)
    g.Solution_graph.blocks;
  Array.iteri (fun v self -> if self then clauses := [ -(v + 1) ] :: !clauses) g.Solution_graph.self;
  Array.iteri
    (fun v neighbours ->
      List.iter
        (fun w -> if v < w then clauses := [ -(v + 1); -(w + 1) ] :: !clauses)
        neighbours)
    g.Solution_graph.adj;
  if n = 0 then Cnf.verum else Cnf.make ~n_vars:n !clauses

let falsifying_repair ?budget g =
  match Satsolver.Dpll.solve ?budget (encode g) with
  | Satsolver.Dpll.Unsat -> None
  | Satsolver.Dpll.Sat model ->
      let pick block =
        let chosen = Array.to_list block |> List.filter (fun v -> model.(v + 1)) in
        match chosen with
        | v :: _ -> v
        | [] -> assert false (* the at-least-one clause forbids this *)
      in
      Some (Array.to_list (Array.map pick g.Solution_graph.blocks))

let certain ?budget g = Option.is_none (falsifying_repair ?budget g)
