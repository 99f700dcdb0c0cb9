module Repair = Relational.Repair

type estimate = {
  trials : int;
  satisfying : int;
  frequency : float;
  counterexample : Repair.t option;
}

let tick budget =
  match budget with
  | None -> ()
  | Some b -> Harness.Budget.tick ~site:Harness.Sites.montecarlo b

let estimate rng ~trials q db =
  (* [trials = 0] would report frequency 1.0 — reading as "certain" with
     zero evidence — so it is rejected outright. *)
  if trials < 1 then invalid_arg "Montecarlo.estimate: trials must be >= 1";
  let satisfying = ref 0 in
  let counterexample = ref None in
  for _ = 1 to trials do
    let r = Repair.sample rng db in
    if Qlang.Solutions.query_satisfies q r then incr satisfying
    else if !counterexample = None then counterexample := Some r
  done;
  {
    trials;
    satisfying = !satisfying;
    frequency = float_of_int !satisfying /. float_of_int trials;
    counterexample = !counterexample;
  }

(* Graph-based sampling: one uniform choice per block, in block order — the
   same RNG consumption as [Repair.sample] on the persistent plane (blocks
   appear in the same order with the same sizes), so seeded estimates agree
   across planes. Block order is fact-index order of the underlying runs, so
   the chosen vertices come out ascending and map to a sorted repair. *)
module Solution_graph = Qlang.Solution_graph

let sample_g rng (g : Solution_graph.t) =
  Array.map
    (fun members -> members.(Random.State.int rng (Array.length members)))
    g.Solution_graph.blocks

let satisfied_g (g : Solution_graph.t) chosen =
  let selected = Array.make (Array.length g.Solution_graph.facts) false in
  Array.iter (fun v -> selected.(v) <- true) chosen;
  Array.exists
    (fun v ->
      g.Solution_graph.self.(v)
      || List.exists (fun w -> selected.(w)) g.Solution_graph.adj.(v))
    chosen

let repair_of (g : Solution_graph.t) chosen =
  Array.to_list (Array.map (fun v -> g.Solution_graph.facts.(v)) chosen)

let estimate_g ?budget rng ~trials g =
  if trials < 1 then invalid_arg "Montecarlo.estimate_g: trials must be >= 1";
  let satisfying = ref 0 in
  let counterexample = ref None in
  for _ = 1 to trials do
    tick budget;
    let chosen = sample_g rng g in
    if satisfied_g g chosen then incr satisfying
    else if !counterexample = None then counterexample := Some (repair_of g chosen)
  done;
  {
    trials;
    satisfying = !satisfying;
    frequency = float_of_int !satisfying /. float_of_int trials;
    counterexample = !counterexample;
  }
