module Query = Qlang.Query
module Database = Relational.Database
module Compiled = Relational.Compiled
module Delta = Relational.Delta
module Solution_graph = Qlang.Solution_graph

type t = {
  report : Dichotomy.report;
  database : Database.t;
  check_plane : (Compiled.t -> (unit, string) result) option;
  plane : Compiled.t Lazy.t;
  graph : Solution_graph.t Lazy.t;
  answer : (int, bool * Solver.algorithm) Hashtbl.t;  (* keyed by k *)
}

let of_report ?check_plane report database =
  let q = report.Dichotomy.query in
  let plane =
    lazy
      (let p = Compiled.compile database in
       Solver.apply_plane_gate check_plane p;
       p)
  in
  {
    report;
    database;
    check_plane;
    plane;
    graph = lazy (Solution_graph.of_query_compiled q (Lazy.force plane));
    answer = Hashtbl.create 4;
  }

let create ?opts ?check_plane q db =
  (* Fail fast on schema mismatches. *)
  List.iter
    (fun f -> ignore (Relational.Fact.key (Database.schema_of db f) f))
    (Database.facts db);
  of_report ?check_plane (Dichotomy.classify ?opts q) db

let query s = s.report.Dichotomy.query
let report s = s.report
let database s = s.database
(* Delta updates keep the classification, and a plane that was already
   forced is patched with [Compiled.apply_delta] instead of recompiled;
   [check_plane] gates the patched plane exactly as it gates a fresh
   compile, surfacing on first force. The solution graph and the answer
   memo are dropped (facts changed), and the graph is rebuilt lazily on
   the patched plane. *)
let update s (d : Delta.t) =
  let database = Delta.apply s.database d in
  if not (Lazy.is_val s.plane) then
    of_report ?check_plane:s.check_plane s.report database
  else begin
    let old_plane = Lazy.force s.plane in
    let plane =
      lazy
        (let p = Compiled.apply_delta old_plane d in
         Solver.apply_plane_gate s.check_plane p;
         p)
    in
    {
      s with
      database;
      plane;
      graph =
        lazy
          (Solution_graph.of_query_compiled s.report.Dichotomy.query
             (Lazy.force plane));
      answer = Hashtbl.create 4;
    }
  end

let add_fact s f = update s [ Delta.Insert f ]
let remove_fact s f = update s [ Delta.Retract f ]

let compiled s = Lazy.force s.plane

let certain ?(k = 3) s =
  match Hashtbl.find_opt s.answer k with
  | Some cached -> cached
  | None ->
      let result = Solver.certain_graph ~k s.report ~plane:s.plane ~graph:s.graph in
      Hashtbl.add s.answer k result;
      result

let estimate s rng ~trials =
  Cqa.Montecarlo.estimate_g rng ~trials (Lazy.force s.graph)

let certificate ?(k = 3) s =
  let g = Lazy.force s.graph in
  Option.map (fun c -> (g, c)) (Cqa.Certk.certificate ~k g)

let falsifying_repair s =
  let g = Lazy.force s.graph in
  Option.map
    (List.map (fun v -> g.Solution_graph.facts.(v)))
    (Cqa.Satreduce.falsifying_repair g)
