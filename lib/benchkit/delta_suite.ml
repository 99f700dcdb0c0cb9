module Solution_graph = Qlang.Solution_graph
module Compiled = Relational.Compiled
module Database = Relational.Database
module Delta = Relational.Delta
module Fact = Relational.Fact
module Catalog = Workload.Catalog
module Randdb = Workload.Randdb

type profile = Smoke | Default

let profile_name = function Smoke -> "smoke" | Default -> "default"

let profile_of_string = function
  | "smoke" -> Some Smoke
  | "default" -> Some Default
  | _ -> None

type spec = {
  name : string;
  query : Qlang.Query.t;
  k : int;
  db : Database.t;
  delta : Delta.t;
  repeats : int;
}

(* A fresh fact for the query's schema that is not already in [db]; after
   [tries] collisions, give up and return the candidate anyway — the delta
   stays legal (inserting a present fact is a no-op), the case merely
   measures a smaller net update. *)
let fresh_fact rng q db ~domain =
  let rec go tries =
    let cand =
      List.hd (Database.facts (Randdb.random_for_query rng q ~n_facts:1 ~domain))
    in
    if tries < 32 && Fact.Set.mem cand (Database.fact_set db) then go (tries + 1)
    else cand
  in
  go 0

let present_fact rng db =
  let facts = Database.facts db in
  List.nth facts (Random.State.int rng (List.length facts))

let specs rng profile =
  let sizes entry_name k =
    (* Per-entry large sizes sit where the from-scratch path has left its
       near-linear regime (its fixpoint cost grows super-linearly in the
       plane size) but still regenerates in CI time: q3's k = 2 fixpoint is
       the most expensive per fact, q6's k = 3 one less so, q5's antichain
       stays tiny so its recompile cost is almost all compile + matching. *)
    match (profile, entry_name, k) with
    | Smoke, _, _ -> [ 40; 80 ]
    | Default, "q5", _ -> [ 200; 4000 ]
    | Default, _, 3 -> [ 200; 1000 ]
    | Default, _, _ -> [ 200; 1000 ]
  in
  let repeats = match profile with Smoke -> 3 | Default -> 5 in
  List.concat_map
    (fun (entry_name, q, k) ->
      List.concat_map
        (fun n ->
          let domain = max 2 (n / 4) in
          let db = Randdb.random_for_query rng q ~n_facts:n ~domain in
          let case kind delta =
            {
              name = Printf.sprintf "%s/rand-n%d/%s" entry_name n kind;
              query = q;
              k;
              db;
              delta;
              repeats;
            }
          in
          let singles =
            [
              case "ins1" [ Delta.Insert (fresh_fact rng q db ~domain) ];
              case "ret1" [ Delta.Retract (present_fact rng db) ];
            ]
          in
          match profile with
          | Smoke -> singles
          | Default ->
              singles
              @ [
                  case "mix8"
                    (List.init 4 (fun _ ->
                         Delta.Insert (fresh_fact rng q db ~domain))
                    @ List.init 4 (fun _ ->
                          Delta.Retract (present_fact rng db)));
                ])
        (sizes entry_name k))
    [ ("q3", Catalog.q3, 2); ("q5", Catalog.q5, 2); ("q6", Catalog.q6, 3) ]

(* One case: answer CERTAIN after the delta down both paths.

   - recompile-resolve: persistent update, full plane compile, full graph
     build, Cert_k from scratch — what the system did before incremental
     maintenance.
   - delta-resume: [Compiled.apply_delta_patch] + [Solution_graph.repair] +
     [Certk.resume] on a snapshot captured before the delta — the
     incremental path the daemon's [update] op rides.

   The equivalence bit is checked outside the timed region, against the
   strongest available oracles: structural graph equality with the rebuilt
   graph, verdict agreement including the frozen [Certk_rounds] baseline, an
   identical minimal-set antichain, and a sanitizer pass (full [run] plus
   the PL109 delta-image check) over the patched plane. *)
let run_case ~budget_s spec =
  let q = spec.query and k = spec.k in
  let base_plane = Compiled.compile spec.db in
  let base_graph = Solution_graph.of_query_compiled q base_plane in
  let base_snap = Cqa.Certk.snapshot ~k base_graph in
  let new_db = Delta.apply spec.db spec.delta in
  let time algorithm f =
    let o = Measure.sample ~budget_s ~stabilize:true ~repeats:spec.repeats f in
    {
      Report.algorithm;
      status = (if o.Measure.timed_out then "timeout" else "ok");
      median_ms = o.Measure.median_ms;
      repeats = o.Measure.repeats;
      certain = o.Measure.verdict;
      steps = o.Measure.steps;
      sites = o.Measure.sites;
    }
  in
  let full =
    time "recompile-resolve" (fun budget ->
        Cqa.Certk.run ~budget ~k
          (Solution_graph.of_query_compiled q (Compiled.compile new_db)))
  in
  let delta_run =
    time "delta-resume" (fun budget ->
        let patch = Compiled.apply_delta_patch base_plane spec.delta in
        let g = Solution_graph.repair q ~old:base_graph patch in
        Cqa.Certk.verdict (Cqa.Certk.resume ~budget base_snap ~graph:g ~patch))
  in
  (* Equivalence, unbudgeted and untimed. *)
  let patch = Compiled.apply_delta_patch base_plane spec.delta in
  let repaired = Solution_graph.repair q ~old:base_graph patch in
  let resumed = Cqa.Certk.resume base_snap ~graph:repaired ~patch in
  let fresh_graph = Solution_graph.of_query_compiled q (Compiled.compile new_db) in
  let sets g = List.sort compare g in
  let delta_equivalent =
    Solution_graph.equal repaired fresh_graph
    && Cqa.Certk.verdict resumed = Cqa.Certk.run ~k fresh_graph
    && Cqa.Certk.verdict resumed = Cqa.Certk_rounds.run ~k fresh_graph
    && sets (Cqa.Certk.snapshot_derived resumed)
       = sets (Cqa.Certk.derived ~k fresh_graph)
    && Analysis.Sanitize.run ~query:q patch.Compiled.plane = []
    && Analysis.Sanitize.check_delta ~before:base_plane ~delta:spec.delta
         patch.Compiled.plane
       = []
  in
  let delta_us =
    if delta_run.Report.status = "ok" then
      Some (delta_run.Report.median_ms *. 1000.)
    else None
  in
  let delta_speedup =
    if
      full.Report.status = "ok"
      && delta_run.Report.status = "ok"
      && delta_run.Report.median_ms > 0.
    then Some (full.Report.median_ms /. delta_run.Report.median_ms)
    else None
  in
  {
    Report.name = spec.name;
    query = Qlang.Query.to_string q;
    k;
    n_facts = Solution_graph.n_facts base_graph;
    n_blocks = Solution_graph.n_blocks base_graph;
    budget_s;
    compile_ms = None;
    runs = [ full; delta_run ];
    speedup_vs_rounds = None;
    speedup_e2e = None;
    plane_equivalent = None;
    delta_us;
    delta_speedup;
    delta_equivalent = Some delta_equivalent;
    obs_overhead_pct = None;
  }

let geomean = function
  | [] -> None
  | xs ->
      let logs = List.fold_left (fun acc x -> acc +. log x) 0. xs in
      Some (exp (logs /. float_of_int (List.length xs)))

(* Both runs answered: their verdicts must agree (the equivalence bit
   re-checks this with the unbudgeted oracles, but a budgeted divergence is
   a bug too). *)
let case_agrees (c : Report.case) =
  match
    List.filter_map (fun (r : Report.run) -> r.Report.certain) c.Report.runs
  with
  | [] -> true
  | v :: vs -> List.for_all (( = ) v) vs

let run ~profile ~seed ~budget_s () =
  let rng = Random.State.make [| seed |] in
  (* A sub-millisecond delta path fits entirely in a generously sized minor
     heap, so with [~stabilize] collections land between repeats instead of
     splattering multi-hundred-microsecond major slices across whichever
     timed region happens to allocate next. The recompile path is measured
     under exactly the same regime. *)
  let gc = Gc.get () in
  Gc.set { gc with Gc.minor_heap_size = 1 lsl 22 };
  let cases =
    Fun.protect
      ~finally:(fun () -> Gc.set gc)
      (fun () -> List.map (run_case ~budget_s) (specs rng profile))
  in
  {
    Report.suite = "delta-update";
    profile = profile_name profile;
    seed;
    cases;
    agreement = List.for_all case_agrees cases;
    plane_equivalence = None;
    geomean_speedup = None;
    geomean_e2e = None;
    delta_equivalence =
      Some
        (List.for_all (fun c -> c.Report.delta_equivalent <> Some false) cases);
    geomean_delta =
      geomean (List.filter_map (fun c -> c.Report.delta_speedup) cases);
    obs_overhead_pct = None;
    obs_bar_pct = None;
    obs_within_bar = None;
  }
