module Solution_graph = Qlang.Solution_graph
module Catalog = Workload.Catalog
module Randdb = Workload.Randdb
module Designs = Workload.Designs

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
  db : Relational.Database.t;
  repeats : int;
}

(* Oracles only run on instances they can afford: [Certk_naive] enumerates
   every k-set up front, [Exact] explores repairs. Both verdicts feed the
   cross-algorithm agreement check, so including them where feasible turns
   the benchmark into a differential test as well. *)
let naive_cap = 150
let exact_cap = 450

let specs rng profile ~extra_queries =
  let sizes, repeats =
    match profile with Smoke -> ([ 40; 80 ], 2) | Default -> ([ 200; 400; 800 ], 3)
  in
  let random_cases (entry_name, q, k) =
    List.map
      (fun n ->
        let db = Randdb.random_for_query rng q ~n_facts:n ~domain:(max 2 (n / 4)) in
        {
          name = Printf.sprintf "%s/rand-n%d" entry_name n;
          query = q;
          k;
          db;
          repeats;
        })
      sizes
  in
  (* The catalogue worst cases for Cert_k: q3's long propagation chains and
     q5's 2way-determined instances stress derivation depth; q6 rotation
     systems stress the antichain (they are also where Cert_k alone is
     incomplete, Theorem 14). *)
  let catalogue =
    List.concat_map random_cases
      [ ("q3", Catalog.q3, 2); ("q5", Catalog.q5, 2); ("q6", Catalog.q6, 3) ]
  in
  let structured =
    {
      name = "q6/fano-minus-0";
      query = Catalog.q6;
      k = 3;
      db = Designs.fano_minus 0;
      repeats;
    }
    ::
    (match profile with
    | Smoke -> []
    | Default ->
        List.map
          (fun n_triples ->
            {
              name = Printf.sprintf "q6/rotation-t%d" n_triples;
              query = Catalog.q6;
              k = 3;
              db =
                Designs.rotation_system rng ~n_keys:(n_triples + 1) ~n_triples;
              repeats;
            })
          [ 50; 100 ])
  in
  let extra =
    List.concat_map
      (fun (name, q) ->
        let k = 2 in
        let n = match profile with Smoke -> 40 | Default -> 200 in
        let db = Randdb.random_for_query rng q ~n_facts:n ~domain:(max 2 (n / 4)) in
        [ { name = Printf.sprintf "%s/rand-n%d" name n; query = q; k; db; repeats } ])
      extra_queries
  in
  catalogue @ structured @ extra

let run_case ~budget_s spec =
  (* The compile phase, timed separately: persistent database -> interned
     execution plane -> solution graph. Every in-place algorithm below runs
     on [g], so this is the one-off cost they all share. *)
  let compile_ms, g =
    Measure.time_ms ~repeats:spec.repeats (fun () ->
        Solution_graph.of_query_compiled spec.query
          (Relational.Compiled.compile spec.db))
  in
  (* The frozen persistent-plane builder is the equivalence baseline: the
     compiled graph must be structurally identical, and its end-to-end
     timing is what [speedup_e2e] compares against. *)
  let g_ref =
    Solution_graph.of_atoms_reference spec.query.Qlang.Query.a
      spec.query.Qlang.Query.b spec.db
  in
  let plane_equivalent = Solution_graph.equal g g_ref in
  let n_facts = Solution_graph.n_facts g in
  let time algorithm f =
    let o = Measure.sample ~budget_s ~repeats:spec.repeats f in
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
  let runs =
    [
      time "certk-delta" (fun budget -> Cqa.Certk.run ~budget ~k:spec.k g);
      time "certk-rounds" (fun budget -> Cqa.Certk_rounds.run ~budget ~k:spec.k g);
      (* End-to-end pair: graph construction included in every repeat, once
         through each plane. Their ratio is the whole-pipeline win of the
         compiled plane (the solve phase is identical by construction). *)
      time "certk-e2e-compiled" (fun budget ->
          Cqa.Certk.run ~budget ~k:spec.k
            (Solution_graph.of_query_compiled spec.query
               (Relational.Compiled.compile spec.db)));
      time "certk-e2e-persistent" (fun budget ->
          Cqa.Certk.run ~budget ~k:spec.k
            (Solution_graph.of_atoms_reference spec.query.Qlang.Query.a
               spec.query.Qlang.Query.b spec.db));
    ]
    @ (if n_facts <= naive_cap then
         [ time "certk-naive" (fun budget -> Cqa.Certk_naive.run ~budget ~k:spec.k g) ]
       else [])
    @
    if n_facts <= exact_cap then
      [ time "exact" (fun budget -> Cqa.Exact.certain ~budget g) ]
    else []
  in
  let find alg = List.find_opt (fun r -> r.Report.algorithm = alg) runs in
  let ratio slow fast =
    match (find fast, find slow) with
    | Some f, Some s
      when f.Report.status = "ok" && s.Report.status = "ok"
           && f.Report.median_ms > 0. ->
        Some (s.Report.median_ms /. f.Report.median_ms)
    | _ -> None
  in
  {
    Report.name = spec.name;
    query = Qlang.Query.to_string spec.query;
    k = spec.k;
    n_facts;
    n_blocks = Solution_graph.n_blocks g;
    budget_s;
    compile_ms = Some compile_ms;
    runs;
    speedup_vs_rounds = ratio "certk-rounds" "certk-delta";
    speedup_e2e = ratio "certk-e2e-persistent" "certk-e2e-compiled";
    plane_equivalent = Some plane_equivalent;
    obs_overhead_pct = None;
  }

(* Agreement is between the Cert_k variants only — they compute the same
   fixpoint, so any divergence is a bug. [Exact] decides CERTAIN itself,
   of which Cert_k is merely a sound under-approximation, so exact may
   answer [true] where Cert_k answers [false] (e.g. q6 designs) — but never
   the other way around. *)
let case_agrees (c : Report.case) =
  let verdicts prefix =
    List.filter_map
      (fun r ->
        if String.length r.Report.algorithm >= String.length prefix
           && String.sub r.Report.algorithm 0 (String.length prefix) = prefix
        then r.Report.certain
        else None)
      c.Report.runs
  in
  let certks = verdicts "certk" in
  let all_equal = function [] -> true | v :: vs -> List.for_all (( = ) v) vs in
  let sound =
    match
      ( certks,
        List.find_opt (fun r -> r.Report.algorithm = "exact") c.Report.runs )
    with
    | v :: _, Some { Report.certain = Some e; _ } -> (not v) || e
    | _ -> true
  in
  all_equal certks && sound

let geomean = function
  | [] -> None
  | xs ->
      let logs = List.fold_left (fun acc x -> acc +. log x) 0. xs in
      Some (exp (logs /. float_of_int (List.length xs)))

let run ?(extra_queries = []) ~profile ~seed ~budget_s () =
  let rng = Random.State.make [| seed |] in
  let cases = List.map (run_case ~budget_s) (specs rng profile ~extra_queries) in
  {
    Report.suite = "certk-fixpoint";
    profile = profile_name profile;
    seed;
    cases;
    agreement = List.for_all case_agrees cases;
    plane_equivalence =
      Some
        (List.for_all
           (fun c -> c.Report.plane_equivalent <> Some false)
           cases);
    geomean_speedup =
      geomean (List.filter_map (fun c -> c.Report.speedup_vs_rounds) cases);
    geomean_e2e = geomean (List.filter_map (fun c -> c.Report.speedup_e2e) cases);
    obs_overhead_pct = None;
    obs_bar_pct = None;
    obs_within_bar = None;
  }
