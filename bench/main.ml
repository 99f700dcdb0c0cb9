(* Benchmark and reproduction harness.

   The paper is a theory paper: its "evaluation" consists of worked example
   queries, two figures (the tripath illustrations and the 3-SAT gadget) and
   theorem-level claims. Each experiment below regenerates one such artifact
   and prints paper-vs-measured; EXPERIMENTS.md records the outcomes.

     dune exec bench/main.exe                 # all experiments + timings
     dune exec bench/main.exe -- --list
     dune exec bench/main.exe -- --table thm4
     dune exec bench/main.exe -- --figure fig2
     dune exec bench/main.exe -- --bechamel   # micro-benchmarks only *)

module Db = Relational.Database
module Query = Qlang.Query
module Solution_graph = Qlang.Solution_graph
module Catalog = Workload.Catalog
module Designs = Workload.Designs
module Cnf = Satsolver.Cnf

let section title =
  Format.printf "@.%s@.%s@." title (String.make (String.length title) '=')

let subsection title = Format.printf "@.-- %s@." title

let timed f =
  let t0 = Harness.Clock.now () in
  let result = f () in
  (result, Harness.Clock.now () -. t0)

let rng () = Random.State.make [| 0xC0FFEE |]

(* ------------------------------------------------------------------ *)
(* E1: the classification table (the paper's q1..q7 and more)          *)

let e1_classification () =
  section "E1  Dichotomy classification of the query catalogue (Thms 3/4/9/12/18)";
  Format.printf "%-18s %-46s %-52s %s@." "name" "query" "measured verdict" "paper";
  let mismatches = ref 0 in
  List.iter
    (fun (e : Catalog.entry) ->
      let report, dt = timed (fun () -> Core.Dichotomy.classify e.Catalog.query) in
      let expected = Format.asprintf "%a" Catalog.pp_expected e.Catalog.expected in
      let verdict = Core.Dichotomy.verdict_summary report.Core.Dichotomy.verdict in
      let ok =
        match (e.Catalog.expected, report.Core.Dichotomy.verdict) with
        | Catalog.Exp_trivial, Core.Dichotomy.Ptime (Core.Dichotomy.Trivial _)
        | Catalog.Exp_conp_sjf, Core.Dichotomy.Conp_complete Core.Dichotomy.Sjf_hard
        | Catalog.Exp_ptime_cert2, Core.Dichotomy.Ptime Core.Dichotomy.Cert2
        | ( Catalog.Exp_ptime_no_tripath,
            Core.Dichotomy.Ptime Core.Dichotomy.Certk_no_tripath )
        | ( Catalog.Exp_conp_fork,
            Core.Dichotomy.Conp_complete (Core.Dichotomy.Fork_tripath _) )
        | ( Catalog.Exp_ptime_triangle,
            Core.Dichotomy.Ptime (Core.Dichotomy.Combined_triangle _) ) ->
            true
        | _, _ -> false
      in
      if not ok then incr mismatches;
      Format.printf "%-18s %-46s %-52s %s%s (%.2fs)@." e.Catalog.name
        (Query.to_string e.Catalog.query)
        verdict expected
        (if ok then "" else "  <-- MISMATCH")
        dt)
    Catalog.all;
  Format.printf "@.result: %d/%d verdicts match the paper's analysis@."
    (List.length Catalog.all - !mismatches)
    (List.length Catalog.all)

(* ------------------------------------------------------------------ *)
(* E2 (Figure 1): tripaths for q2, plain and nice                      *)

let e2_fig1 () =
  section "E2  Figure 1: tripath and nice tripath for q2";
  let q2 = Catalog.q2 in
  (match Core.Tripath_search.find_fork q2 with
  | Core.Tripath_search.Found (tp, kind) ->
      Format.printf "search found a %a-tripath with %d blocks (Figure 1b role):@.%a@."
        Core.Tripath.pp_kind kind (Core.Tripath.n_blocks tp) Core.Tripath.pp tp
  | Core.Tripath_search.Not_found -> Format.printf "UNEXPECTED: no tripath for q2@.");
  subsection "nice fork-tripath (Figure 1c role)";
  let tp = Catalog.q2_nice_fork_tripath in
  (match Core.Tripath.niceness tp with
  | Ok (kind, w) ->
      Format.printf "%a@.verified: %a-tripath, nice; witness x=%a y=%a z=%a u=%a v=%a w=%a@."
        Core.Tripath.pp tp Core.Tripath.pp_kind kind Relational.Value.pp
        w.Core.Tripath.x Relational.Value.pp w.Core.Tripath.y Relational.Value.pp
        w.Core.Tripath.z Relational.Value.pp w.Core.Tripath.u Relational.Value.pp
        w.Core.Tripath.v Relational.Value.pp w.Core.Tripath.w
  | Error errs -> Format.printf "UNEXPECTED: %s@." (String.concat "; " errs));
  let d, e, f = Core.Tripath.center_facts tp in
  Format.printf "center g(e) = {%s}@."
    (String.concat ", "
       (List.map Relational.Value.to_string
          (Relational.Value.Set.elements (Core.Tripath.g_set q2 ~d ~e ~f))))

(* ------------------------------------------------------------------ *)
(* E3 (Figure 2 / Lemma 13): the 3-SAT gadget                          *)

let e3_fig2 () =
  section "E3  Figure 2 / Lemma 13: 3-SAT -> database gadget for q2";
  let q2 = Catalog.q2 in
  let g =
    match Core.Gadget.of_tripath Catalog.q2_nice_fork_tripath with
    | Ok g -> g
    | Error msg -> failwith msg
  in
  let check name phi =
    let db = Core.Gadget.database g phi in
    let sat = Satsolver.Dpll.is_sat phi in
    let certain, dt = timed (fun () -> Cqa.Exact.certain_query q2 db) in
    Format.printf "%-10s %4d facts %4d blocks  sat=%-5b certain=%-5b agree=%b (%.2fs)@."
      name (Db.size db)
      (List.length (Db.blocks db))
      sat certain
      (certain = not sat)
      dt;
    certain = not sat
  in
  let ok_paper =
    check "fig2" (Cnf.make ~n_vars:3 [ [ -1; 2; 3 ]; [ -1; -2; 3 ]; [ 1; -2; -3 ] ])
  in
  let ok_unsat =
    check "unsat"
      (Cnf.make ~n_vars:6
         [ [ -1; 2 ]; [ -2; 3 ]; [ -3; 4 ]; [ -4; 1 ]; [ 1; 5 ]; [ 2; -5 ]; [ -3; 6 ]; [ -4; -6 ] ])
  in
  let rng = rng () in
  let agree = ref 0 and total = ref 0 in
  while !total < 15 do
    match Workload.Randdb.hard_instance rng g ~n_vars:5 ~n_clauses:8 with
    | None -> ()
    | Some (phi, db) ->
        incr total;
        let sat = Satsolver.Dpll.is_sat phi in
        if Cqa.Exact.certain_query q2 db = not sat then incr agree
  done;
  Format.printf "random 3-SAT: Lemma 13 equivalence held on %d/%d instances@." !agree !total;
  Format.printf "result: paper example %s, unsat example %s, random %d/%d@."
    (if ok_paper then "OK" else "FAIL")
    (if ok_unsat then "OK" else "FAIL")
    !agree !total

(* ------------------------------------------------------------------ *)
(* E4 (Proposition 2): the sjf reduction                               *)

let e4_prop2 () =
  section "E4  Proposition 2: CERTAIN(sjf(q)) reduces to CERTAIN(q)";
  let rng = rng () in
  List.iter
    (fun name ->
      let q = (Catalog.find name).Catalog.query in
      let s = Qlang.Sjf.of_query q in
      let agree = ref 0 in
      let trials = 40 in
      for _ = 1 to trials do
        let db = Workload.Randdb.random_sjf rng s ~n_facts:10 ~domain:3 in
        let lhs = Cqa.Exact.certain_sjf s db in
        let rhs = Cqa.Exact.certain_query q (Qlang.Sjf.reduce q db) in
        if lhs = rhs then incr agree
      done;
      Format.printf "%-10s D |= CERTAIN(sjf(q)) <=> mu(D) |= CERTAIN(q): %d/%d random databases@."
        name !agree trials)
    [ "q1"; "q2"; "q5"; "q6" ];
  subsection "the Kolaitis-Pema classification of sjf(q) vs ours of q";
  List.iter
    (fun name ->
      let q = (Catalog.find name).Catalog.query in
      let sjf_verdict = Cqa.Sjf_dichotomy.classify (Qlang.Sjf.of_query q) in
      let verdict = Core.Dichotomy.classify q in
      Format.printf "%-6s sjf(q): %-24s q: %s@." name
        (Format.asprintf "%a" Cqa.Sjf_dichotomy.pp_verdict sjf_verdict)
        (Core.Dichotomy.verdict_summary verdict.Core.Dichotomy.verdict))
    [ "q1"; "q2"; "q5"; "q6" ];
  Format.printf
    "note: sjf(q2) is PTIME while q2 is coNP-complete — the converse of \
     Proposition 2 fails.@."

(* ------------------------------------------------------------------ *)
(* E5 (Theorem 4): Cert_2 is exact on the easy syntactic class          *)

let e5_thm4 () =
  section "E5  Theorem 4: Cert_2 = CERTAIN when key(A) <= key(B) or shared <= key(B)";
  let rng = rng () in
  List.iter
    (fun name ->
      let q = (Catalog.find name).Catalog.query in
      let agree = ref 0 and zigzag = ref 0 in
      let trials = 60 in
      for _ = 1 to trials do
        let db = Workload.Randdb.random_for_query rng q ~n_facts:12 ~domain:3 in
        if Cqa.Certk.run ~k:2 (Solution_graph.of_query q db) = Cqa.Exact.certain_query q db
        then incr agree;
        if Core.Syntactic.zigzag_holds q db then incr zigzag
      done;
      Format.printf "%-18s Cert_2 = CERTAIN: %d/%d   zig-zag property (Lemma 5): %d/%d@."
        name !agree trials !zigzag trials)
    [ "q3"; "q4"; "q7"; "cert2-shared-key" ]

(* ------------------------------------------------------------------ *)
(* E6 (Theorem 9): Cert_k is exact without tripaths                    *)

let e6_thm9 () =
  section "E6  Theorem 9: no tripath => Cert_k = CERTAIN (2way-determined)";
  let rng = rng () in
  List.iter
    (fun name ->
      let q = (Catalog.find name).Catalog.query in
      let agree = ref 0 in
      let trials = 60 in
      for _ = 1 to trials do
        let db = Workload.Randdb.random_for_query rng q ~n_facts:12 ~domain:3 in
        if Cqa.Certk.run ~k:3 (Solution_graph.of_query q db) = Cqa.Exact.certain_query q db
        then incr agree
      done;
      Format.printf "%-10s Cert_3 = CERTAIN on %d/%d random databases@." name !agree trials)
    [ "q5"; "swap" ]

(* ------------------------------------------------------------------ *)
(* E7 (Theorem 14): Cert_k alone fails for triangle queries            *)

let e7_thm14 () =
  section "E7  Theorem 14: Cert_k is not exact for q6 (triangle-tripath query)";
  Format.printf "%-24s %-8s %-7s %-7s %-7s %-9s %s@." "instance" "certain" "Cert_1"
    "Cert_2" "Cert_3" "matching" "combined(k=2)";
  let row name db =
    let g = Solution_graph.of_query Catalog.q6 db in
    Format.printf "%-24s %-8b %-7b %-7b %-7b %-9b %b@." name (Cqa.Exact.certain g)
      (Cqa.Certk.run ~k:1 g) (Cqa.Certk.run ~k:2 g) (Cqa.Certk.run ~k:3 g)
      (Cqa.Matching_alg.run g) (Cqa.Combined.run ~k:2 g)
  in
  row "two-orientations" Designs.two_orientations;
  for i = 0 to 2 do
    row (Printf.sprintf "fano-minus-line-%d" i) (Designs.fano_minus i)
  done;
  row "full-fano" (Designs.db_of_triples Designs.fano_lines);
  Format.printf
    "@.reading: the first rows are certain yet invisible to Cert_1 (resp. \
     Cert_2);@.the matching side of the Theorem 18 combination always \
     recovers the answer.@."

(* ------------------------------------------------------------------ *)
(* E8 (Prop 15/16, Thm 17): the matching algorithm on clique databases *)

let e8_thm17 () =
  section "E8  Theorem 17: not MATCHING = CERTAIN for the clique-query q6";
  let rng = rng () in
  let agree = ref 0 and clique = ref 0 and sound = ref 0 in
  let trials = 60 in
  for _ = 1 to trials do
    let db = Designs.rotation_system rng ~n_keys:7 ~n_triples:6 in
    let g = Solution_graph.of_query Catalog.q6 db in
    if Solution_graph.is_clique_database g then incr clique;
    let certain = Cqa.Exact.certain g in
    if not (Cqa.Matching_alg.run g) = certain then incr agree;
    if Cqa.Matching_alg.run g || certain then incr sound
  done;
  Format.printf "rotation systems that are clique-databases: %d/%d@." !clique trials;
  Format.printf "not MATCHING = CERTAIN (Prop 16/Thm 17):      %d/%d@." !agree trials;
  Format.printf "not MATCHING => CERTAIN (Prop 15 soundness):  %d/%d@." !sound trials

(* ------------------------------------------------------------------ *)
(* E9 (Theorem 18): the combined algorithm                             *)

let e9_thm18 () =
  section "E9  Theorem 18: Cert_k v not-MATCHING = CERTAIN without fork-tripaths";
  let rng = rng () in
  List.iter
    (fun name ->
      let q = (Catalog.find name).Catalog.query in
      let agree = ref 0 in
      let trials = 60 in
      for _ = 1 to trials do
        let db = Workload.Randdb.random_for_query rng q ~n_facts:10 ~domain:3 in
        if
          Cqa.Combined.run ~k:2 (Solution_graph.of_query q db)
          = Cqa.Exact.certain_query q db
        then
          incr agree
      done;
      Format.printf "%-12s combined(k=2) = CERTAIN on %d/%d random databases@." name
        !agree trials)
    [ "q6"; "triangle-2" ];
  (* The Fano family again, through the full solver pipeline. *)
  let report = Core.Dichotomy.classify Catalog.q6 in
  let all_ok = ref true in
  for i = 0 to 6 do
    let answer, _ = Core.Solver.certain report (Designs.fano_minus i) in
    if not answer then all_ok := false
  done;
  Format.printf "solver pipeline answers certain on all 7 fano-minus instances: %b@." !all_ok

(* ------------------------------------------------------------------ *)
(* E10: the coNP upper bound via SAT                                   *)

let e10_sat () =
  section "E10 coNP upper bound: SAT-encoded solver vs backtracking";
  let rng = rng () in
  List.iter
    (fun name ->
      let q = (Catalog.find name).Catalog.query in
      let agree = ref 0 in
      let trials = 50 in
      for _ = 1 to trials do
        let db = Workload.Randdb.random_for_query rng q ~n_facts:12 ~domain:3 in
        let g = Solution_graph.of_query q db in
        if Cqa.Satreduce.certain g = Cqa.Exact.certain g then incr agree
      done;
      Format.printf "%-10s SAT = backtracking on %d/%d random databases@." name !agree trials)
    [ "q3"; "q6"; "q2" ];
  let dpll = ref 0 and cdcl = ref 0 in
  let trials = 40 in
  for _ = 1 to trials do
    let f = Satsolver.Threesat.random rng ~n_vars:8 ~n_clauses:20 in
    let expected = Satsolver.Brute.is_sat f in
    if Satsolver.Dpll.is_sat f = expected then incr dpll;
    match Satsolver.Cdcl.solve (Satsolver.Cdcl.of_cnf f) with
    | Satsolver.Cdcl.Sat m -> if expected && Cnf.eval f m then incr cdcl
    | Satsolver.Cdcl.Unsat -> if not expected then incr cdcl
  done;
  Format.printf "DPLL = exhaustive SAT oracle on %d/%d random 3-CNFs@." !dpll trials;
  Format.printf "CDCL = exhaustive SAT oracle on %d/%d random 3-CNFs@." !cdcl trials

(* ------------------------------------------------------------------ *)
(* E11: scaling shape — PTIME algorithms vs exponential baselines      *)

let median_time f =
  let runs = 3 in
  let times =
    List.init runs (fun _ ->
        let t0 = Harness.Clock.now () in
        ignore (Sys.opaque_identity (f ()));
        Harness.Clock.now () -. t0)
    |> List.sort compare
  in
  List.nth times (runs / 2)

(* A cell that gives up raises [Cell_timeout]; its enclosing [with_timeout]
   reports it as [None]. *)
exception Cell_timeout

(* The deadline of the [with_timeout] call at this depth (1 = outermost)
   has passed. *)
exception Expired of int

(* Absolute deadlines of the active [with_timeout] calls, innermost first.
   One ITIMER_REAL serves them all: it is armed for the nearest. *)
let deadlines = ref []

let arm () =
  let it_value =
    match !deadlines with
    | [] -> 0.0
    | ds ->
        (* Never 0, which disarms: a deadline already passed fires at once. *)
        Float.max 1e-3 (List.fold_left Float.min infinity ds -. Harness.Clock.now ())
  in
  ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_value; it_interval = 0.0 })

(* The outermost passed deadline wins, so an experiment budget that runs
   out inside a cell stops the experiment instead of capping the cell. *)
let on_alarm _ =
  let now = Harness.Clock.now () in
  let rec outermost depth = function
    | [] -> None
    | d :: inner -> if d <= now then Some depth else outermost (depth + 1) inner
  in
  match outermost 1 (List.rev !deadlines) with
  | Some depth -> raise (Expired depth)
  | None -> arm ()

(* Wall-clock guard: [Some (f ())], or [None] once [seconds] have passed.
   The algorithms allocate constantly, so the signal is delivered
   promptly. Calls nest; on the way out the enclosing deadline is re-armed
   with the time it has left. *)
let with_timeout seconds f =
  let outer = !deadlines in
  let depth = List.length outer + 1 in
  deadlines := (Harness.Clock.now () +. seconds) :: outer;
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle on_alarm);
  arm ();
  let restore () =
    deadlines := outer;
    arm ()
  in
  match f () with
  | result ->
      restore ();
      Some result
  | exception Cell_timeout ->
      restore ();
      None
  | exception Expired d when d = depth ->
      restore ();
      None
  | exception (Expired _ as e) ->
      (* An enclosing deadline passed and spent the one-shot timer; the
         frame that owns it re-arms what it encloses. *)
      deadlines := outer;
      raise e
  | exception e ->
      restore ();
      raise e

(* Median time of a cell, or None if a single run exceeds the cap. *)
let timed_cell ?(cap = 10.0) f =
  match with_timeout cap (fun () -> ignore (Sys.opaque_identity (f ()))) with
  | None -> None
  | Some () -> Some (median_time f)

let pp_cell ppf = function
  | None -> Format.fprintf ppf "%12s" "> cap"
  | Some t -> Format.fprintf ppf "%12.2f" (t *. 1e3)

let e11_scaling () =
  section "E11 Scaling: polynomial algorithms vs exponential exact solvers";
  subsection "PTIME query q3 = R(x|y) R(y|z) on random databases (times in ms)";
  Format.printf "%8s %12s %12s %12s %12s@." "n_facts" "Cert_2" "Matching" "backtrack" "SAT";
  let rng = rng () in
  List.iter
    (fun n ->
      let db = Workload.Randdb.random_for_query rng Catalog.q3 ~n_facts:n ~domain:(n / 4) in
      let g = Solution_graph.of_query Catalog.q3 db in
      let t_cert2 = timed_cell (fun () -> Cqa.Certk.run ~k:2 g) in
      let t_match = timed_cell (fun () -> Cqa.Matching_alg.run g) in
      let t_exact = timed_cell (fun () -> Cqa.Exact.certain g) in
      let t_sat = timed_cell (fun () -> Cqa.Satreduce.certain g) in
      Format.printf "%8d %a %a %a %a@." n pp_cell t_cert2 pp_cell t_match pp_cell
        t_exact pp_cell t_sat)
    [ 50; 100; 200; 400; 800 ];
  subsection
    "coNP query q2 on Theorem 12 gadget databases (backtracking explores repairs)";
  let g =
    match Core.Gadget.of_tripath Catalog.q2_nice_fork_tripath with
    | Ok g -> g
    | Error msg -> failwith msg
  in
  Format.printf "%8s %6s %8s %12s %12s %10s@." "chain_n" "sat" "n_facts" "exact(ms)"
    "SAT(ms)" "certain";
  List.iter
    (fun n ->
      List.iter
        (fun sat ->
          let phi = Satsolver.Threesat.chain ~sat n in
          assert (Satsolver.Threesat.in_gadget_shape phi);
          let db = Core.Gadget.database g phi in
          let sg = Solution_graph.of_query Catalog.q2 db in
          let t_exact = timed_cell (fun () -> Cqa.Exact.certain sg) in
          let t_sat = timed_cell (fun () -> Cqa.Satreduce.certain sg) in
          Format.printf "%8d %6b %8d %a %a %10b@." n sat (Db.size db) pp_cell t_exact
            pp_cell t_sat (Cqa.Exact.certain sg))
        [ true; false ])
    [ 4; 8; 12; 16; 20 ];
  subsection "budgeted degradation chain on the same gadgets (0.3s + estimate fallback)";
  let report2 = Core.Dichotomy.classify Catalog.q2 in
  let pp_outcome =
    Harness.Outcome.pp
      (fun ppf (b, alg) -> Format.fprintf ppf "%b via %a" b Core.Solver.pp_algorithm alg)
      (fun ppf (e : Cqa.Montecarlo.estimate) ->
        Format.fprintf ppf "frequency %.2f over %d trials" e.Cqa.Montecarlo.frequency
          e.Cqa.Montecarlo.trials)
  in
  List.iter
    (fun n ->
      let phi = Satsolver.Threesat.chain ~sat:false n in
      let db = Core.Gadget.database g phi in
      let budget = Harness.Budget.make ~timeout:0.3 () in
      let outcome, _ =
        Core.Solver.solve ~budget ~estimate_trials:200 report2 db
      in
      Format.printf "%8d %8d facts  %a@." n (Db.size db) pp_outcome outcome)
    [ 8; 16; 24 ];
  subsection "matching-based solver on growing q6 rotation systems";
  Format.printf "%10s %10s %12s %12s@." "n_triples" "n_facts" "Matching(ms)" "certain";
  List.iter
    (fun t ->
      let db = Designs.rotation_system rng ~n_keys:(t + (t / 5)) ~n_triples:t in
      let sg = Solution_graph.of_query Catalog.q6 db in
      let tm = timed_cell (fun () -> Cqa.Matching_alg.run sg) in
      Format.printf "%10d %10d %a %12b@." t (Solution_graph.n_facts sg) pp_cell tm
        (not (Cqa.Matching_alg.run sg)))
    [ 25; 50; 100; 200; 400 ]

(* ------------------------------------------------------------------ *)
(* E13: ablations of the implementation's design choices               *)

let e13_ablation () =
  section "E13 Ablations: implementation choices against reference implementations";
  let rng = rng () in
  subsection "Hopcroft-Karp vs naive augmenting paths (random bipartite, ms)";
  Format.printf "%8s %8s %14s %14s@." "n" "edges" "hopcroft-karp" "augmenting";
  List.iter
    (fun n ->
      let edges = ref [] in
      for u = 0 to n - 1 do
        for _ = 1 to 4 do
          edges := (u, Random.State.int rng n) :: !edges
        done
      done;
      let g = Graphs.Bipartite.make ~n_left:n ~n_right:n !edges in
      let t_hk = timed_cell (fun () -> Graphs.Matching.hopcroft_karp g) in
      let t_aug = timed_cell (fun () -> Graphs.Matching.augmenting g) in
      Format.printf "%8d %8d %a   %a@." n (Graphs.Bipartite.n_edges g) pp_cell t_hk
        pp_cell t_aug)
    [ 100; 400; 1600; 6400 ];
  subsection "antichain Cert_k vs literal textbook fixpoint (q3, k = 2, ms)";
  Format.printf "%8s %14s %14s@." "n_facts" "antichain" "naive";
  List.iter
    (fun n ->
      let db = Workload.Randdb.random_for_query rng Catalog.q3 ~n_facts:n ~domain:3 in
      let g = Solution_graph.of_query Catalog.q3 db in
      let t_anti = timed_cell (fun () -> Cqa.Certk.run ~k:2 g) in
      let t_naive = timed_cell ~cap:5.0 (fun () -> Cqa.Certk_naive.run ~k:2 g) in
      Format.printf "%8d %a   %a@." n pp_cell t_anti pp_cell t_naive)
    [ 8; 12; 16; 20; 24 ];
  subsection "three implementations of Cert_2: antichain vs naive vs FO fixpoint (q3, ms)";
  Format.printf "%8s %14s %14s %14s@." "n_facts" "antichain" "naive" "FO";
  List.iter
    (fun n ->
      let db = Workload.Randdb.random_for_query rng Catalog.q3 ~n_facts:n ~domain:3 in
      let g = Solution_graph.of_query Catalog.q3 db in
      let t_anti = timed_cell (fun () -> Cqa.Certk.run ~k:2 g) in
      let t_naive = timed_cell ~cap:5.0 (fun () -> Cqa.Certk_naive.run ~k:2 g) in
      let t_fo = timed_cell ~cap:5.0 (fun () -> Cqa.Certk_fo.run g) in
      Format.printf "%8d %a   %a   %a@." n pp_cell t_anti pp_cell t_naive pp_cell t_fo)
    [ 8; 12; 16; 20 ];
  subsection "falsifier search: backtracking vs repair enumeration vs SAT (q3, ms)";
  Format.printf "%8s %14s %14s %14s@." "n_facts" "backtracking" "enumeration" "SAT";
  List.iter
    (fun n ->
      let db = Workload.Randdb.random_for_query rng Catalog.q3 ~n_facts:n ~domain:3 in
      let g = Solution_graph.of_query Catalog.q3 db in
      let t_bt = timed_cell (fun () -> Cqa.Exact.certain g) in
      let t_enum =
        timed_cell ~cap:5.0 (fun () ->
            try Cqa.Exact.certain_enum Catalog.q3 db
            with Invalid_argument _ -> raise Cell_timeout)
      in
      let t_sat = timed_cell (fun () -> Cqa.Satreduce.certain g) in
      Format.printf "%8d %a   %a   %a@." n pp_cell t_bt pp_cell t_enum pp_cell t_sat)
    [ 10; 20; 30; 40 ];
  subsection "whole-database exact vs component partition (q3, many components, ms)";
  Format.printf "%8s %10s %14s %14s@." "n_facts" "components" "whole" "partitioned";
  List.iter
    (fun groups ->
      (* Disjoint chain groups with private key spaces. *)
      let facts =
        List.concat
          (List.init groups (fun gidx ->
               let base = gidx * 100 in
               [
                 Relational.Fact.make "R"
                   [ Relational.Value.int base; Relational.Value.int (base + 1) ];
                 Relational.Fact.make "R"
                   [ Relational.Value.int base; Relational.Value.int (base + 50) ];
                 Relational.Fact.make "R"
                   [ Relational.Value.int (base + 1); Relational.Value.int (base + 2) ];
               ]))
      in
      let db = Db.of_facts [ Catalog.q3.Query.schema ] facts in
      let parts = Cqa.Partition.split Catalog.q3 db in
      let t_whole = timed_cell (fun () -> Cqa.Exact.certain_query Catalog.q3 db) in
      let t_part =
        timed_cell (fun () ->
            Cqa.Partition.certain_by_components
              (fun c -> Cqa.Exact.certain_query Catalog.q3 c)
              Catalog.q3 db)
      in
      Format.printf "%8d %10d %a   %a@." (Db.size db) (List.length parts) pp_cell
        t_whole pp_cell t_part)
    [ 5; 20; 80 ]

(* ------------------------------------------------------------------ *)
(* E12: the dichotomy landscape of whole signatures                    *)

let e12_atlas () =
  section "E12 Atlas: exhaustive classification of small signatures";
  List.iter
    (fun (arity, key_len) ->
      let queries = Core.Atlas.enumerate ~arity ~key_len in
      let entries, dt = timed (fun () -> Core.Atlas.classify_all queries) in
      Format.printf "@.signature [%d, %d] (%.1fs):@.%a@." arity key_len dt
        Core.Atlas.pp_summary
        (Core.Atlas.summarize entries))
    [ (2, 1); (2, 2); (3, 1); (3, 2) ];
  Format.printf
    "@.The classification procedure is effective (paper, Conclusion): these \
     tables@.enumerate every two-atom self-join query of each signature up \
     to renaming@.and atom order, and classify each one.@."

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)

let bechamel_suite () =
  let open Bechamel in
  section "Bechamel micro-benchmarks (time per run)";
  let rng = rng () in
  let db3 = Workload.Randdb.random_for_query rng Catalog.q3 ~n_facts:150 ~domain:30 in
  let g3 = Solution_graph.of_query Catalog.q3 db3 in
  let db6 = Designs.rotation_system rng ~n_keys:40 ~n_triples:35 in
  let g6 = Solution_graph.of_query Catalog.q6 db6 in
  let gadget =
    match Core.Gadget.of_tripath Catalog.q2_nice_fork_tripath with
    | Ok g -> g
    | Error msg -> failwith msg
  in
  let phi = Cnf.make ~n_vars:3 [ [ -1; 2; 3 ]; [ -1; -2; 3 ]; [ 1; -2; -3 ] ] in
  let gadget_db = Core.Gadget.database gadget phi in
  let gadget_g = Solution_graph.of_query Catalog.q2 gadget_db in
  let tests =
    Test.make_grouped ~name:"cqa"
      [
        Test.make ~name:"solution-graph/q3-n150" (Staged.stage (fun () ->
            Sys.opaque_identity (Solution_graph.of_query Catalog.q3 db3)));
        Test.make ~name:"cert2/q3-n150" (Staged.stage (fun () ->
            Sys.opaque_identity (Cqa.Certk.run ~k:2 g3)));
        Test.make ~name:"matching/q6-35-triples" (Staged.stage (fun () ->
            Sys.opaque_identity (Cqa.Matching_alg.run g6)));
        Test.make ~name:"exact-backtracking/q3-n150" (Staged.stage (fun () ->
            Sys.opaque_identity (Cqa.Exact.certain g3)));
        Test.make ~name:"sat-encode+solve/gadget-fig2" (Staged.stage (fun () ->
            Sys.opaque_identity (Cqa.Satreduce.certain gadget_g)));
        Test.make ~name:"exact-backtracking/gadget-fig2" (Staged.stage (fun () ->
            Sys.opaque_identity (Cqa.Exact.certain gadget_g)));
        Test.make ~name:"tripath-search/q2-fork" (Staged.stage (fun () ->
            Sys.opaque_identity (Core.Tripath_search.find_fork Catalog.q2)));
        Test.make ~name:"gadget-build/fig2" (Staged.stage (fun () ->
            Sys.opaque_identity (Core.Gadget.database gadget phi)));
        Test.make ~name:"classify/q3" (Staged.stage (fun () ->
            Sys.opaque_identity (Core.Dichotomy.classify Catalog.q3)));
      ]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg instances tests in
  (* Regress each test's time on its run count, Bechamel's [run] predictor. *)
  let runs = let open Measure in run in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| runs |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols_result acc ->
        let ns =
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> est
          | Some _ | None -> nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Format.printf "%-40s %15s@." "benchmark" "time/run";
  List.iter
    (fun (name, ns) ->
      let pretty =
        if Float.is_nan ns then "n/a"
        else if ns > 1e9 then Printf.sprintf "%8.2f s " (ns /. 1e9)
        else if ns > 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
        else Printf.sprintf "%8.2f ns" ns
      in
      Format.printf "%-40s %15s@." name pretty)
    rows

(* ------------------------------------------------------------------ *)
(* E24: the miss path and the patch path in process                    *)

(* The median µs of [runs] calls after one warm-up, then the minor words
   and the words allocated straight on the major heap (major minus
   promoted) by one more call, counted apart from the timing. The minor
   count is [Gc.minor_words]: OCaml 5.1's [Gc.counters] undercounts the
   minor heap's current fill eightfold. *)
let alloc_cost ~runs f =
  ignore (Sys.opaque_identity (f ()));
  let times = List.init runs (fun _ -> snd (timed f)) |> List.sort Float.compare in
  let _, promoted0, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  let minor1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  ( 1e6 *. List.nth times (runs / 2),
    minor1 -. minor0,
    major1 -. promoted1 -. (major0 -. promoted0) )

(* A database as the daemon receives it: one [R(k | v)] line per fact. *)
let facts_text db =
  String.concat "\n"
    (List.map
       (fun f -> Format.asprintf "%a" (Relational.Fact.pp_with_key (Db.schema_of db f)) f)
       (Db.facts db))

(* bench/e2e's ingest-update shapes, drawn with seed [|42; n|]: inline q3
   reads of 150, 300 and 450 facts at domain n and the resident 1,600-fact
   plane at domain 4n, each through ingest, fingerprint, compile and the
   sanitize gate; on the resident plane, [apply_delta] of one fresh insert
   and of one retract. Then a plane-cache hit on q5 planes of graph-bound's
   1,200 and 3,200 facts (domain n/8): it re-derives the key in
   O(relations), so its µs/fact falls with size. *)
let e24_compile () =
  section "E24 The miss path in process: median µs, µs per fact, minor and major words per call";
  let runs = 31 in
  Format.printf "%-14s %6s %-12s %11s %9s %10s %10s@." "shape" "facts" "call" "median(us)"
    "us/fact" "minor(w)" "major(w)";
  let row shape facts call f =
    let us, minor, major = alloc_cost ~runs f in
    Format.printf "%-14s %6d %-12s %11.1f %9.3f %10.0f %10.0f@." shape facts call us
      (us /. float_of_int facts) minor major
  in
  let q3 = Catalog.q3 in
  List.iter
    (fun (shape, n, domain) ->
      let rng = Random.State.make [| 42; n |] in
      let drawn = Workload.Randdb.random_for_query rng q3 ~n_facts:n ~domain in
      let text = facts_text drawn in
      let db = Result.get_ok (Serve.Ingest.database text) in
      let facts = Db.size db in
      let plane = Relational.Compiled.compile db in
      row shape facts "ingest" (fun () -> Serve.Ingest.database text);
      row shape facts "fingerprint" (fun () -> Serve.Plane_cache.Fingerprint.of_db db);
      row shape facts "compile" (fun () -> Relational.Compiled.compile db);
      row shape facts "gate" (fun () -> Analysis.Sanitize.gate plane);
      if shape = "resident-1600" then begin
        let rec fresh () =
          let f =
            List.hd (Db.facts (Workload.Randdb.random_for_query rng q3 ~n_facts:1 ~domain))
          in
          if Db.mem db f then fresh () else f
        in
        let insert = [ Relational.Delta.Insert (fresh ()) ]
        and retract = [ Relational.Delta.Retract (List.nth (Db.facts db) (facts / 2)) ] in
        row shape facts "insert" (fun () -> Relational.Compiled.apply_delta plane insert);
        row shape facts "retract" (fun () -> Relational.Compiled.apply_delta plane retract)
      end)
    [
      ("inline-150", 150, 150); ("inline-300", 300, 300); ("inline-450", 450, 450);
      ("resident-1600", 1600, 6400);
    ];
  let shape = Random.State.make [| Hashtbl.hash "graph-bound" |] in
  List.iter
    (fun n ->
      let db = Workload.Randdb.random_for_query shape Catalog.q5 ~n_facts:n ~domain:(n / 8) in
      let cache = Serve.Plane_cache.make () in
      let entry, _ = Serve.Plane_cache.find_or_compile cache db in
      let fp = entry.Serve.Plane_cache.fingerprint in
      row (Printf.sprintf "q5-%d" n) (Db.size db) "hit" (fun () ->
          Serve.Plane_cache.find cache fp))
    [ 1200; 3200 ]

(* ------------------------------------------------------------------ *)
(* E25: the Cert_k fixpoint alone, in time and allocation               *)

(* [runs] timed [Certk.run ~k] calls after one warm-up: the median in ms,
   the minor heap allocated per run in MB, and the words per run
   allocated directly on the major heap (promotions excluded), which stay
   at zero while the domain's pooled state fits [retain_words]. *)
let certk_cost ~runs ~k g =
  let run () = ignore (Sys.opaque_identity (Cqa.Certk.run ~k g)) in
  run ();
  let _, promoted0, major0 = Gc.counters () in
  let words0 = Gc.minor_words () in
  let times = List.init runs (fun _ -> snd (timed run)) |> List.sort Float.compare in
  let words = (Gc.minor_words () -. words0) /. float_of_int runs in
  let _, promoted1, major1 = Gc.counters () in
  ( 1000. *. List.nth times (runs / 2),
    words *. float_of_int (Sys.word_size / 8) /. 1e6,
    (major1 -. promoted1 -. (major0 -. promoted0)) /. float_of_int runs )

(* Cert_2 on q3: bench/e2e's fixpoint-bound components (drawn as there,
   before the seed renames their values), ingest-update's inline reads
   and the explain repro; then Cert_3, the run graph-bound serves, on
   that workload's seven q5/q6 databases (E33's shapes). *)
let e25_certk () =
  section "E25 Cert_k fixpoint: median time, minor and major allocation per run";
  let shape = Random.State.make [| Hashtbl.hash "fixpoint-bound" |] in
  let fixpoint =
    List.map
      (fun c ->
        ( Printf.sprintf "components-%d" c,
          Catalog.q3,
          Workload.Randdb.q3_components shape ~components:c ))
      [ 2; 4; 6; 8; 10; 12; 16 ]
  in
  let inline =
    List.map
      (fun n ->
        ( Printf.sprintf "inline-%d" n,
          Catalog.q3,
          Workload.Randdb.random_for_query
            (Random.State.make [| 42; n |])
            Catalog.q3 ~n_facts:n ~domain:n ))
      [ 150; 250; 350; 450 ]
  in
  Format.printf "%-16s %2s %6s %7s %6s %11s %13s %12s@." "graph" "k" "facts" "steps" "runs"
    "median(ms)" "minor MB/run" "major w/run";
  let row ~runs ~k (name, q, db) =
    let g = Solution_graph.of_query q db in
    let budget = Harness.Budget.unlimited () in
    ignore (Cqa.Certk.run ~budget ~k g);
    let median_ms, minor_mb, major_words = certk_cost ~runs ~k g in
    Format.printf "%-16s %2d %6d %7d %6d %11.4f %13.3f %12.0f@." name k
      (Solution_graph.n_facts g) (Harness.Budget.steps budget) runs median_ms minor_mb
      major_words
  in
  List.iter (row ~runs:30 ~k:2) (fixpoint @ inline);
  (* The explain repro: a 378-fact q3 database whose Cert_2 derivation
     shares premises heavily. *)
  row ~runs:3 ~k:2
    ( "repro-600/25",
      Catalog.q3,
      Workload.Randdb.random_for_query (Random.State.make [| 42 |]) Catalog.q3 ~n_facts:600
        ~domain:25 );
  let shape = Random.State.make [| Hashtbl.hash "graph-bound" |] in
  List.iter
    (fun (name, q, n) ->
      row ~runs:30 ~k:3
        (name, q, Workload.Randdb.random_for_query shape q ~n_facts:n ~domain:(n / 8)))
    [
      ("q5-1200", Catalog.q5, 1200); ("q5-1600", Catalog.q5, 1600);
      ("q5-2400", Catalog.q5, 2400); ("q5-3200", Catalog.q5, 3200);
      ("q6-600", Catalog.q6, 600); ("q6-1200", Catalog.q6, 1200);
      ("q6-1600", Catalog.q6, 1600);
    ]

(* ------------------------------------------------------------------ *)
(* E26: the coNP tier on Theorem-12 gadgets                             *)

(* One run of [f] under a wall-clock cap: its time in ms, or None past it. *)
let capped_ms ~cap f =
  Option.map
    (fun t -> 1000. *. t)
    (with_timeout cap (fun () -> snd (timed (fun () -> Sys.opaque_identity (f ())))))

(* The median of [runs] timed runs of [f] after one warm-up, in ms. *)
let median_ms ~runs f =
  ignore (Sys.opaque_identity (f ()));
  let times =
    List.init runs (fun _ -> snd (timed (fun () -> Sys.opaque_identity (f ()))))
    |> List.sort Float.compare
  in
  Some (1000. *. List.nth times (runs / 2))

let pp_ms ppf = function
  | None -> Format.fprintf ppf "%10s" "> cap"
  | Some ms -> Format.fprintf ppf "%10.2f" ms

(* The SAT tier (Satreduce.certain), DPLL on the same encoding, and Exact,
   on the seven chain gadgets of bench/e2e's conp-gadget workload (before
   its value renaming) and on the @stress suite's normalized random
   gadgets (same seed, same draws). The chain rows are medians of 21 runs;
   the random rows are one run each, capped at 5 s. [build] is
   Gadget.database. *)
let e26_conp () =
  section "E26 coNP tier: SAT tier, DPLL on its encoding, and Exact (q2 gadgets)";
  let gadget =
    match Core.Gadget.of_tripath Catalog.q2_nice_fork_tripath with
    | Ok g -> g
    | Error msg -> failwith msg
  in
  let chains =
    List.mapi
      (fun i n ->
        let sat = i mod 2 = 0 in
        (Printf.sprintf "chain-%d-%s" n (if sat then "sat" else "unsat"), Satsolver.Threesat.chain ~sat n))
      [ 4; 5; 6; 8; 10; 12; 14 ]
  in
  let rng = Random.State.make [| 0x3_5A7 |] in
  let rec draw ~n_vars ~n_clauses =
    match Satsolver.Threesat.normalize (Satsolver.Threesat.random rng ~n_vars ~n_clauses) with
    | Satsolver.Threesat.Decided _ -> draw ~n_vars ~n_clauses
    | Satsolver.Threesat.Formula phi -> phi
  in
  let randoms =
    List.concat_map
      (fun n_vars ->
        List.concat_map
          (fun ratio ->
            let n_clauses = int_of_float (ratio *. float_of_int n_vars) in
            List.init 2 (fun _ ->
                (Printf.sprintf "random-%d/%d" n_vars n_clauses, draw ~n_vars ~n_clauses)))
          [ 4.26; 5.5 ])
      [ 20; 30; 40 ]
  in
  Format.printf "%-16s %6s %6s %6s %7s %7s %9s %10s %10s %10s@." "gadget" "facts" "blocks"
    "edges" "certain" "ticks" "build(s)" "sat(ms)" "dpll(ms)" "exact(ms)";
  let row ~cell (name, phi) =
    let db, build_s = timed (fun () -> Core.Gadget.database gadget phi) in
    let g = Solution_graph.of_query Catalog.q2 db in
    let edges = Array.fold_left (fun acc ns -> acc + List.length ns) 0 g.Solution_graph.adj / 2 in
    let budget = Harness.Budget.unlimited () in
    let certain = Cqa.Satreduce.certain ~budget g in
    let sat = cell (fun () -> Cqa.Satreduce.certain g) in
    let dpll = cell (fun () -> Satsolver.Dpll.is_sat (Cqa.Satreduce.encode g)) in
    let exact = cell (fun () -> Cqa.Exact.certain g) in
    Format.printf "%-16s %6d %6d %6d %7b %7d %9.2f %a %a %a@." name (Solution_graph.n_facts g)
      (Solution_graph.n_blocks g) edges certain (Harness.Budget.steps budget) build_s pp_ms sat
      pp_ms dpll pp_ms exact
  in
  List.iter (row ~cell:(median_ms ~runs:21)) chains;
  List.iter (row ~cell:(capped_ms ~cap:5.)) randoms

(* ------------------------------------------------------------------ *)
(* E33: the graph layer and the Matching tier on graph-bound's shapes   *)

(* [median_ms] of [f], then the minor words of one more call (counted
   apart from the timing, whose own allocation would blur it) and what
   [ticks] reads after it. *)
let call_cost ~runs f ticks =
  let ms = Option.get (median_ms ~runs f) in
  let words0 = Gc.minor_words () in
  let result = Sys.opaque_identity (f ()) in
  (ms, Gc.minor_words () -. words0, ticks result)

(* The seven databases of bench/e2e's graph-bound workload as drawn,
   before the seed renames their values. Per shape: [of_query_compiled]
   on the compiled plane, ticking a fresh budget at [compile] as the
   degradation chain does, and on q6 [Matching_alg.run] on that graph. *)
let e33_graph () =
  section "E33 Graph build and Matching: median time, minor words and ticks (graph-bound)";
  let shape = Random.State.make [| Hashtbl.hash "graph-bound" |] in
  let runs = 101 in
  Format.printf "%-8s %6s %6s %10s %10s %7s %10s %10s %7s@." "shape" "facts" "pairs"
    "graph(ms)" "words" "ticks" "match(ms)" "words" "ticks";
  List.iter
    (fun (name, q, n) ->
      let db = Workload.Randdb.random_for_query shape q ~n_facts:n ~domain:(n / 8) in
      let plane = Relational.Compiled.compile db in
      let build () =
        let budget = Harness.Budget.unlimited () in
        let tick () = Harness.Budget.tick ~site:Harness.Sites.compile budget in
        (Solution_graph.of_query_compiled ~tick q plane, budget)
      in
      let steps (_, budget) = Harness.Budget.steps budget in
      let graph_ms, graph_words, graph_ticks = call_cost ~runs build steps in
      let g = fst (build ()) in
      Format.printf "%-8s %6d %6d %10.3f %10.0f %7d" name (Solution_graph.n_facts g)
        (List.length g.Solution_graph.directed) graph_ms graph_words graph_ticks;
      if q == Catalog.q6 then begin
        let matching () =
          let budget = Harness.Budget.unlimited () in
          ignore (Sys.opaque_identity (Cqa.Matching_alg.run ~budget g));
          budget
        in
        let ms, words, ticks = call_cost ~runs matching Harness.Budget.steps in
        Format.printf " %10.3f %10.0f %7d@." ms words ticks
      end
      else Format.printf " %10s %10s %7s@." "-" "-" "-")
    [
      ("q5-1200", Catalog.q5, 1200); ("q5-1600", Catalog.q5, 1600);
      ("q5-2400", Catalog.q5, 2400); ("q5-3200", Catalog.q5, 3200);
      ("q6-600", Catalog.q6, 600); ("q6-1200", Catalog.q6, 1200);
      ("q6-1600", Catalog.q6, 1600);
    ]

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)

let experiments =
  [
    ("classification", e1_classification);
    ("fig1", e2_fig1);
    ("fig2", e3_fig2);
    ("prop2", e4_prop2);
    ("thm4", e5_thm4);
    ("thm9", e6_thm9);
    ("thm14", e7_thm14);
    ("thm17", e8_thm17);
    ("thm18", e9_thm18);
    ("sat", e10_sat);
    ("scaling", e11_scaling);
    ("atlas", e12_atlas);
    ("ablation", e13_ablation);
    ("compile", e24_compile);
    ("certk", e25_certk);
    ("conp", e26_conp);
    ("graph", e33_graph);
  ]

let usage () =
  print_endline "usage: main.exe [--list | --bechamel | --table NAME | --figure NAME]";
  print_endline "experiments:";
  List.iter (fun (name, _) -> Printf.printf "  %s\n" name) experiments;
  print_endline
    "\nevery experiment runs under a wall-clock budget (CQA_BENCH_BUDGET seconds,\n\
     default 300) so one pathological instance cannot stall the whole suite."

(* Per-experiment wall-clock budget: a pathological case inside an
   experiment is already capped cell-by-cell ([timed_cell]), and this outer
   guard bounds the experiment as a whole. *)
let experiment_budget =
  match Option.bind (Sys.getenv_opt "CQA_BENCH_BUDGET") float_of_string_opt with
  | Some s when s > 0.0 -> s
  | Some _ | None -> 300.0

let run_guarded (name, f) =
  match with_timeout experiment_budget f with
  | Some () -> ()
  | None ->
      Format.printf "@.!! experiment %s exceeded its %.0fs budget — skipped the rest of it@."
        name experiment_budget

let run_one name =
  match List.assoc_opt name experiments with
  | Some f -> run_guarded (name, f)
  | None ->
      Printf.eprintf "unknown experiment %s\n" name;
      usage ();
      exit 2

let () =
  match Array.to_list Sys.argv with
  | [] | _ :: [] ->
      List.iter run_guarded experiments;
      run_guarded ("bechamel", bechamel_suite)
  | _ :: "--list" :: _ -> usage ()
  | _ :: "--bechamel" :: _ -> run_guarded ("bechamel", bechamel_suite)
  | _ :: ("--table" | "--figure") :: name :: _ -> run_one name
  | _ :: ("--table" | "--figure") :: [] ->
      usage ();
      exit 2
  | _ :: name :: _ -> run_one name
