(* Command-line front-end for the dichotomy classifier and the certain-answer
   solvers.

   cqa classify "R(x u | x y) R(u y | x z)"
   cqa certain  "R(x | y) R(y | z)" db.facts
   cqa tripath  "R(x | y z) R(z | x y)" --kind triangle
   cqa catalog
   cqa gadget   "R(x u | x y) R(u y | x z)" --vars 4 --clauses 6
   cqa repl *)

open Cmdliner

(* Exit-code contract (see README "Solver harness & exit codes"):
   0 certain, 1 not certain, 2 usage/input error, 3 degraded (estimate-only
   or budget exhausted), 124 timeout. [cqa certain] reads its status off
   the daemon's response code ([Serve.Protocol.code_of_outcome]). *)
let exit_error = 2

(* Command bodies run under this guard so malformed input ([-k 0], an
   unreadable database file, ...) prints a one-line error and exits with the
   usage/input code instead of dumping an uncaught-exception backtrace. The
   REPL runs each of its commands under it too. The solver chain turns its
   own budget's exhaustion into an outcome, so a budget that escapes a body
   is a tripath search's (a classification's, or [cqa tripath]'s and
   [cqa gadget]'s own): no command gives it a deadline, and every command
   searches at the default node cap. *)
let guard f =
  try f () with
  | Invalid_argument msg | Sys_error msg | Failure msg ->
      Format.eprintf "error: %s@." msg;
      exit_error
  | Harness.Budget.Budget_exceeded reason ->
      Format.eprintf "error: the tripath search ran out of its %a (%d nodes); no verdict@."
        Harness.Budget.pp_exhaustion reason
        Core.Tripath_search.default_options.Core.Tripath_search.max_candidates;
      Serve.Protocol.exit_of_code Serve.Protocol.Budget_exhausted

(* "-" reads the database from stdin, so [cqa gadget --emit-db | cqa certain]
   pipelines work without a temporary file. *)
let read_file = function
  | "-" -> In_channel.input_all In_channel.stdin
  | path ->
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))

(* Database ingestion goes through the same structured path as the serve
   frame decoder (Serve.Ingest): parse errors, undeclared relations and
   arity mismatches all surface as one stable-coded error line and exit 2 —
   no raw [Invalid_argument] noise, no per-command formatting drift. *)
let ingest_error { Serve.Protocol.code; message } =
  Format.eprintf "error [%s]: %s@." (Serve.Protocol.code_name code) message;
  exit_error

let with_db path f =
  match Serve.Ingest.database (read_file path) with
  | Error e -> ingest_error e
  | Ok db -> f db

let parse_query s =
  match Qlang.Parse.query s with
  | Ok q -> Ok q
  | Error e -> Error ("bad query: " ^ Qlang.Parse.error_to_string e)

let query_conv =
  Arg.conv
    ((fun s -> Result.map_error (fun m -> `Msg m) (parse_query s)), Qlang.Query.pp)

let query_arg =
  Arg.(
    required
    & pos 0 (some query_conv) None
    & info [] ~docv:"QUERY" ~doc:"Two-atom self-join query, e.g. \"R(x u | x y) R(u y | x z)\".")

(* The DB of every command that solves over a database. A plain string, not
   cmdliner's [file] converter, which would refuse '-'; [with_db] reports an
   unreadable path itself. *)
let db_arg =
  Arg.(
    required
    & pos 1 (some string) None
    & info [] ~docv:"DB"
        ~doc:"Database file: one fact per line, e.g. \"R(1 | 2)\"; '-' reads stdin.")

let merges_arg =
  Arg.(
    value & opt int 2
    & info [ "merges" ] ~docv:"N" ~doc:"Centre-variable identification budget of the tripath search.")

(* A negative budget would run no search at all (-1) or crash building the
   merge sets (-2), and "no tripath" would then read as a PTIME verdict. *)
let opts_of_merges merges =
  if merges < 0 then invalid_arg "--merges must be a non-negative integer";
  { Core.Tripath_search.default_options with Core.Tripath_search.max_merges = merges }

(* [cqa certain]'s defaults, which [cqa explain], [cqa estimate] and the
   REPL share. *)
let default_k = 3
let default_trials = 1000

(* The bounds [cqa certain] refuses before any tier runs. [explain] and
   [estimate] check them in their bodies, so the REPL's commands refuse the
   same values in the same words. *)
let check_k k =
  if k < Core.Solver.min_k then
    invalid_arg (Printf.sprintf "-k must be >= %d" Core.Solver.min_k)

let check_trials trials =
  if trials < 1 then invalid_arg "--trials must be a positive integer"

(* ------------------------------------------------------------------ *)
(* classify *)

let classify_run query merges verbose certificate json =
  guard @@ fun () ->
  let opts = opts_of_merges merges in
  let expected_bounds = Core.Certificate.bounds_of_options opts in
  let report = Core.Dichotomy.classify ~opts query in
  if json then begin
    (* The JSON report always embeds the certificate, plus the independent
       checker's verdict on it; a rejected certificate is an input/solver
       error, not a classification. *)
    let check =
      Analysis.Check.check ~expected_bounds query report.Core.Dichotomy.certificate
    in
    Format.printf "%a@." Analysis.Json.pp (Analysis.Encode.report ~check report);
    match check with Ok _ -> 0 | Error _ -> exit_error
  end
  else begin
    if verbose then Format.printf "%a@." Core.Dichotomy.explain report
    else Format.printf "%a@." Core.Dichotomy.pp_report report;
    if not certificate then 0
    else begin
      Format.printf "%a@." Core.Certificate.pp report.Core.Dichotomy.certificate;
      match Analysis.Check.audit_report ~expected_bounds report with
      | Ok () ->
          Format.printf "certificate check: ok (independent checker)@.";
          0
      | Error errors ->
          List.iter (fun e -> Format.eprintf "certificate check failed: %s@." e) errors;
          exit_error
    end
  end

let classify_cmd =
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print the full decision trace and witness tripath.")
  in
  let certificate =
    Arg.(
      value & flag
      & info [ "certificate" ]
          ~doc:
            "Print the machine-checkable certificate backing the verdict and \
             re-validate it with the independent $(b,Analysis.Check) kernel \
             (exit 2 if the certificate is rejected).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the report as JSON (certificate and checker verdict \
             included) for editors and CI scripts.")
  in
  Cmd.v
    (Cmd.info "classify" ~doc:"Classify a query under the CQA dichotomy.")
    Term.(const classify_run $ query_arg $ merges_arg $ verbose $ certificate $ json)

(* ------------------------------------------------------------------ *)
(* lint and analyze *)

(* Print diagnostics (or the versioned JSON document serve emits for its
   lint/analyze ops — one encoder, no drift) and map their severity to the
   exit code. *)
let report_diagnostics ~json diagnostics =
  if json then
    Format.printf "%a@." Analysis.Json.pp (Analysis.Encode.lint_result diagnostics)
  else
    List.iter
      (fun d -> Format.printf "%a@." Analysis.Lint.pp_diagnostic d)
      diagnostics;
  Serve.Protocol.exit_of_code (Serve.Protocol.code_of_diagnostics diagnostics)

(* The body of [cqa lint] (no plane checks) and [cqa analyze]. *)
let analysis_run ~sanitize query_opt file_opt db_path merges block_threshold
    json =
  guard @@ fun () ->
  let opts = opts_of_merges merges in
  let report = report_diagnostics ~json in
  let analyze ?db src =
    Analysis.Sanitize.analyze ~opts ~block_threshold ~sanitize ?db
      (Qlang.Parse.query_spanned src)
  in
  match (query_opt, file_opt) with
  | Some _, Some _ ->
      Format.eprintf "error: pass either a query argument or --file, not both@.";
      exit_error
  | None, None ->
      Format.eprintf "error: pass a query argument or --file@.";
      exit_error
  | Some src, None -> (
      match db_path with
      | None -> report (analyze src)
      | Some path -> with_db path @@ fun db -> report (analyze ~db src))
  | None, Some _ when db_path <> None ->
      Format.eprintf "error: --db requires a single query argument, not --file@.";
      exit_error
  | None, Some path ->
      (* A catalogue: one query per line, '#' comments; diagnostics are
         re-anchored to the catalogue's own line numbers. *)
      read_file path |> String.split_on_char '\n'
      |> List.mapi (fun i line -> (i + 1, String.trim line))
      |> List.filter (fun (_, line) -> line <> "" && line.[0] <> '#')
      |> List.concat_map (fun (ln, line) ->
             analyze line
             |> List.map (fun (d : Analysis.Lint.diagnostic) ->
                    {
                      d with
                      Analysis.Lint.position =
                        Option.map
                          (fun (p : Qlang.Parse.position) ->
                            { p with Qlang.Parse.line = ln })
                          d.Analysis.Lint.position;
                    }))
      |> report

let analysis_cmd ~sanitize ~name ~doc ~description ~db_doc =
  let query_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"QUERY"
          ~doc:(Printf.sprintf "Query to %s (source text, not pre-parsed)." name))
  in
  let file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "file" ] ~docv:"FILE"
          ~doc:
            (Printf.sprintf
               "%s a catalogue file: one query per line, '#' comments; '-' \
                reads stdin."
               (String.capitalize_ascii name)))
  in
  let db_arg =
    Arg.(value & opt (some string) None & info [ "db" ] ~docv:"FILE" ~doc:db_doc)
  in
  let block_threshold_arg =
    Arg.(
      value & opt int 32
      & info [ "block-threshold" ] ~docv:"N"
          ~doc:"Block size above which QL008 fires (with $(b,--db)).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit diagnostics as the schema-versioned JSON document (stable \
             codes and positions; the encoder of the serve daemon's lint and \
             analyze ops).")
  in
  Cmd.v
    (Cmd.info name ~doc
       ~man:
         [
           `S Manpage.s_description;
           `P description;
           `S Manpage.s_exit_status;
           `P "0 — no warnings or errors (info diagnostics allowed).";
           `P "1 — at least one warning or error.";
           `P "2 — usage or input error.";
         ])
    Term.(
      const (analysis_run ~sanitize)
      $ query_arg $ file_arg $ db_arg $ merges_arg $ block_threshold_arg $ json)

let lint_cmd =
  analysis_cmd ~sanitize:false ~name:"lint"
    ~doc:"Lint a query: stable diagnostic codes with source positions."
    ~description:
      "Checks a query (or a file of queries) for suspicious constructs and \
       surfaces classification caveats: QL000/QL003 parse and self-join-pair \
       errors, QL001 variables occurring only once, QL002 constants in key \
       positions, QL006 identical atoms, QL005 triviality, QL007 \
       coNP-completeness, and QL004 verdicts that rely on tripath \
       non-existence within bounded search. With $(b,--db) the \
       database-aware lints QL008-QL010 run as well. It is $(b,cqa analyze) \
       without the plane checks. See the manual's \"Certificates and the \
       linter\" section for the full table."
    ~db_doc:
      "Also run the database-aware lints (QL008 oversized blocks, QL009 \
       unmatched relations, QL010 already-consistent instance) against this \
       database; '-' reads stdin."

let analyze_cmd =
  analysis_cmd ~sanitize:true ~name:"analyze"
    ~doc:
      "Run the full static-analysis pass: source lints, plane sanitizer, and \
       pattern-program verifier."
    ~description:
      "Lints the query source (QL codes), compiles the database (or the \
       empty instance of the query's schema) into an execution plane, \
       re-derives every plane layout invariant from first principles \
       (PL100-PL107), verifies the compiled pattern programs with the \
       abstract interpreter (PL110-PL113), and checks the solution graph \
       against the independent substitution-based enumeration (PL108). With \
       $(b,--db) the database-aware lints QL008-QL010 run as well. See the \
       manual's \"Static analysis and sanitizers\" section for the full code \
       tables."
    ~db_doc:
      "Compile this database and sanitize the resulting execution plane \
       (instead of the empty instance), then run the database-aware lints \
       QL008-QL010 as well; '-' reads stdin."

(* ------------------------------------------------------------------ *)
(* certain *)

let pp_estimate ppf (e : Cqa.Montecarlo.estimate) =
  Format.fprintf ppf "%d/%d sampled repairs satisfied the query (frequency %.3f)%s"
    e.Cqa.Montecarlo.satisfying e.Cqa.Montecarlo.trials e.Cqa.Montecarlo.frequency
    (if e.Cqa.Montecarlo.counterexample <> None then
       "; a sampled falsifying repair disproves certainty"
     else "")

(* The --explain summary: the degradation chain as humans read it. Wall
   times are real (mask them when diffing); everything else — tier order,
   statuses, step counts, site breakdowns — is deterministic. *)
let print_explain budget (attempts : Core.Solver.attempt list) =
  Format.printf "degradation chain:@.";
  if attempts = [] then Format.printf "  (no solver tier available)@.";
  List.iteri
    (fun i (a : Core.Solver.attempt) ->
      Format.printf "  %d. %a [%.2f ms; %d step%s%a]@." (i + 1)
        Core.Solver.pp_attempt a
        (a.Core.Solver.wall_s *. 1000.)
        a.Core.Solver.steps
        (if a.Core.Solver.steps = 1 then "" else "s")
        (fun ppf -> function
          | [] -> ()
          | sites ->
              Format.fprintf ppf ": %a" Harness.Budget.pp_site_breakdown sites)
        a.Core.Solver.sites)
    attempts;
  Format.printf "budget: %d step%s%a@."
    (Harness.Budget.steps budget)
    (if Harness.Budget.steps budget = 1 then "" else "s")
    (fun ppf -> function
      | [] -> ()
      | sites -> Format.fprintf ppf " (%a)" Harness.Budget.pp_site_breakdown sites)
    (Harness.Budget.steps_by_site budget)

(* A note on stderr for every tier that did not decide. *)
let note_fallbacks attempts =
  List.iter
    (fun (a : Core.Solver.attempt) ->
      match a.Core.Solver.status with
      | Core.Solver.Attempt_decided _ -> ()
      | _ -> Format.eprintf "note: %a@." Core.Solver.pp_attempt a)
    attempts

(* The verdict line of [cqa certain] and the REPL's [certain]. *)
let print_outcome budget outcome =
  match outcome with
  | Harness.Outcome.Decided (answer, algorithm) ->
      Format.printf "CERTAIN: %b (via %a)@." answer Core.Solver.pp_algorithm
        algorithm
  | Harness.Outcome.Estimated e ->
      Format.printf "DEGRADED (Monte Carlo estimate, not a decision): %a@."
        pp_estimate e
  | Harness.Outcome.Timeout ->
      Format.eprintf "timeout: no solver tier finished before the deadline@."
  | Harness.Outcome.Budget_exhausted ->
      Format.eprintf
        "budget exhausted after %d steps%a: no solver tier finished (re-run \
         with a larger --max-steps or with --estimate)@."
        (Harness.Budget.steps budget)
        (fun ppf -> function
          | None -> ()
          | Some (site, n) -> Format.fprintf ppf " (hottest site %s=%d)" site n)
        (Harness.Budget.hottest_site budget)
  | Harness.Outcome.Solver_error msg -> Format.eprintf "error: %s@." msg

let certain_run query db_path k exact_only timeout max_steps estimate_flag
    trials seed verify verify_certificate no_sanitize chaos_corrupt trace_out
    journal_out metrics_out explain =
  let t0 = Harness.Clock.now () in
  guard @@ fun () ->
  if chaos_corrupt then
    Relational.Compiled.set_test_corruption
      (Some Relational.Compiled.Unsafe.corrupt_first_cell_out_of_domain);
  check_k k;
  check_trials trials;
  with_db db_path @@ fun db ->
      let metrics = Option.map (fun _ -> Obs.Metrics.create ()) metrics_out in
      let trace = Option.map (fun _ -> Obs.Trace.create ()) trace_out in
      let budget = Harness.Budget.make ?timeout ?max_steps () in
      let estimate_trials = if estimate_flag then Some trials else None in
      let check_certificate =
        if verify_certificate then Some (fun r -> Analysis.Check.audit_report r)
        else None
      in
      (* The plane gate: every compiled plane passes the sanitizer's cheap
         int-scan before any tier consumes it; a rejection fails every
         plane-consuming tier and the run ends as a solver error (exit 2). *)
      let check_plane =
        if no_sanitize then None else Some Analysis.Sanitize.gate
      in
      let report = Core.Dichotomy.classify query in
      let outcome, attempts =
        Core.Solver.solve ~k ~exact_only ?check_certificate ?check_plane
          ~budget ~verify ?estimate_trials ~seed ?trace report db
      in
      let ms = (Harness.Clock.now () -. t0) *. 1000. in
      let code = Serve.Protocol.code_of_outcome outcome in
      note_fallbacks attempts;
      if explain then print_explain budget attempts;
      (match (trace, trace_out) with
      | Some tr, Some path ->
          Analysis.Obs_codec.write path Analysis.Obs_codec.trace_to_string
            {
              Analysis.Obs_codec.query = Some (Qlang.Query.to_string query);
              dropped = Obs.Trace.dropped tr;
              spans = Obs.Trace.spans tr;
            };
          if path <> "-" then Format.eprintf "wrote trace to %s@." path
      | _ -> ());
      (match (metrics, metrics_out) with
      | Some m, Some path ->
          Obs.Metrics.record_ticks m budget;
          Core.Solver.record_metrics m outcome attempts;
          Analysis.Obs_codec.write path Analysis.Obs_codec.metrics_to_string
            (Obs.Metrics.snapshot m);
          if path <> "-" then Format.eprintf "wrote metrics to %s@." path
      | _ -> ());
      (match journal_out with
      | Some path ->
          let journal =
            Obs.Journal.create ~render:Analysis.Obs_codec.event_to_string path
          in
          Fun.protect
            ~finally:(fun () -> Obs.Journal.close journal)
            (fun () ->
              Core.Solver.record_journal journal ~budget outcome attempts;
              Core.Solver.record_completion journal ~op:"certain"
                ~code:(Serve.Protocol.code_name code) ~ms [] (Some budget));
          Format.eprintf "wrote journal to %s@." path
      | None -> ());
      print_outcome budget outcome;
      Serve.Protocol.exit_of_code code

let certain_cmd =
  let k_arg =
    Arg.(
      value & opt int default_k
      & info [ "k" ] ~docv:"K" ~doc:"Fixpoint parameter of Cert_k (at least 2).")
  in
  let exact_arg =
    Arg.(
      value & flag
      & info [ "exact" ]
          ~doc:
            "Skip the PTIME tier even when the dichotomy designates one; \
             decide with the SAT tier under the given budget.")
  in
  let timeout_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Wall-clock budget for the solver chain (exit 124 when exceeded).")
  in
  let max_steps_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-steps" ] ~docv:"N"
          ~doc:"Step budget for the solver chain (exit 3 when exhausted).")
  in
  let estimate_arg =
    Arg.(
      value & flag
      & info [ "estimate" ]
          ~doc:
            "When no solver tier finishes within budget, fall back to a \
             Monte Carlo estimate, reported as an explicitly degraded answer \
             (exit 3).")
  in
  let trials_arg =
    Arg.(
      value & opt int default_trials
      & info [ "trials" ] ~docv:"N" ~doc:"Sampled repairs for the $(b,--estimate) fallback.")
  in
  let seed_arg =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc:"Seed of the estimate fallback.")
  in
  let verify_arg =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:
            "Run every solver tier (not just the first to finish) and check \
             that all decisions agree; a disagreement is reported as a solver \
             error (exit 2). A coNP-complete verdict has one decision tier, \
             the SAT tier, so there it cross-checks nothing.")
  in
  let verify_certificate_arg =
    Arg.(
      value & flag
      & info [ "verify-certificate" ]
          ~doc:
            "Before trusting the PTIME tier, re-validate the classification \
             certificate with the independent $(b,Analysis.Check) kernel; a \
             rejected certificate fails the PTIME tier (a note on stderr) and \
             the chain degrades to the SAT tier.")
  in
  let no_sanitize_arg =
    Arg.(
      value & flag
      & info [ "no-sanitize" ]
          ~doc:
            "Skip the plane gate: do not run $(b,Analysis.Sanitize.gate) on \
             the compiled execution plane before the solver tiers consume \
             it. The gate is a pure integer scan (well under 5% of compile \
             time); a rejected plane fails every tier and exits 2.")
  in
  let chaos_corrupt_arg =
    Arg.(
      value & flag
      & info [ "chaos-corrupt" ]
          ~doc:
            "Testing hook: corrupt every compiled plane (first tuple cell \
             set out of the interner's domain) to exercise the sanitizer \
             end-to-end. With the gate on, the run must exit 2 with a \
             [compiled plane rejected] error.")
  in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record the solver run as structured spans (which tier ran, why \
             it fell back, how long, where its budget steps went) and write \
             the schema-versioned JSON trace to $(docv); '-' writes to stdout.")
  in
  let journal_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Append schema-versioned JSONL events for the run to $(docv) \
             (created if missing): one $(b,tier.fallback) event per solver \
             tier that did not decide, a $(b,budget.exhausted) event naming \
             the hottest tick site when the budget ran out, and a final \
             $(b,request.completed) event. The same event schema the serve \
             daemon journals; aggregate with $(b,cqa obs report).")
  in
  let metrics_arg =
    Arg.(
      value
      & opt ~vopt:(Some "-") (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Collect the metrics registry for the run — per-site budget tick \
             counters plus per-tier latency and step histograms — and write \
             the JSON snapshot to $(docv) (default: stdout). Use the glued \
             form $(b,--metrics=FILE) to name a file.")
  in
  let explain_arg =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:
            "Print a human-readable summary of the degradation chain before \
             the verdict: one numbered line per attempted tier with its \
             status, wall time, step count, and per-site breakdown, plus the \
             budget total.")
  in
  Cmd.v
    (Cmd.info "certain"
       ~doc:"Decide whether the query is certain for a database (exit status 1 when not)."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Classifies the query first, then runs the degradation chain the \
              dichotomy designates: the selected PTIME algorithm (per-block \
              test, Cert_2 / Cert_k, or the matching combination) when the \
              query is tractable, then the SAT reduction (a CDCL search for a \
              falsifying repair, checked before it is trusted), and finally — \
              with $(b,--estimate) — a Monte Carlo estimate labelled as \
              degraded. A failed SAT tier ends the chain: in the estimate \
              with $(b,--estimate), otherwise in an error (exit 2).";
           `S Manpage.s_exit_status;
           `P "0 — the query is certain.";
           `P "1 — the query is not certain.";
           `P
             "2 — usage or input error ($(b,-k) below 2, $(b,--trials) below \
              1), solver tiers disagreed, or every tier failed.";
           `P "3 — degraded: estimate-only answer, or step budget exhausted.";
           `P "124 — the wall-clock deadline passed with no answer.";
         ])
    Term.(
      const certain_run $ query_arg $ db_arg $ k_arg $ exact_arg $ timeout_arg
      $ max_steps_arg $ estimate_arg $ trials_arg $ seed_arg
      $ verify_arg $ verify_certificate_arg $ no_sanitize_arg
      $ chaos_corrupt_arg $ trace_arg $ journal_arg $ metrics_arg $ explain_arg)

(* ------------------------------------------------------------------ *)
(* tripath *)

let tripath_run query merges kind =
  guard @@ fun () ->
  let opts = opts_of_merges merges in
  let result =
    match kind with
    | Some "fork" -> Core.Tripath_search.find_fork ~opts query
    | Some "triangle" -> Core.Tripath_search.find_triangle ~opts query
    | Some other ->
        Format.eprintf "error: unknown kind %s (use fork or triangle)@." other;
        exit 2
    | None -> Core.Tripath_search.find_any ~opts query
  in
  match result with
  | Core.Tripath_search.Found (tp, k) ->
      Format.printf "found a %a-tripath with %d blocks:@.%a@." Core.Tripath.pp_kind k
        (Core.Tripath.n_blocks tp) Core.Tripath.pp tp;
      0
  | Core.Tripath_search.Not_found ->
      Format.printf "no tripath within the search bounds@.";
      1

let tripath_cmd =
  let kind_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "kind" ] ~docv:"KIND" ~doc:"Restrict to 'fork' or 'triangle' tripaths.")
  in
  Cmd.v
    (Cmd.info "tripath" ~doc:"Search for a tripath witness of a query.")
    Term.(const tripath_run $ query_arg $ merges_arg $ kind_arg)

(* ------------------------------------------------------------------ *)
(* catalog *)

let catalog_run merges =
  guard @@ fun () ->
  let opts = opts_of_merges merges in
  Format.printf "%-18s %-40s %s@." "name" "query" "verdict";
  List.iter
    (fun (e : Workload.Catalog.entry) ->
      let r = Core.Dichotomy.classify ~opts e.Workload.Catalog.query in
      Format.printf "%-18s %-40s %s@." e.Workload.Catalog.name
        (Qlang.Query.to_string e.Workload.Catalog.query)
        (Core.Dichotomy.verdict_summary r.Core.Dichotomy.verdict))
    Workload.Catalog.all;
  0

let catalog_cmd =
  Cmd.v
    (Cmd.info "catalog" ~doc:"Classify the built-in query catalogue (the paper's q1..q7 and more).")
    Term.(const catalog_run $ merges_arg)

(* ------------------------------------------------------------------ *)
(* gadget *)

let gadget_run query n_vars n_clauses seed emit_db =
  guard @@ fun () ->
  (* q2's nice fork-tripath is stored in the catalogue: building from it
     skips a search of many seconds and yields the same gadget. *)
  let gadget =
    if Qlang.Query.equal query Workload.Catalog.q2 then
      Core.Gadget.of_tripath Workload.Catalog.q2_nice_fork_tripath
    else Core.Gadget.create query
  in
  match gadget with
  | Error msg ->
      Format.eprintf "error: %s@." msg;
      exit_error
  | Ok g ->
      let rng = Random.State.make [| seed |] in
      let rec try_formula attempts =
        if attempts = 0 then begin
          Format.eprintf "error: random formulas kept simplifying away@.";
          1
        end
        else
          match
            Workload.Randdb.hard_instance rng g ~n_vars ~n_clauses
          with
          | None -> try_formula (attempts - 1)
          | Some (phi, db) ->
              if emit_db then begin
                (* A clean parseable database on stdout, for piping into
                   [cqa certain QUERY -]. No Lemma 13 check here — that is an
                   exponential solve, and --emit-db exists precisely to hand
                   instances too hard for it to a budgeted run. *)
                Format.printf "# Theorem 12 gadget, %d vars / %d clauses, seed %d@."
                  n_vars n_clauses seed;
                List.iter
                  (fun (f : Relational.Fact.t) ->
                    let schema = Relational.Database.schema_of db f in
                    let token i = Relational.Value.to_token (Relational.Fact.nth f i) in
                    let join ps = String.concat " " (List.map token ps) in
                    Format.printf "%s(%s | %s)@." f.Relational.Fact.rel
                      (join (Relational.Schema.key_positions schema))
                      (join (Relational.Schema.nonkey_positions schema)))
                  (Relational.Database.facts db);
                0
              end
              else begin
                Format.printf "formula: %a@." Satsolver.Cnf.pp phi;
                Format.printf "database: %d facts in %d blocks@."
                  (Relational.Database.size db)
                  (Relational.Database.block_count db);
                let sat =
                  match Satsolver.Cdcl.solve (Satsolver.Cdcl.of_cnf phi) with
                  | Satsolver.Cdcl.Sat _ -> true
                  | Satsolver.Cdcl.Unsat -> false
                in
                let certain =
                  Cqa.Satreduce.certain (Qlang.Solution_graph.of_query query db)
                in
                Format.printf
                  "satisfiable: %b, certain: %b (Lemma 13: certain = unsat: %b)@."
                  sat certain (certain = not sat);
                if certain = not sat then 0 else 1
              end
      in
      try_formula 20

let gadget_cmd =
  let vars_arg =
    Arg.(value & opt int 4 & info [ "vars" ] ~docv:"N" ~doc:"Number of 3-SAT variables.")
  in
  let clauses_arg =
    Arg.(value & opt int 6 & info [ "clauses" ] ~docv:"M" ~doc:"Number of 3-SAT clauses.")
  in
  let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.") in
  let emit_db_arg =
    Arg.(
      value & flag
      & info [ "emit-db" ]
          ~doc:
            "Print the gadget database itself (parseable, one fact per line) \
             instead of checking Lemma 13; pipe into $(b,cqa certain QUERY -).")
  in
  Cmd.v
    (Cmd.info "gadget"
       ~doc:"Build the Theorem 12 hardness gadget for a fork-tripath query and check Lemma 13.")
    Term.(const gadget_run $ query_arg $ vars_arg $ clauses_arg $ seed_arg $ emit_db_arg)

(* ------------------------------------------------------------------ *)
(* answers *)

(* The bodies of [answers], [explain], [dot] and [estimate] take a query
   and a database, so the REPL's commands of the same names run them. *)
let answers_body ~free query db =
  let free =
    String.split_on_char ',' free |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let results = Core.Answers.evaluate ~free query db in
  Format.printf "%-30s %s@." "tuple" "certain";
  List.iter
    (fun (a : Core.Answers.t) ->
      Format.printf "%-30s %b@."
        (String.concat ", " (List.map Relational.Value.to_string a.Core.Answers.tuple))
        a.Core.Answers.certain)
    results;
  let certain = List.filter (fun (a : Core.Answers.t) -> a.Core.Answers.certain) results in
  Format.printf "@.%d certain / %d possible answers@." (List.length certain)
    (List.length results);
  0

let answers_run query db_path free =
  guard @@ fun () -> with_db db_path (answers_body ~free query)

let answers_cmd =
  let free_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "free" ] ~docv:"VARS" ~doc:"Comma-separated free variables, e.g. \"x,z\".")
  in
  Cmd.v
    (Cmd.info "answers"
       ~doc:"Compute the certain and possible answer tuples of a non-Boolean query.")
    Term.(const answers_run $ query_arg $ db_arg $ free_arg)

(* ------------------------------------------------------------------ *)
(* explain *)

(* Checks [k] before it takes the database, so [cqa explain] refuses a bad
   -k before it reads DB. *)
let explain_body ~k query =
  check_k k;
  fun db ->
    let g = Qlang.Solution_graph.of_query query db in
    match Cqa.Certk.certificate ~k g with
    | Some cert ->
        Format.printf "Cert_%d proves the query certain; derivation of {}:@.%a@." k
          (Cqa.Certk.pp_certificate g) cert;
        0
    | None -> (
        match Cqa.Satreduce.falsifying_repair g with
        | Some picks ->
            Format.printf "not certain; a falsifying repair:@.";
            List.iter
              (fun v ->
                Format.printf "  %a@." Relational.Fact.pp
                  g.Qlang.Solution_graph.facts.(v))
              picks;
            1
        | None ->
            Format.printf
              "certain, but Cert_%d finds no derivation (raise -k, or the query \
               needs the matching algorithm)@."
              k;
            0)

let explain_run query db_path k =
  guard @@ fun () -> with_db db_path (explain_body ~k query)

let explain_cmd =
  let k_arg =
    Arg.(
      value & opt int default_k
      & info [ "k" ] ~docv:"K" ~doc:"Cert_k parameter (at least 2).")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Explain certainty: print a Cert_k derivation certificate or a falsifying repair.")
    Term.(const explain_run $ query_arg $ db_arg $ k_arg)

(* ------------------------------------------------------------------ *)
(* dot *)

let dot_body ~directed query db =
  print_string
    (Qlang.Dot.solution_graph ~directed (Qlang.Solution_graph.of_query query db));
  0

let dot_run query db_path directed =
  guard @@ fun () -> with_db db_path (dot_body ~directed query)

let dot_cmd =
  let directed_arg =
    Arg.(value & flag & info [ "directed" ] ~doc:"Draw directed solutions q(a b).")
  in
  Cmd.v
    (Cmd.info "dot"
       ~doc:"Print the solution graph G(D,q) in Graphviz DOT format (pipe into dot -Tsvg).")
    Term.(const dot_run $ query_arg $ db_arg $ directed_arg)

(* ------------------------------------------------------------------ *)
(* atlas *)

let atlas_run arity key_len verbose =
  guard @@ fun () ->
  let queries = Core.Atlas.enumerate ~arity ~key_len in
  Format.printf "signature [%d, %d]: %d canonical queries@." arity key_len
    (List.length queries);
  let entries = Core.Atlas.classify_all queries in
  Format.printf "%a@." Core.Atlas.pp_summary (Core.Atlas.summarize entries);
  if verbose then
    List.iter
      (fun (e : Core.Atlas.entry) ->
        Format.printf "%-40s %s@."
          (Qlang.Query.to_string e.Core.Atlas.query)
          (Core.Dichotomy.verdict_summary e.Core.Atlas.report.Core.Dichotomy.verdict))
      entries;
  0

let atlas_cmd =
  let arity_arg =
    Arg.(value & pos 0 int 3 & info [] ~docv:"ARITY" ~doc:"Relation arity (default 3).")
  in
  let key_arg =
    Arg.(value & pos 1 int 1 & info [] ~docv:"KEYLEN" ~doc:"Key length (default 1).")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"List every query with its verdict.")
  in
  Cmd.v
    (Cmd.info "atlas"
       ~doc:"Classify every two-atom query of a signature (the dichotomy landscape).")
    Term.(const atlas_run $ arity_arg $ key_arg $ verbose)

(* ------------------------------------------------------------------ *)
(* estimate *)

(* Checks [trials] before it takes the database, like [explain_body]. The
   RNG is the caller's: [cqa estimate] seeds one per run, the REPL keeps one
   across its [estimate] commands. *)
let estimate_body rng ~trials query =
  check_trials trials;
  fun db ->
    let e =
      Cqa.Montecarlo.estimate_g rng ~trials (Qlang.Solution_graph.of_query query db)
    in
    Format.printf "sampled %d repairs: %d satisfied the query (frequency %.3f)@."
      e.Cqa.Montecarlo.trials e.Cqa.Montecarlo.satisfying e.Cqa.Montecarlo.frequency;
    (match e.Cqa.Montecarlo.counterexample with
    | Some r ->
        Format.printf "a sampled falsifying repair (disproves certainty):@.";
        List.iter (fun f -> Format.printf "  %a@." Relational.Fact.pp f) r
    | None -> Format.printf "no falsifying repair sampled (suggests certainty)@.");
    0

let estimate_run query db_path trials seed =
  guard @@ fun () ->
  with_db db_path (estimate_body (Random.State.make [| seed |]) ~trials query)

let estimate_cmd =
  let trials_arg =
    Arg.(
      value & opt int default_trials
      & info [ "trials" ] ~docv:"N" ~doc:"Number of sampled repairs (at least 1).")
  in
  let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.") in
  Cmd.v
    (Cmd.info "estimate"
       ~doc:"Monte-Carlo estimate of the fraction of repairs satisfying the query.")
    Term.(const estimate_run $ query_arg $ db_arg $ trials_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* repl *)

let repl_help =
  String.concat "\n"
    [
      "commands:";
      "  query <two-atom query>   set and classify the query, e.g.  query R(x | y) R(y | z)";
      "  add <fact>               add a fact, e.g.  add R(1 2)";
      "  del <fact>               remove a fact";
      "  load <file>              load a database file (replaces the facts)";
      "  show                     print query, verdict and database";
      "  blocks                   print the blocks (key conflicts)";
      "  certain                  decide CERTAIN with the designated algorithm";
      "  explain                  print a Cert_k certificate or a falsifying repair";
      "  answers <x,y,...>        certain/possible answer tuples";
      "  estimate [trials]        Monte-Carlo repair sampling (default 1000)";
      "  dot                      solution graph in Graphviz format";
      "  help                     this text";
      "  quit                     leave";
    ]

(* Once a query is set: its report, classified once, and the database the
   commands read. *)
type repl_state = { report : Core.Dichotomy.report; db : Relational.Database.t }

(* One command. [certain] is [cqa certain] with its defaults on the kept
   report; [explain], [answers], [estimate] and [dot] are the subcommands'
   bodies; [add] and [del] parse facts as the daemon's update op does, and
   [load] ingests a file as every subcommand does. *)
let repl_exec state rng name arg =
  let module Database = Relational.Database in
  let with_state f =
    match !state with
    | None -> print_endline "no query set; use:  query <two-atom query>"
    | Some s -> f s
  in
  let query s = s.report.Core.Dichotomy.query in
  match name with
  | "" -> ()
  | "help" -> print_endline repl_help
  | "query" -> (
      match parse_query arg with
      | Error msg -> print_endline msg
      | Ok q ->
          let report = Core.Dichotomy.classify q in
          state := Some { report; db = Database.empty [ q.Qlang.Query.schema ] };
          Format.printf "%a@.%s@." Qlang.Query.pp q
            (Core.Dichotomy.verdict_summary report.Core.Dichotomy.verdict))
  | ("add" | "del" | "remove") as op ->
      with_state (fun s ->
          let facts =
            Result.bind (Serve.Ingest.facts arg) (fun parsed ->
                Serve.Ingest.key_markers s.db parsed
                |> Result.map (fun () -> List.map fst parsed))
          in
          match facts with
          | Error e -> ignore (ingest_error e)
          | Ok facts ->
              let insert = op = "add" in
              (* [Delta.apply] validates inserts only; [del] refuses a
                 misfit fact with the same error. *)
              List.iter (Database.check_fact s.db) facts;
              if (not insert) && not (List.for_all (Database.mem s.db) facts)
              then print_endline "no such fact"
              else begin
                let db =
                  Relational.Delta.apply s.db
                    (List.map
                       (fun f ->
                         if insert then Relational.Delta.Insert f
                         else Relational.Delta.Retract f)
                       facts)
                in
                state := Some { s with db };
                Format.printf "%s; %d facts@."
                  (if insert then "added" else "removed")
                  (Database.size db)
              end)
  | "load" ->
      with_state (fun s ->
          (* A file, never stdin ('-'): the REPL reads its commands there. *)
          match
            Serve.Ingest.database (In_channel.with_open_bin arg In_channel.input_all)
          with
          | Error e -> ignore (ingest_error e)
          | Ok db ->
              let schema = (query s).Qlang.Query.schema in
              let rel = schema.Relational.Schema.name in
              let facts = Database.facts db in
              if List.exists (fun (f : Relational.Fact.t) -> f.Relational.Fact.rel <> rel) facts
              then
                Format.printf "database contains facts of other relations than %s@." rel
              else begin
                let db = Database.of_facts [ schema ] facts in
                state := Some { s with db };
                Format.printf "loaded %d facts in %d blocks@." (Database.size db)
                  (Database.block_count db)
              end)
  | "show" ->
      with_state (fun s ->
          Format.printf "%a@.%s@.%d facts, %d blocks, consistent: %b@.%a@."
            Qlang.Query.pp (query s)
            (Core.Dichotomy.verdict_summary s.report.Core.Dichotomy.verdict)
            (Database.size s.db) (Database.block_count s.db)
            (Database.is_consistent s.db) Database.pp s.db)
  | "blocks" ->
      with_state (fun s ->
          if Database.is_empty s.db then print_endline "empty database"
          else
            Database.fold_blocks
              (fun () b ->
                Format.printf "%a%s@." Relational.Block.pp b
                  (if Relational.Block.size b > 1 then "   <-- conflict" else ""))
              () s.db)
  | "certain" ->
      with_state (fun s ->
          let budget = Harness.Budget.make () in
          let outcome, attempts =
            Core.Solver.solve ~k:default_k ~check_plane:Analysis.Sanitize.gate
              ~budget s.report s.db
          in
          note_fallbacks attempts;
          print_outcome budget outcome)
  | "explain" ->
      with_state (fun s -> ignore (explain_body ~k:default_k (query s) s.db))
  | "answers" -> with_state (fun s -> ignore (answers_body ~free:arg (query s) s.db))
  | "estimate" ->
      with_state (fun s ->
          (* A count that is not a number is refused like 0. *)
          let trials =
            if arg = "" then default_trials
            else Option.value ~default:0 (int_of_string_opt arg)
          in
          ignore (estimate_body rng ~trials (query s) s.db))
  | "dot" -> with_state (fun s -> ignore (dot_body ~directed:false (query s) s.db))
  | other -> Format.printf "unknown command %s (try: help)@." other

let repl_run () =
  print_endline "cqa repl — consistent query answering under primary keys";
  print_endline "type 'help' for commands, 'quit' to leave";
  let state = ref None and rng = Random.State.make [| 0x5EED |] in
  let rec loop () =
    print_string "> ";
    flush stdout;
    match In_channel.input_line stdin with
    | None -> 0
    | Some line -> (
        let line = String.trim line in
        let name, arg =
          match String.index_opt line ' ' with
          | None -> (line, "")
          | Some i ->
              ( String.sub line 0 i,
                String.trim (String.sub line (i + 1) (String.length line - i - 1)) )
        in
        match String.lowercase_ascii name with
        | "quit" | "exit" -> 0
        | name ->
            ignore (guard (fun () -> repl_exec state rng name arg; 0));
            loop ())
  in
  loop ()

let repl_cmd =
  Cmd.v
    (Cmd.info "repl"
       ~doc:"Interactive shell: set a query, edit a database, decide and explain."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Reads one command per line from stdin; $(b,help) lists them. \
              $(b,query) classifies the query once. $(b,certain) runs the \
              degradation chain with $(b,cqa certain)'s defaults, and \
              $(b,explain), $(b,answers), $(b,estimate) and $(b,dot) run the \
              subcommands of the same names on the current database. \
              $(b,add) and $(b,del) parse facts as the serve daemon's \
              $(b,update) op does; $(b,load) reads a database file as every \
              subcommand does.";
         ])
    Term.(const repl_run $ const ())

(* ------------------------------------------------------------------ *)
(* serve *)

let serve_run pipe socket fast_timeout heavy_timeout fast_max_steps
    heavy_max_steps trials retries backoff max_facts planes capacity refill
    chaos_fail chaos_delay chaos_pressure chaos_seed chaos_sites chaos_corrupt
    no_sanitize seed k trace_capacity journal_out =
  guard @@ fun () ->
  if chaos_corrupt then
    Relational.Compiled.set_test_corruption
      (Some Relational.Compiled.Unsafe.corrupt_first_cell_out_of_domain);
  let chaos =
    if chaos_fail > 0.0 || chaos_delay > 0.0 || chaos_pressure > 0.0 then
      Some
        {
          Serve.Daemon.fail_p = chaos_fail;
          delay_p = chaos_delay;
          delay_s = 0.0005;
          pressure_p = chaos_pressure;
          chaos_seed;
          sites = chaos_sites;
        }
    else None
  in
  let config =
    {
      Serve.Daemon.default_config with
      Serve.Daemon.fast_timeout;
      heavy_timeout;
      fast_max_steps;
      heavy_max_steps;
      estimate_trials = trials;
      retries;
      backoff_s = backoff;
      max_facts;
      plane_capacity = planes;
      admission =
        {
          Serve.Admission.default_config with
          Serve.Admission.capacity;
          refill_per_s = refill;
        };
      chaos;
      seed;
      k;
      sanitize = not no_sanitize;
      trace_capacity;
    }
  in
  let journal =
    Option.map
      (Obs.Journal.create ~render:Analysis.Obs_codec.event_to_string)
      journal_out
  in
  let finally () = Option.iter Obs.Journal.close journal in
  Fun.protect ~finally @@ fun () ->
  let daemon = Serve.Daemon.create ?journal config in
  match (pipe, socket) with
  | true, Some _ ->
      Format.eprintf "error: pass either --pipe or --socket, not both@.";
      exit_error
  | false, None ->
      Format.eprintf "error: pass --pipe or --socket PATH@.";
      exit_error
  | true, None ->
      Serve.Daemon.run_pipe daemon stdin stdout;
      0
  | false, Some path ->
      Serve.Daemon.run_socket daemon ~path;
      0

let serve_cmd =
  let pipe_arg =
    Arg.(
      value & flag
      & info [ "pipe" ]
          ~doc:"Serve newline-framed JSON requests on stdin/stdout.")
  in
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Serve on a Unix-domain socket at $(docv) (connections are \
             accepted sequentially; the socket file is removed on exit).")
  in
  let dc = Serve.Daemon.default_config in
  let fast_timeout_arg =
    Arg.(
      value
      & opt (some float) dc.Serve.Daemon.fast_timeout
      & info [ "fast-timeout" ] ~docv:"SECONDS"
          ~doc:"Per-request deadline for PTIME-tier requests.")
  in
  let heavy_timeout_arg =
    Arg.(
      value
      & opt (some float) dc.Serve.Daemon.heavy_timeout
      & info [ "heavy-timeout" ] ~docv:"SECONDS"
          ~doc:"Per-request deadline for coNP-tier requests.")
  in
  let fast_steps_arg =
    Arg.(
      value
      & opt (some int) dc.Serve.Daemon.fast_max_steps
      & info [ "fast-max-steps" ] ~docv:"N"
          ~doc:"Per-request step budget for PTIME-tier requests.")
  in
  let heavy_steps_arg =
    Arg.(
      value
      & opt (some int) dc.Serve.Daemon.heavy_max_steps
      & info [ "heavy-max-steps" ] ~docv:"N"
          ~doc:"Per-request step budget for coNP-tier requests.")
  in
  let trials_arg =
    Arg.(
      value & opt int dc.Serve.Daemon.estimate_trials
      & info [ "trials" ] ~docv:"N"
          ~doc:
            "Sampled repairs for downgraded requests and the estimate \
             fallback (per-request override: the 'trials' field).")
  in
  let retries_arg =
    Arg.(
      value & opt int dc.Serve.Daemon.retries
      & info [ "retries" ] ~docv:"N"
          ~doc:"Re-runs allowed when a request hits a transient fault.")
  in
  let backoff_arg =
    Arg.(
      value & opt float dc.Serve.Daemon.backoff_s
      & info [ "backoff" ] ~docv:"SECONDS"
          ~doc:"Initial backoff between retries (doubles per retry).")
  in
  let max_facts_arg =
    Arg.(
      value & opt int dc.Serve.Daemon.max_facts
      & info [ "max-facts" ] ~docv:"N"
          ~doc:"Refuse databases larger than $(docv) facts (db-too-large).")
  in
  let planes_arg =
    Arg.(
      value & opt int dc.Serve.Daemon.plane_capacity
      & info [ "planes" ] ~docv:"N"
          ~doc:"LRU capacity of the compiled-plane cache.")
  in
  let capacity_arg =
    Arg.(
      value
      & opt float dc.Serve.Daemon.admission.Serve.Admission.capacity
      & info [ "admission-capacity" ] ~docv:"UNITS"
          ~doc:"Token-bucket capacity in heavy work units (burst headroom).")
  in
  let refill_arg =
    Arg.(
      value
      & opt float dc.Serve.Daemon.admission.Serve.Admission.refill_per_s
      & info [ "admission-refill" ] ~docv:"UNITS"
          ~doc:"Heavy work units restored per second.")
  in
  let chaos_fail_arg =
    Arg.(
      value & opt float 0.0
      & info [ "chaos-fail" ] ~docv:"P"
          ~doc:"Per-tick probability of an injected transient fault.")
  in
  let chaos_delay_arg =
    Arg.(
      value & opt float 0.0
      & info [ "chaos-delay" ] ~docv:"P"
          ~doc:"Per-tick probability of an injected delay (0.5 ms).")
  in
  let chaos_pressure_arg =
    Arg.(
      value & opt float 0.0
      & info [ "chaos-pressure" ] ~docv:"P"
          ~doc:"Per-tick probability of injected budget pressure.")
  in
  let chaos_seed_arg =
    Arg.(
      value & opt int 0
      & info [ "chaos-seed" ] ~docv:"SEED"
          ~doc:"Seed of the chaos injection schedule (replayable).")
  in
  let chaos_sites_arg =
    Arg.(
      value & opt_all string []
      & info [ "chaos-site" ] ~docv:"SITE"
          ~doc:"Restrict injection to this tick site (repeatable; default all).")
  in
  let chaos_corrupt_arg =
    Arg.(
      value & flag
      & info [ "chaos-corrupt" ]
          ~doc:
            "Testing hook: corrupt every plane the daemon compiles (first \
             tuple cell set out of the interner's domain). With sanitize-on-\
             insert active every compile-needing request answers \
             [corrupt-plane] and nothing is cached.")
  in
  let no_sanitize_arg =
    Arg.(
      value & flag
      & info [ "no-sanitize" ]
          ~doc:
            "Skip sanitize-on-insert: freshly compiled planes enter the \
             cache without the $(b,Analysis.Sanitize.gate) scan.")
  in
  let seed_arg =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"SEED" ~doc:"Seed of the estimate RNG.")
  in
  let k_arg =
    Arg.(
      value & opt int dc.Serve.Daemon.k
      & info [ "k" ] ~docv:"K" ~doc:"Fixpoint parameter of Cert_k.")
  in
  let trace_capacity_arg =
    Arg.(
      value & opt int dc.Serve.Daemon.trace_capacity
      & info [ "trace-capacity" ] ~docv:"N"
          ~doc:
            "Span-ring capacity of the request trace recorder (oldest spans \
             are overwritten once full; the $(b,trace) op reports the count \
             as $(b,dropped)). 0 disables tracing: no spans are recorded and \
             responses carry no $(b,trace_id) field.")
  in
  let journal_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Append schema-versioned JSONL events to $(docv) (created if \
             missing, size-rotated to $(docv).1): admission verdicts, plane \
             compiles / patches / rejections, tier fallbacks, budget \
             exhaustions with the hottest tick site, and one completion \
             event per request. Aggregate with $(b,cqa obs report).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the fault-tolerant answering daemon (newline-framed JSON)."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Loads and compiles databases into a fingerprint-keyed plane \
              cache and answers classify / certain / lint / stats requests \
              over a newline-framed JSON protocol, either on stdin/stdout \
              ($(b,--pipe)) or a Unix-domain socket ($(b,--socket)). Every \
              request runs under its own budget (deadline and step caps \
              derived from its dichotomy tier) and its own metrics registry; \
              admission control sheds or downgrades coNP-tier requests to \
              Monte-Carlo estimates under load; transient faults are retried \
              with backoff. Malformed frames, injected faults, budget \
              exhaustion and oversized databases each produce a structured \
              error response — the loop never dies. See the manual's \
              \"Serving\" section for the protocol grammar and error codes.";
           `S Manpage.s_exit_status;
           `P "0 — clean shutdown (EOF or a shutdown request).";
           `P "2 — usage error.";
         ])
    Term.(
      const serve_run $ pipe_arg $ socket_arg $ fast_timeout_arg
      $ heavy_timeout_arg $ fast_steps_arg $ heavy_steps_arg $ trials_arg
      $ retries_arg $ backoff_arg $ max_facts_arg $ planes_arg $ capacity_arg
      $ refill_arg $ chaos_fail_arg $ chaos_delay_arg $ chaos_pressure_arg
      $ chaos_seed_arg $ chaos_sites_arg $ chaos_corrupt_arg $ no_sanitize_arg
      $ seed_arg $ k_arg $ trace_capacity_arg $ journal_arg)

(* ------------------------------------------------------------------ *)
(* obs *)

let obs_report_run journal_path trace_path json top =
  guard @@ fun () ->
  if top < 1 then invalid_arg "--top must be a positive integer";
  let report =
    match (journal_path, trace_path) with
    | None, None ->
        Format.eprintf "error: pass --journal FILE or --trace FILE@.";
        None
    | Some _, Some _ ->
        Format.eprintf "error: pass either --journal or --trace, not both@.";
        None
    | Some path, None ->
        (* Strict line-by-line decode: a single malformed or unknown-kind
           line fails the whole report with its line number — a journal
           that does not decode is a bug, not something to skip over. *)
        let events =
          read_file path |> String.split_on_char '\n'
          |> List.mapi (fun i line -> (i + 1, line))
          |> List.filter_map (fun (n, line) ->
                 if String.trim line = "" then None
                 else
                   match Analysis.Obs_codec.event_of_string line with
                   | Ok e -> Some e
                   | Error msg ->
                       invalid_arg (Printf.sprintf "%s:%d: %s" path n msg))
        in
        Some (Analysis.Obs_report.of_events ~top events)
    | None, Some path -> (
        match Analysis.Obs_codec.trace_of_string (read_file path) with
        | Ok tr -> Some (Analysis.Obs_report.of_trace ~top tr)
        | Error msg -> invalid_arg (Printf.sprintf "%s: %s" path msg))
  in
  match report with
  | None -> exit_error
  | Some r ->
      if json then
        print_endline (Analysis.Json.to_string (Analysis.Obs_report.to_json r))
      else Format.printf "%a" Analysis.Obs_report.pp r;
      0

let obs_cmd =
  let journal_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Aggregate the JSONL event journal at $(docv) (written by \
             $(b,cqa serve --journal) or $(b,cqa certain --journal)).")
  in
  let trace_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Aggregate the JSON trace document at $(docv) (written by \
             $(b,cqa certain --trace) or returned by the serve $(b,trace) \
             op).")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the aggregated report as a JSON document on stdout.")
  in
  let top_arg =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"N"
          ~doc:"Size of the slowest-requests table.")
  in
  let report_cmd =
    Cmd.v
      (Cmd.info "report"
         ~doc:
           "Aggregate an event journal or a trace document into per-tier \
            latency quantiles, per-site step profiles, admission and cache \
            rates, and a slowest-requests table."
         ~man:
           [
             `S Manpage.s_description;
             `P
               "Reads either a $(b,--journal) JSONL file (strictly: every \
                line must decode as a schema-versioned event, and a bad line \
                fails the report with its line number) or a $(b,--trace) \
                document, and prints one aggregated report: request counts, \
                per-tier latency quantiles estimated from histogram buckets \
                (the same estimator the serve $(b,stats) op uses online), \
                per-site budget step profiles, admission and plane-cache \
                rates, tier fallback and budget exhaustion counts, and the \
                top-N slowest requests.";
             `S Manpage.s_exit_status;
             `P "0 — report produced.";
             `P "2 — usage error, unreadable input, or a malformed line.";
           ])
      Term.(const obs_report_run $ journal_arg $ trace_arg $ json_arg $ top_arg)
  in
  Cmd.group
    (Cmd.info "obs"
       ~doc:"Offline analysis of observability artifacts (journals, traces).")
    [ report_cmd ]

let main_cmd =
  Cmd.group
    (Cmd.info "cqa" ~version:"1.0.0"
       ~doc:"Consistent query answering for two-atom self-join queries under primary keys.")
    [
      classify_cmd;
      lint_cmd;
      analyze_cmd;
      certain_cmd;
      answers_cmd;
      explain_cmd;
      tripath_cmd;
      catalog_cmd;
      gadget_cmd;
      dot_cmd;
      atlas_cmd;
      estimate_cmd;
      serve_cmd;
      obs_cmd;
      repl_cmd;
    ]

(* Every command-line error exits with the usage code: cmdliner's own
   default for a parse error is 124, which this tool reserves for a real
   wall-clock timeout. *)
let () =
  exit
    (match Cmd.eval_value main_cmd with
    | Ok (`Ok code) -> code
    | Ok (`Version | `Help) -> Cmd.Exit.ok
    | Error (`Parse | `Term) -> exit_error
    | Error `Exn -> Cmd.Exit.internal_error)
