module Json = Analysis.Json
module Budget = Harness.Budget
module Chaos = Harness.Chaos

type chaos_spec = {
  fail_p : float;
  delay_p : float;
  delay_s : float;
  pressure_p : float;
  chaos_seed : int;
  sites : string list;
}

type config = {
  fast_timeout : float option;
  fast_max_steps : int option;
  heavy_timeout : float option;
  heavy_max_steps : int option;
  estimate_trials : int;
  retries : int;
  backoff_s : float;
  max_frame_bytes : int;
  max_facts : int;
  plane_capacity : int;
  admission : Admission.config;
  chaos : chaos_spec option;
  seed : int;
  k : int;
  sanitize : bool;
      (* gate every freshly compiled plane with Analysis.Sanitize.gate *)
  trace_capacity : int;
      (* span-ring capacity of the request trace recorder; 0 disables *)
}

let default_config =
  {
    fast_timeout = Some 1.0;
    fast_max_steps = Some 200_000;
    heavy_timeout = Some 10.0;
    heavy_max_steps = Some 5_000_000;
    estimate_trials = 200;
    retries = 2;
    backoff_s = 0.01;
    max_frame_bytes = 1 lsl 20;
    max_facts = 100_000;
    plane_capacity = 8;
    admission = Admission.default_config;
    chaos = None;
    seed = 0;
    k = 3;
    sanitize = true;
    trace_capacity = 4096;
  }

type t = {
  config : config;
  sleep : float -> unit;
  admission : Admission.t;
  planes : Plane_cache.t;
  named : (string, string * Relational.Database.t) Hashtbl.t;
      (* name -> (fingerprint, database); the plane itself lives in the
         LRU cache and is recompiled from the database after eviction. *)
  reports : (string, Core.Dichotomy.report) Hashtbl.t;
  chaos : Chaos.t option;
  metrics : Obs.Metrics.t;
  trace : Obs.Trace.t option;
  journal : Obs.Journal.t option;
  started : float;
      (* on [Harness.Clock.now], not the injectable admission clock:
         uptime and latency must not consume (and thus perturb) a virtual
         admission clock's readings *)
  (* Scratch for the request being handled (the loop is single-threaded):
     the admission tier and decision and the solved request's budget, read
     back by [finalize] for the latency histogram and the journal. *)
  mutable req_tier : string option;
  mutable req_decision : Admission.decision option;
  mutable req_budget : Budget.t option;
  mutable requests : int;
  mutable stopped : bool;
}

let create ?clock ?(sleep = Unix.sleepf) ?journal config =
  if config.estimate_trials < 1 then
    invalid_arg "Daemon.create: estimate_trials must be >= 1";
  if config.trace_capacity < 0 then
    invalid_arg "Daemon.create: trace_capacity must be >= 0";
  if config.retries < 0 then invalid_arg "Daemon.create: retries must be >= 0";
  if config.max_frame_bytes < 2 then
    invalid_arg "Daemon.create: max_frame_bytes must be >= 2";
  if config.max_facts < 1 then
    invalid_arg "Daemon.create: max_facts must be >= 1";
  if config.k < Core.Solver.min_k then
    invalid_arg
      (Printf.sprintf "Daemon.create: k must be >= %d" Core.Solver.min_k);
  let chaos =
    Option.map
      (fun s ->
        Chaos.make ~seed:s.chaos_seed ~fail_p:s.fail_p ~delay_p:s.delay_p
          ~delay_s:s.delay_s ~pressure_p:s.pressure_p ~sites:s.sites ())
      config.chaos
  in
  {
    config;
    sleep;
    admission = Admission.make ?clock config.admission;
    planes =
      Plane_cache.make ~capacity:config.plane_capacity
        ?sanitize:
          (if config.sanitize then Some Analysis.Sanitize.gate else None)
        ();
    named = Hashtbl.create 16;
    reports = Hashtbl.create 16;
    chaos;
    metrics = Obs.Metrics.create ();
    trace =
      (if config.trace_capacity > 0 then
         Some (Obs.Trace.create ~capacity:config.trace_capacity ())
       else None);
    journal;
    started = Harness.Clock.now ();
    req_tier = None;
    req_decision = None;
    req_budget = None;
    requests = 0;
    stopped = false;
  }

let requests t = t.requests
let stopped t = t.stopped
let metrics t = t.metrics
let uptime_s t = Harness.Clock.now () -. t.started

(* No-op when tracing / journaling is off, so instrumentation below is
   unconditional. *)
let tspan t ?(attrs = []) name f =
  match t.trace with
  | None -> f ()
  | Some tr -> Obs.Trace.with_span tr ~attrs name f

let tattr t key v =
  match t.trace with None -> () | Some tr -> Obs.Trace.add_attr tr key v

let jlog t kind fields =
  match t.journal with None -> () | Some j -> Obs.Journal.log j kind fields

(* ------------------------------------------------------------------ *)
(* Request plumbing                                                    *)

(* A query's first classification runs its tripath search under the fast
   tier's deadline. A search that runs out raises, which the request
   answers with [code_of_exn], and caches nothing. *)
let classify_cached t q =
  let key = Qlang.Query.to_string q in
  match Hashtbl.find_opt t.reports key with
  | Some r -> r
  | None ->
      let r = Core.Dichotomy.classify ?timeout:t.config.fast_timeout q in
      Hashtbl.replace t.reports key r;
      r

let tier_of_report (r : Core.Dichotomy.report) =
  match r.Core.Dichotomy.verdict with
  | Core.Dichotomy.Ptime _ -> Admission.Fast
  | Core.Dichotomy.Conp_complete _ -> Admission.Heavy

let error_fields (e : Protocol.error) =
  (e.Protocol.code, [ ("error", Json.String e.Protocol.message) ])

let code_of_exn = function
  | Chaos.Injected_fault site ->
      ( Protocol.Fault_injected,
        [
          ("error", Json.String ("injected fault at " ^ site));
          ("site", Json.String site);
        ] )
  | Budget.Budget_exceeded Budget.Deadline ->
      (Protocol.Timeout, [ ("error", Json.String "wall-clock deadline passed") ])
  | Budget.Budget_exceeded Budget.Steps ->
      ( Protocol.Budget_exhausted,
        [ ("error", Json.String "step budget exhausted") ] )
  | Budget.Budget_exceeded (Budget.Pressure site) ->
      ( Protocol.Budget_exhausted,
        [
          ("error", Json.String "step budget exhausted (injected pressure)");
          ("site", Json.String site);
        ] )
  | Plane_cache.Corrupt_plane msg ->
      ( Protocol.Corrupt_plane,
        [ ("error", Json.String ("compiled plane rejected: " ^ msg)) ] )
  | e ->
      ( Protocol.Solver_error,
        [ ("error", Json.String ("internal: " ^ Printexc.to_string e)) ] )

let algorithm_name alg = Format.asprintf "%a" Core.Solver.pp_algorithm alg
let tier_label tier = Format.asprintf "%a" Core.Solver.pp_tier tier

let attempts_field (attempts : Core.Solver.attempt list) =
  ( "attempts",
    Json.List
      (List.map
         (fun (a : Core.Solver.attempt) ->
           Json.Obj
             [
               ("tier", Json.String (tier_label a.Core.Solver.tier));
               ("algorithm", Json.String (algorithm_name a.Core.Solver.algorithm));
               ("status", Json.String (Core.Solver.status_label a.Core.Solver.status));
               ("steps", Json.Int a.Core.Solver.steps);
             ])
         attempts) )

let estimate_fields ~reason (e : Cqa.Montecarlo.estimate) =
  [
    ("reason", Json.String reason);
    ("trials", Json.Int e.Cqa.Montecarlo.trials);
    ("satisfying", Json.Int e.Cqa.Montecarlo.satisfying);
    ("frequency", Json.Float e.Cqa.Montecarlo.frequency);
    ("refuted", Json.Bool (e.Cqa.Montecarlo.counterexample <> None));
  ]

(* The fields of a finished chain's answer. *)
let outcome_fields (attempts : Core.Solver.attempt list) = function
  | Harness.Outcome.Decided (answer, alg) ->
      [
        ("answer", Json.Bool answer);
        ("algorithm", Json.String (algorithm_name alg));
      ]
  | Harness.Outcome.Estimated est -> estimate_fields ~reason:"budget" est
  | Harness.Outcome.Timeout ->
      [ ("error", Json.String "wall-clock deadline passed") ]
  | Harness.Outcome.Budget_exhausted ->
      (* When injected pressure (rather than the step cap) stopped the
         chain, the attempt records the site — surface it. *)
      let pressure_site =
        List.find_map
          (fun (a : Core.Solver.attempt) ->
            match a.Core.Solver.status with
            | Core.Solver.Attempt_out_of_budget (Budget.Pressure site) ->
                Some ("site", Json.String site)
            | _ -> None)
          attempts
      in
      ("error", Json.String "step budget exhausted")
      :: Option.to_list pressure_site
  | Harness.Outcome.Solver_error msg -> [ ("error", Json.String msg) ]

let cache_field hit = ("cache", Json.String (if hit then "hit" else "miss"))

(* Run one attempt of a handler under a fresh budget (tier-derived caps,
   the daemon's chaos schedule), preceded by one tick at the serve
   admission site, and answer the request. Transient faults are retried
   with backoff on a fresh budget (budgets are sticky, so reuse would
   re-raise the stale exhaustion); a fault that escapes every attempt is
   answered with [code_of_exn]. Each attempt's ticks enter the registry
   when it ends, returned or raised.

   [attempt budget] does the work and returns how to answer it: a function
   of the [retries] field, which the answer places itself ([certain] puts
   it before [attempts]). Its work must run before it returns that
   function, so that the retry loop sees the work's faults. *)
let budgeted t ~tier attempt =
  t.req_tier <- Some (Admission.tier_name tier);
  let timeout, max_steps =
    match tier with
    | Admission.Fast -> (t.config.fast_timeout, t.config.fast_max_steps)
    | Admission.Heavy -> (t.config.heavy_timeout, t.config.heavy_max_steps)
  in
  let { Harness.Retry.result; retries } =
    Harness.Retry.run
      ~max_attempts:(t.config.retries + 1)
      ~backoff_s:t.config.backoff_s ~sleep:t.sleep
      ~on_retry:(fun ~attempt:_ _ -> Obs.Metrics.incr t.metrics "serve.retry")
      ~retryable:Harness.Retry.transient
      (fun () ->
        let budget = Budget.make ?timeout ?max_steps ?chaos:t.chaos () in
        Fun.protect
          ~finally:(fun () -> Obs.Metrics.record_ticks t.metrics budget)
          (fun () ->
            Budget.tick ~site:Harness.Sites.serve budget;
            attempt budget))
  in
  match result with
  | Error e -> code_of_exn e
  | Ok answer ->
      answer (if retries = 0 then [] else [ ("retries", Json.Int retries) ])

(* ------------------------------------------------------------------ *)
(* Handlers                                                            *)

(* Resolve a db reference to a cached plane entry. Compilation on a miss
   is charged to [tick] (site "compile"), so oversized work is bounded by
   the per-request budget and a mid-compile fault caches nothing. *)
let resolve_entry t ~tick db_ref =
  match db_ref with
  | Protocol.Named name -> (
      match Hashtbl.find_opt t.named name with
      | None ->
          Error
            {
              Protocol.code = Protocol.Unknown_db;
              message = "no database loaded under name " ^ name;
            }
      | Some (fp, db) -> (
          match Plane_cache.find t.planes fp with
          | Some entry -> Ok (entry, true)
          | None -> Ok (Plane_cache.find_or_compile ~tick t.planes db)))
  | Protocol.Inline text ->
      Result.map
        (fun db -> Plane_cache.find_or_compile ~tick t.planes db)
        (Ingest.database ~max_facts:t.config.max_facts text)

let do_certain t ~query ~db ~trials ~explain =
  match Ingest.query query with
  | Error e -> error_fields e
  | Ok q -> (
      let report = classify_cached t q in
      let tier = tier_of_report report in
      t.req_tier <- Some (Admission.tier_name tier);
      let decision =
        tspan t "admission"
          ~attrs:[ ("tier", Obs.Trace.String (Admission.tier_name tier)) ]
          (fun () ->
            let d = Admission.decide t.admission tier in
            tattr t "decision" (Obs.Trace.String (Admission.decision_name d));
            d)
      in
      t.req_decision <- Some decision;
      Obs.Metrics.incr t.metrics
        ("serve.admission." ^ Admission.decision_name decision);
      match decision with
      | Admission.Shed ->
          ( Protocol.Overloaded,
            [
              ("tier", Json.String (Admission.tier_name tier));
              ("error", Json.String "admission bucket empty; request shed");
            ] )
      | Admission.Admit | Admission.Downgrade ->
          let trials =
            Option.value trials ~default:t.config.estimate_trials
          in
          (* Seed the estimate RNG per request index: deterministic given
             the request sequence, distinct across requests. *)
          let rng_seed = [| t.config.seed; t.requests |] in
          budgeted t ~tier (fun budget ->
              let tick () = Budget.tick ~site:Harness.Sites.compile budget in
              let resolved =
                tspan t "cache" (fun () ->
                    let r = resolve_entry t ~tick db in
                    tattr t "result"
                      (Obs.Trace.String
                         (match r with
                         | Ok (_, true) -> "hit"
                         | Ok (_, false) -> "miss"
                         | Error _ -> "error"));
                    r)
              in
              match resolved with
              | Error e -> fun _ -> error_fields e
              | Ok (entry, hit) -> (
                  match decision with
                  | Admission.Downgrade ->
                      let est =
                        tspan t "estimate" (fun () ->
                            let g =
                              Qlang.Solution_graph.of_query_compiled ~tick q
                                entry.Plane_cache.plane
                            in
                            Cqa.Montecarlo.estimate_g ~budget
                              (Random.State.make rng_seed) ~trials g)
                      in
                      fun retries ->
                        ( Protocol.Degraded_estimate,
                          [
                            ("tier", Json.String (Admission.tier_name tier));
                            ("downgraded", Json.Bool true);
                          ]
                          @ estimate_fields ~reason:"admission" est
                          @ (cache_field hit :: retries) )
                  | _ ->
                      let outcome, attempts =
                        Core.Solver.solve_plane ~k:t.config.k ~budget
                          ~estimate_trials:trials ~seed:t.config.seed
                          ?trace:t.trace report entry.Plane_cache.plane
                      in
                      fun retries ->
                        (* Meter and journal the chain like the CLI does, so
                           the daemon's stats carry the same per-tier
                           histograms `cqa certain --metrics` would. The
                           journal reads the request's budget, serve tick
                           and plane compile included. *)
                        Core.Solver.record_metrics t.metrics outcome attempts;
                        t.req_budget <- Some budget;
                        Option.iter
                          (fun j ->
                            Core.Solver.record_journal j ~budget outcome
                              attempts)
                          t.journal;
                        let common =
                          cache_field hit
                          :: ("steps", Json.Int (Budget.steps budget))
                          :: retries
                          @ if explain then [ attempts_field attempts ] else []
                        in
                        ( Protocol.code_of_outcome outcome,
                          outcome_fields attempts outcome @ common ))))

let do_classify t ~query =
  match Ingest.query query with
  | Error e -> error_fields e
  | Ok q ->
      budgeted t ~tier:Admission.Fast (fun _budget ->
          let report = classify_cached t q in
          fun retries ->
            ( Protocol.Ok_code,
              [
                ( "verdict",
                  Json.String
                    (Core.Dichotomy.verdict_summary report.Core.Dichotomy.verdict)
                );
                ( "class",
                  Json.String
                    (match report.Core.Dichotomy.verdict with
                    | Core.Dichotomy.Ptime _ -> "ptime"
                    | Core.Dichotomy.Conp_complete _ -> "conp-complete") );
                ( "tier",
                  Json.String (Admission.tier_name (tier_of_report report)) );
                ( "bounded_search",
                  Json.Bool report.Core.Dichotomy.bounded_search );
              ]
              @ retries ))

let do_load t ~name ~text =
  match Ingest.database ~max_facts:t.config.max_facts text with
  | Error e -> error_fields e
  | Ok db ->
      budgeted t ~tier:Admission.Heavy (fun budget ->
          let tick () = Budget.tick ~site:Harness.Sites.compile budget in
          let entry, hit = Plane_cache.find_or_compile ~tick t.planes db in
          fun retries ->
            Hashtbl.replace t.named name (entry.Plane_cache.fingerprint, db);
            ( Protocol.Ok_code,
              [
                ("name", Json.String name);
                ("fingerprint", Json.String entry.Plane_cache.fingerprint);
                ("facts", Json.Int (Relational.Database.size db));
                cache_field hit;
              ]
              @ retries ))

(* The update op: apply a fact delta to a named database without paying a
   recompile. The cached plane is patched with [Compiled.apply_delta]
   (charged to the request budget at the compile site, one tick per net
   insert and one per net retract; the surviving facts are moved without
   ticks) and re-keyed under the rolling fingerprint: the cached XOR
   accumulator absorbs the digests of exactly the net-toggled facts, so the
   new key — provably equal to [Plane_cache.fingerprint new_db] — costs
   O(|delta|). The cache's lookup
   check re-derives keys from that accumulator rather than from the facts,
   so this fold is what keeps a patched entry honest. Only after the
   patched entry passes the sanitize gate does the registry flip to the new
   state; any fault before that (chaos mid-patch, budget stop, corrupt
   plane) leaves both the cache and the name serving the pre-delta
   database, because [apply_delta] never mutates the plane it patches. *)
let do_update t ~name ~insert ~retract =
  match Hashtbl.find_opt t.named name with
  | None ->
      ( Protocol.Unknown_db,
        [ ("error", Json.String ("no database loaded under name " ^ name)) ] )
  | Some (old_fp, old_db) -> (
      match (Ingest.facts insert, Ingest.facts retract) with
      | Error e, _ | _, Error e -> error_fields e
      | Ok ins, Ok rets -> (
          match Ingest.key_markers old_db (ins @ rets) with
          | Error e -> error_fields e
          | Ok () ->
              let delta =
                List.map
                  (fun (f, _) -> Relational.Delta.Insert f)
                  ins
                @ List.map (fun (f, _) -> Relational.Delta.Retract f) rets
              in
              budgeted t ~tier:Admission.Heavy (fun budget ->
                  let tick () = Budget.tick ~site:Harness.Sites.compile budget in
                  match Relational.Delta.apply old_db delta with
                  | exception Invalid_argument msg ->
                      fun _ ->
                        error_fields
                          { Protocol.code = Protocol.Bad_db; message = msg }
                  | new_db -> (
                      if Relational.Database.size new_db > t.config.max_facts
                      then fun _ ->
                        error_fields
                          {
                            Protocol.code = Protocol.Db_too_large;
                            message =
                              Printf.sprintf
                                "database has %d facts, over the cap of %d"
                                (Relational.Database.size new_db)
                                t.config.max_facts;
                          }
                      else
                        let net_ins, net_rets =
                          Relational.Delta.normalize old_db delta
                        in
                        (* [patched] is false when the entry was evicted
                           and the update fell back to a recompile. *)
                        let finish entry ~patched =
                          Hashtbl.replace t.named name
                            (entry.Plane_cache.fingerprint, new_db);
                          fun retries ->
                            ( Protocol.Ok_code,
                              [
                                ("name", Json.String name);
                                ( "fingerprint",
                                  Json.String entry.Plane_cache.fingerprint );
                                ("facts", Json.Int (Relational.Database.size new_db));
                                ("inserted", Json.Int (List.length net_ins));
                                ("retracted", Json.Int (List.length net_rets));
                                ( "cache",
                                  Json.String
                                    (if patched then "patched" else "recompiled")
                                );
                              ]
                              @ retries )
                        in
                        match Plane_cache.find t.planes old_fp with
                        | Some entry ->
                            let plane =
                              Relational.Compiled.apply_delta ~tick
                                entry.Plane_cache.plane delta
                            in
                            (* Roll the key: fold the net-toggled facts'
                               digests into the cached accumulator. *)
                            let facts_xor =
                              List.fold_left
                                (fun acc f ->
                                  Plane_cache.Fingerprint.xor acc
                                    (Plane_cache.Fingerprint.fact_digest f))
                                entry.Plane_cache.facts_xor
                                (net_ins @ net_rets)
                            in
                            let entry =
                              {
                                Plane_cache.fingerprint =
                                  Plane_cache.Fingerprint.finish new_db
                                    ~facts_xor;
                                facts_xor;
                                db = new_db;
                                plane;
                              }
                            in
                            Plane_cache.replace t.planes
                              ~old_fingerprint:old_fp entry;
                            finish entry ~patched:true
                        | None ->
                            (* Evicted since load: recompile from the new
                               database like a cold [load] would. *)
                            let entry, _hit =
                              Plane_cache.find_or_compile ~tick t.planes new_db
                            in
                            finish entry ~patched:false))))

let diagnostics_fields diagnostics =
  let severity =
    match Analysis.Lint.max_severity diagnostics with
    | None -> "none"
    | Some s -> Analysis.Lint.severity_to_string s
  in
  let lint_fields =
    match Analysis.Encode.lint_result diagnostics with
    | Json.Obj fields -> fields
    | j -> [ ("lint", j) ]
  in
  ("max_severity", Json.String severity) :: lint_fields

(* The lint and analyze ops keep `cqa lint`'s and `cqa analyze`'s exit
   contract: warnings or errors are code "diagnostics" (exit 1), infos
   alone are "ok" (exit 0), and a query that does not parse is the QL000
   error diagnostic. A database that fails ingestion keeps its own code
   (exit 2). *)
let diagnostics_response diagnostics =
  (Protocol.code_of_diagnostics diagnostics, diagnostics_fields diagnostics)

(* The query is parsed before any database is resolved, so an unparsable
   query answers its QL000 diagnostic, as `cqa analyze` does, without
   compiling anything. With a database, the pass reads the cached plane. *)
let do_analyze t ~query ~db =
  let parsed = Qlang.Parse.query_spanned query in
  match (parsed, db) with
  | Error _, _ | Ok _, None ->
      diagnostics_response (Analysis.Sanitize.analyze parsed)
  | Ok _, Some db_ref ->
      budgeted t ~tier:Admission.Heavy (fun budget ->
          let tick () = Budget.tick ~site:Harness.Sites.compile budget in
          match resolve_entry t ~tick db_ref with
          | Error e -> fun _ -> error_fields e
          | Ok ({ Plane_cache.db; plane; _ }, hit) ->
              let ds = Analysis.Sanitize.analyze ~db ~plane parsed in
              fun retries ->
                let code, fields = diagnostics_response ds in
                (code, fields @ (cache_field hit :: retries)))

(* The last [last] request traces, each re-encoded as a standalone
   Obs_codec trace document: a root "request" span plus every retained
   descendant whose parent chain survived the ring (an orphaned grandchild
   would fail the codec's parent validation). The overall [dropped] count
   makes ring eviction visible. *)
let trace_fields t ~last =
  match t.trace with
  | None ->
      [
        ("enabled", Json.Bool false);
        ("count", Json.Int 0);
        ("dropped", Json.Int 0);
        ("traces", Json.List []);
      ]
  | Some tr ->
      let spans = Obs.Trace.spans tr in
      let roots =
        List.filter
          (fun (s : Obs.Trace.span) ->
            s.Obs.Trace.parent = None && s.Obs.Trace.name = "request")
          spans
      in
      let n = List.length roots in
      let roots = List.filteri (fun i _ -> i >= n - last) roots in
      let traces =
        List.map
          (fun (root : Obs.Trace.span) ->
            let included = Hashtbl.create 16 in
            Hashtbl.add included root.Obs.Trace.id ();
            let sub =
              List.filter
                (fun (s : Obs.Trace.span) ->
                  s.Obs.Trace.id = root.Obs.Trace.id
                  ||
                  match s.Obs.Trace.parent with
                  | Some p when Hashtbl.mem included p ->
                      Hashtbl.add included s.Obs.Trace.id ();
                      true
                  | _ -> false)
                spans
            in
            Analysis.Obs_codec.encode_trace
              { Analysis.Obs_codec.query = None; dropped = 0; spans = sub })
          roots
      in
      [
        ("enabled", Json.Bool true);
        ("count", Json.Int (List.length roots));
        ("dropped", Json.Int (Obs.Trace.dropped tr));
        ("traces", Json.List traces);
      ]

let latency_summary (h : Obs.Metrics.histogram_snapshot) =
  let q p = Option.value ~default:0. (Obs.Metrics.quantile h p) in
  Json.Obj
    [
      ("count", Json.Int h.Obs.Metrics.count);
      ( "mean_ms",
        Json.Float
          (if h.Obs.Metrics.count > 0 then
             h.Obs.Metrics.sum /. float_of_int h.Obs.Metrics.count
           else 0.) );
      ("p50_ms", Json.Float (q 0.5));
      ("p90_ms", Json.Float (q 0.9));
      ("p99_ms", Json.Float (q 0.99));
    ]

let latency_prefix = "serve.latency."
let latency_suffix = ".ms"

let stats_fields t =
  let snap = Obs.Metrics.snapshot t.metrics in
  let planes = Plane_cache.stats t.planes in
  let latency =
    List.filter_map
      (fun (name, h) ->
        let plen = String.length latency_prefix
        and slen = String.length latency_suffix in
        if
          String.length name > plen + slen
          && String.sub name 0 plen = latency_prefix
          && String.sub name (String.length name - slen) slen = latency_suffix
        then
          Some
            ( String.sub name plen (String.length name - plen - slen),
              latency_summary h )
        else None)
      snap.Obs.Metrics.histograms
  in
  [
    ("requests", Json.Int t.requests);
    ("uptime_s", Json.Float (uptime_s t));
    ( "admission",
      Json.Obj
        [
          ("admitted", Json.Int (Admission.admitted t.admission));
          ("downgraded", Json.Int (Admission.downgraded t.admission));
          ("shed", Json.Int (Admission.shed t.admission));
        ] );
    ( "planes",
      Json.Obj
        [
          ("entries", Json.Int planes.Plane_cache.entries);
          ("hits", Json.Int planes.Plane_cache.hits);
          ("misses", Json.Int planes.Plane_cache.misses);
          ("evictions", Json.Int planes.Plane_cache.evictions);
          ("stale", Json.Int planes.Plane_cache.stale);
          ("rejected", Json.Int planes.Plane_cache.rejected);
        ] );
    ( "chaos",
      match t.chaos with
      | None -> Json.Null
      | Some c ->
          Json.Obj
            [
              ("ticks", Json.Int (Chaos.ticks c));
              ("faults", Json.Int (Chaos.faults c));
              ("delays", Json.Int (Chaos.delays c));
              ("pressures", Json.Int (Chaos.pressures c));
            ] );
    ( "counters",
      Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) snap.Obs.Metrics.counters)
    );
    ( "trace",
      match t.trace with
      | None -> Json.Obj [ ("enabled", Json.Bool false) ]
      | Some tr ->
          Json.Obj
            [
              ("enabled", Json.Bool true);
              ("capacity", Json.Int (Obs.Trace.capacity tr));
              ("spans", Json.Int (List.length (Obs.Trace.spans tr)));
              ("dropped", Json.Int (Obs.Trace.dropped tr));
            ] );
    ( "journal",
      match t.journal with
      | None -> Json.Obj [ ("enabled", Json.Bool false) ]
      | Some j ->
          Json.Obj
            [
              ("enabled", Json.Bool true);
              ("path", Json.String (Obs.Journal.path j));
              ("events", Json.Int (Obs.Journal.seq j));
              ("rotations", Json.Int (Obs.Journal.rotations j));
            ] );
    (* Last: wall-clock derived floats, so transcript normalization can
       target the tail of the stats frame. *)
    ("latency", Json.Obj latency);
  ]

let handle_request t = function
  | Protocol.Ping -> (Protocol.Ok_code, [])
  | Protocol.Stats -> (Protocol.Ok_code, stats_fields t)
  | Protocol.Trace { last } -> (Protocol.Ok_code, trace_fields t ~last)
  | Protocol.Shutdown ->
      t.stopped <- true;
      (Protocol.Ok_code, [ ("stopping", Json.Bool true) ])
  | Protocol.Classify { query } -> do_classify t ~query
  | Protocol.Lint { query } ->
      diagnostics_response
        (Analysis.Sanitize.analyze ~sanitize:false (Qlang.Parse.query_spanned query))
  | Protocol.Analyze { query; db } -> do_analyze t ~query ~db
  | Protocol.Load { name; text } -> do_load t ~name ~text
  | Protocol.Update { db; insert; retract } ->
      do_update t ~name:db ~insert ~retract
  | Protocol.Certain { query; db; trials; explain } ->
      do_certain t ~query ~db ~trials ~explain

(* ------------------------------------------------------------------ *)
(* The loop                                                            *)

(* Meter what a handler answered, for every handler: the response code,
   the latency and the plane outcome go into the registry, and the
   request's story into the journal. *)
let finalize t ~t0 ?id ~op code fields =
  Obs.Metrics.incr t.metrics ("serve.response." ^ Protocol.code_name code);
  (* The plane outcome is read back from the response's [cache] field: an
     update's recompile counts as a miss. *)
  let cache =
    match List.assoc_opt "cache" fields with
    | Some (Json.String c) -> Some c
    | _ -> None
  in
  Option.iter
    (fun c ->
      Obs.Metrics.incr t.metrics
        ("serve.plane." ^ if c = "recompiled" then "miss" else c))
    cache;
  let ms = (Harness.Clock.now () -. t0) *. 1000. in
  (match t.req_tier with
  | Some tier ->
      Obs.Metrics.observe t.metrics
        (latency_prefix ^ tier ^ latency_suffix)
        ms
  | None -> ());
  tattr t "code" (Obs.Trace.String (Protocol.code_name code));
  (* Journal the request's story. Admission is read back from the request's
     decision and the plane lifecycle from the response fields, so every
     handler (and the last-line-of-defence path) is covered from this one
     choke point. *)
  (match t.journal with
  | None -> ()
  | Some j ->
      let opf = ("op", Obs.Trace.String op) in
      let tier_f =
        match t.req_tier with
        | Some s -> [ ("tier", Obs.Trace.String s) ]
        | None -> []
      in
      (match t.req_decision with
      | Some Admission.Admit -> jlog t "request.admitted" (opf :: tier_f)
      | Some Admission.Downgrade -> jlog t "request.downgraded" (opf :: tier_f)
      | Some Admission.Shed -> jlog t "request.shed" (opf :: tier_f)
      | None -> ());
      let cache_f =
        Option.fold ~none:[]
          ~some:(fun c -> [ ("cache", Obs.Trace.String c) ])
          cache
      in
      (match cache with
      | Some ("miss" | "recompiled") ->
          jlog t "plane.compiled" ((opf :: tier_f) @ cache_f)
      | Some "patched" -> jlog t "plane.patched" (opf :: tier_f)
      | _ -> ());
      (match code with
      | Protocol.Corrupt_plane ->
          jlog t "plane.rejected"
            (opf
            ::
            (match List.assoc_opt "error" fields with
            | Some (Json.String m) -> [ ("error", Obs.Trace.String m) ]
            | _ -> []))
      | _ -> ());
      Core.Solver.record_completion j ~op ~code:(Protocol.code_name code) ~ms
        (tier_f @ cache_f) t.req_budget);
  let fields =
    match t.trace with
    | None -> fields
    | Some _ -> fields @ [ ("trace_id", Json.Int t.requests) ]
  in
  Protocol.to_frame (Protocol.response ?id ~op code fields)

let handle_line t line =
  if String.trim line = "" then None
  else begin
    t.requests <- t.requests + 1;
    Obs.Metrics.incr t.metrics "serve.requests";
    t.req_tier <- None;
    t.req_decision <- None;
    t.req_budget <- None;
    let t0 = Harness.Clock.now () in
    let frame =
      match Protocol.decode ~max_bytes:t.config.max_frame_bytes line with
      | Error (id, { Protocol.code; message }) ->
          finalize t ~t0 ?id ~op:"error" code [ ("error", Json.String message) ]
      | Ok (id, req) ->
          let op = Protocol.op_name req in
          let run () =
            let code, fields =
              (* The last line of defence: NOTHING kills the loop. *)
              try handle_request t req with e -> code_of_exn e
            in
            (* Counted after the handler, so a stats frame never counts its
               own request. *)
            Obs.Metrics.incr t.metrics ("serve.request." ^ op);
            finalize t ~t0 ?id ~op code fields
          in
          (* The request-root span: everything a handler records — the
             admission decision, the cache probe, the solver chain — nests
             under it, keyed by the response's trace_id. *)
          tspan t "request"
            ~attrs:
              [
                ("trace_id", Obs.Trace.Int t.requests);
                ("op", Obs.Trace.String op);
              ]
            run
    in
    Some frame
  end

let run_pipe t ic oc =
  let rec loop () =
    if t.stopped then ()
    else
      match input_line ic with
      | exception End_of_file -> ()
      | line ->
          (match handle_line t line with
          | None -> ()
          | Some frame ->
              output_string oc frame;
              flush oc);
          loop ()
  in
  loop ()

let run_socket t ~path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 16;
      let rec accept_loop () =
        if t.stopped then ()
        else
          match Unix.accept sock with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
          | fd, _ ->
              let ic = Unix.in_channel_of_descr fd in
              let oc = Unix.out_channel_of_descr fd in
              (* A broken connection drops the client, not the daemon. *)
              (try run_pipe t ic oc
               with Sys_error _ | Unix.Unix_error _ -> ());
              (try flush oc with Sys_error _ -> ());
              (try Unix.close fd with Unix.Unix_error _ -> ());
              accept_loop ()
      in
      accept_loop ())
