(* The observability layer: trace recorder semantics under a deterministic
   clock, metrics registry arithmetic, the budget's per-site accounting and
   the registry's reading of it, solver-chain span shape (including under
   injected chaos), and QCheck round-trips through the Obs_codec JSON
   schemas. *)

module Trace = Obs.Trace
module Metrics = Obs.Metrics
module Budget = Harness.Budget
module Codec = Analysis.Obs_codec

let check msg b = Alcotest.(check bool) msg true b

(* A deterministic clock: each read advances by 1s, so span k's timestamps
   are exact integers and every nesting assertion is reproducible. *)
let counter_clock () =
  let t = ref (-1.) in
  fun () ->
    t := !t +. 1.;
    !t

(* ------------------------------------------------------------------ *)
(* Trace recorder *)

let test_trace_nesting () =
  let tr = Trace.create ~clock:(counter_clock ()) () in
  let r =
    Trace.with_span tr ~attrs:[ ("tier", Trace.String "ptime") ] "solve"
      (fun () ->
        Trace.with_span tr "inner" (fun () -> Trace.add_attr tr "steps" (Trace.Int 7));
        Trace.with_span tr "inner2" (fun () -> ());
        42)
  in
  check "with_span returns the body's value" (r = 42);
  check "no spans left open" (Trace.open_spans tr = 0);
  match Trace.spans tr with
  | [ root; inner; inner2 ] ->
      check "ids in start order" (root.Trace.id = 0 && inner.Trace.id = 1 && inner2.Trace.id = 2);
      check "root is parentless" (root.Trace.parent = None);
      check "children link to the root"
        (inner.Trace.parent = Some 0 && inner2.Trace.parent = Some 0);
      check "names recorded"
        (root.Trace.name = "solve" && inner.Trace.name = "inner");
      (* Clock reads: create=0 (epoch), then one per open and one per close:
         root opens at 1-0=1... epoch-relative: open reads 1 → start 1. *)
      check "child starts after parent" (inner.Trace.start_s >= root.Trace.start_s);
      check "child ends before parent ends"
        (inner.Trace.start_s +. inner.Trace.duration_s
         <= root.Trace.start_s +. root.Trace.duration_s);
      check "durations non-negative"
        (List.for_all (fun (s : Trace.span) -> s.Trace.duration_s >= 0.) [ root; inner; inner2 ]);
      check "seed attr kept" (List.mem_assoc "tier" root.Trace.attrs);
      check "add_attr lands on the innermost open span"
        (List.assoc_opt "steps" inner.Trace.attrs = Some (Trace.Int 7))
  | spans -> Alcotest.failf "expected 3 spans, got %d" (List.length spans)

let test_trace_exception_safety () =
  let tr = Trace.create ~clock:(counter_clock ()) () in
  (try
     Trace.with_span tr "outer" (fun () ->
         Trace.with_span tr "boom" (fun () -> failwith "injected"))
   with Failure _ -> ());
  check "both spans closed despite the raise" (Trace.open_spans tr = 0);
  match Trace.spans tr with
  | [ outer; boom ] ->
      check "raised attr recorded on the raising span"
        (match List.assoc_opt "raised" boom.Trace.attrs with
        | Some (Trace.String m) -> m = "Failure(\"injected\")"
        | _ -> false);
      check "the exception also marks the enclosing span"
        (List.mem_assoc "raised" outer.Trace.attrs)
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans)

let test_trace_orphan_attr () =
  let tr = Trace.create ~clock:(counter_clock ()) () in
  Trace.add_attr tr "ignored" (Trace.Bool true);
  check "attr without an open span is dropped" (Trace.spans tr = [])

let test_trace_ring_capacity () =
  let tr = Trace.create ~clock:(counter_clock ()) ~capacity:4 () in
  for i = 0 to 9 do
    Trace.with_span tr (Printf.sprintf "s%d" i) (fun () -> ())
  done;
  check "capacity reported" (Trace.capacity tr = 4);
  let spans = Trace.spans tr in
  check "ring retains at most capacity spans" (List.length spans = 4);
  check "evictions counted" (Trace.dropped tr = 6);
  check "newest spans survive, in id order"
    (List.map (fun (s : Trace.span) -> s.Trace.id) spans = [ 6; 7; 8; 9 ]);
  check "under-capacity recorder drops nothing"
    (Trace.dropped (Trace.create ~capacity:4 ()) = 0);
  check "capacity must be positive"
    (match Trace.create ~capacity:0 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Metrics registry *)

let test_metrics_counters () =
  let m = Metrics.create () in
  check "unbumped counter reads 0" (Metrics.counter_value m "x" = 0);
  Metrics.incr m "x";
  Metrics.incr m ~by:41 "x";
  Metrics.incr m "y";
  check "incr accumulates" (Metrics.counter_value m "x" = 42);
  let s = Metrics.snapshot m in
  check "snapshot sorted by name" (List.map fst s.Metrics.counters = [ "x"; "y" ])

let test_metrics_histograms () =
  let m = Metrics.create () in
  let bounds = [ 1.; 10.; 100. ] in
  List.iter (Metrics.observe ~bounds m "lat") [ 0.5; 1.0; 5.; 50.; 500. ];
  match List.assoc_opt "lat" (Metrics.snapshot m).Metrics.histograms with
  | None -> Alcotest.fail "histogram missing from snapshot"
  | Some h ->
      check "bounds kept" (h.Metrics.bounds = bounds);
      (* x <= bound buckets: 0.5,1.0 | 5 | 50 | overflow 500 *)
      check "bucket placement (inclusive upper bounds)"
        (h.Metrics.counts = [ 2; 1; 1; 1 ]);
      check "count and sum" (h.Metrics.count = 5 && h.Metrics.sum = 556.5)

let test_metrics_quantile () =
  let m = Metrics.create () in
  let bounds = [ 1.; 10.; 100. ] in
  List.iter (Metrics.observe ~bounds m "lat") [ 0.5; 1.0; 5.; 50.; 500. ];
  let h = List.assoc "lat" (Metrics.snapshot m).Metrics.histograms in
  (* counts [2;1;1;1]: p40 exhausts the first bucket, the median
     interpolates halfway into (1,10], p100 lands in the overflow bucket
     where the last bound is the tightest claim the histogram can back. *)
  check "p40 at the first bucket's edge" (Metrics.quantile h 0.4 = Some 1.0);
  check "median interpolates linearly" (Metrics.quantile h 0.5 = Some 5.5);
  check "p100 clamps to the last bound" (Metrics.quantile h 1.0 = Some 100.);
  check "out-of-range q clamps" (Metrics.quantile h 2.0 = Some 100.);
  check "empty histogram has no quantiles"
    (Metrics.quantile
       { Metrics.bounds; counts = [ 0; 0; 0; 0 ]; count = 0; sum = 0. }
       0.5
    = None)

let test_metrics_bounds_mismatch () =
  let m = Metrics.create () in
  Metrics.observe ~bounds:[ 1.; 10. ] m "lat" 5.;
  (* Disagreeing ~bounds on an existing histogram: the observation lands in
     the original buckets, and the disagreement is itself counted. *)
  Metrics.observe ~bounds:[ 2.; 20. ] m "lat" 5.;
  let s = Metrics.snapshot m in
  let h = List.assoc "lat" s.Metrics.histograms in
  check "original bounds kept" (h.Metrics.bounds = [ 1.; 10. ]);
  check "observation still recorded" (h.Metrics.count = 2);
  check "mismatch counted"
    (Metrics.counter_value m "obs.bounds_mismatch" = 1);
  Metrics.set_debug true;
  Fun.protect
    ~finally:(fun () -> Metrics.set_debug false)
    (fun () ->
      check "debug mode raises on a mismatch"
        (match Metrics.observe ~bounds:[ 3. ] m "lat" 1. with
        | exception Invalid_argument _ -> true
        | () -> false))

let test_metrics_record_ticks () =
  (* The registry's tick counters are read from a finished budget's own
     per-site breakdown, one call per budget. *)
  let m = Metrics.create () in
  let b = Budget.make () in
  Budget.tick ~site:Harness.Sites.certk b;
  Budget.tick ~site:Harness.Sites.certk b;
  Budget.tick ~site:"" b;
  check "nothing counted before the budget is recorded"
    ((Metrics.snapshot m).Metrics.counters = []);
  Metrics.record_ticks m b;
  check "ticks counted per site"
    (Metrics.counter_value m "budget.tick.certk" = 2);
  check "empty site counts as unnamed"
    (Metrics.counter_value m "budget.tick.unnamed" = 1);
  let b' = Budget.make () in
  Budget.tick ~site:Harness.Sites.certk b';
  Metrics.record_ticks m b';
  check "a second budget adds its own"
    (Metrics.counter_value m "budget.tick.certk" = 3);
  Metrics.record_ticks m (Budget.make ());
  check "a budget that never ticked creates no counter"
    (List.length (Metrics.snapshot m).Metrics.counters = 2)

(* ------------------------------------------------------------------ *)
(* Budget per-site accounting, as the registry reads it *)

let test_budget_sites () =
  let b = Budget.make () in
  for _ = 1 to 40 do
    Budget.tick ~site:Harness.Sites.certk b
  done;
  for _ = 1 to 2 do
    Budget.tick ~site:Harness.Sites.dpll b
  done;
  Budget.tick ~site:"" b;
  check "steps total" (Budget.steps b = 43);
  check "breakdown hottest-first and summing to steps"
    (Budget.steps_by_site b = [ ("certk", 40); ("dpll", 2); ("", 1) ]);
  check "hottest site" (Budget.hottest_site b = Some ("certk", 40));
  let m = Metrics.create () in
  Metrics.record_ticks m b;
  check "the registry reads every tick"
    ((Metrics.snapshot m).Metrics.counters
    = [
        ("budget.tick.certk", 40);
        ("budget.tick.dpll", 2);
        ("budget.tick.unnamed", 1);
      ]);
  Budget.tick ~site:Harness.Sites.dpll b;
  check "accounting continues after a reading"
    (List.assoc_opt Harness.Sites.dpll (Budget.steps_by_site b) = Some 3);
  check "a reading is a copy, not a live view"
    (Metrics.counter_value m "budget.tick.dpll" = 2);
  let breakdown = Format.asprintf "%a" Budget.pp_site_breakdown (Budget.steps_by_site b) in
  check "pp breakdown names the unnamed site"
    (breakdown = "certk=40, dpll=3, (unnamed)=1")

let test_budget_interleaved_sites () =
  (* Alternating sites defeats the memoized fast path — counts must still
     be exact. *)
  let b = Budget.make () in
  for _ = 1 to 10 do
    Budget.tick ~site:Harness.Sites.certk b;
    Budget.tick ~site:Harness.Sites.exact b
  done;
  check "alternating sites count exactly"
    (Budget.steps_by_site b = [ ("certk", 10); ("exact", 10) ]
    || Budget.steps_by_site b = [ ("exact", 10); ("certk", 10) ])

(* ------------------------------------------------------------------ *)
(* Solver-chain spans *)

let q3 = Qlang.Parse.query_exn "R(x | y) R(y | x)"

let db_certain =
  let fact xs =
    Relational.Fact.make "R" (List.map Relational.Value.int xs)
  in
  Relational.Database.of_facts
    [ q3.Qlang.Query.schema ]
    [ fact [ 1; 2 ]; fact [ 2; 1 ] ]

let tier_attr (s : Trace.span) =
  match List.assoc_opt "tier" s.Trace.attrs with
  | Some (Trace.String t) -> Some t
  | _ -> None

let solve_traced ?chaos () =
  let tr = Trace.create ~clock:(counter_clock ()) () in
  let budget = Budget.make ?chaos () in
  let report = Core.Dichotomy.classify q3 in
  let outcome, _ = Core.Solver.solve ~budget ~verify:true ~trace:tr report db_certain in
  (tr, outcome)

let test_solver_trace_shape () =
  let tr, outcome = solve_traced () in
  check "chain decided"
    (match outcome with Harness.Outcome.Decided (true, _) -> true | _ -> false);
  let spans = Trace.spans tr in
  let root = List.hd spans in
  check "root span is solve" (root.Trace.name = "solve" && root.Trace.parent = None);
  check "root carries the outcome"
    (List.assoc_opt "outcome" root.Trace.attrs
    = Some (Trace.String "decided-true"));
  let tiers = List.filter (fun (s : Trace.span) -> s.Trace.name = "tier") spans in
  check "--verify runs the ptime and the sat tier"
    (List.filter_map tier_attr tiers = [ "ptime"; "sat" ]);
  check "tier spans nest under the root"
    (List.for_all (fun (s : Trace.span) -> s.Trace.parent = Some root.Trace.id) tiers);
  check "every tier reports its steps"
    (List.for_all (fun (s : Trace.span) -> List.mem_assoc "steps" s.Trace.attrs) tiers);
  (* The serialized trace passes the independent structural validator. *)
  let doc = { Codec.query = Some "q3"; dropped = 0; spans } in
  check "validator accepts a real trace" (Codec.validate_trace doc = Ok ())

let test_solver_trace_under_chaos () =
  let chaos = Harness.Chaos.make ~fail_p:1.0 ~sites:[ Harness.Sites.certk ] () in
  let tr, outcome = solve_traced ~chaos () in
  check "chain still decides past the faulted tier"
    (match outcome with Harness.Outcome.Decided (true, _) -> true | _ -> false);
  let tiers = List.filter (fun (s : Trace.span) -> s.Trace.name = "tier") (Trace.spans tr) in
  match tiers with
  | ptime :: _ ->
      check "first tier is ptime" (tier_attr ptime = Some "ptime");
      check "fault recorded as failed status"
        (List.assoc_opt "status" ptime.Trace.attrs = Some (Trace.String "failed"));
      check "fallback reason attached"
        (match List.assoc_opt "reason" ptime.Trace.attrs with
        | Some (Trace.String r) -> r <> ""
        | _ -> false)
  | [] -> Alcotest.fail "no tier spans recorded"

(* ------------------------------------------------------------------ *)
(* Codec round-trips (QCheck) *)

let gen_name =
  QCheck.Gen.(
    map (String.concat "") (list_size (int_range 1 8) (map (String.make 1) (char_range 'a' 'z'))))

let gen_value =
  QCheck.Gen.(
    oneof
      [
        map (fun b -> Trace.Bool b) bool;
        map (fun n -> Trace.Int n) (int_range (-1000000) 1000000);
        map (fun f -> Trace.Float f) (float_range (-1e6) 1e6);
        map (fun s -> Trace.String s) gen_name;
      ])

let gen_span =
  QCheck.Gen.(
    map
      (fun (id, parent, name, start_s, duration_s, attrs) ->
        { Trace.id; parent; name; start_s; duration_s; attrs })
      (tup6 (int_range 0 1000)
         (opt (int_range 0 1000))
         gen_name
         (float_range 0. 1e4)
         (float_range 0. 1e4)
         (list_size (int_range 0 5) (tup2 gen_name gen_value))))

let gen_trace =
  QCheck.Gen.(
    map
      (fun (query, dropped, spans) -> { Codec.query; dropped; spans })
      (tup3 (opt gen_name) (int_range 0 8) (list_size (int_range 0 12) gen_span)))

let trace_round_trip =
  QCheck.Test.make ~count:200 ~name:"Obs_codec trace round-trips"
    (QCheck.make gen_trace) (fun t ->
      match Codec.trace_of_string (Codec.trace_to_string t) with
      | Ok t' -> t = t'
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e)

let gen_histogram =
  QCheck.Gen.(
    (* Strictly increasing bounds, one count per bound plus overflow. *)
    map
      (fun (n_bounds, counts_seed, count, sum) ->
        let bounds = List.init n_bounds (fun i -> float_of_int ((i + 1) * 10)) in
        let counts = List.filteri (fun i _ -> i <= n_bounds) counts_seed in
        { Metrics.bounds; counts; count; sum })
      (tup4 (int_range 1 6)
         (list_repeat 7 (int_range 0 100))
         (int_range 0 1000)
         (float_range 0. 1e6)))

let gen_snapshot =
  QCheck.Gen.(
    map
      (fun (counters, histograms) ->
        (* The encoder emits objects keyed by name: dedupe, as a registry
           snapshot would never repeat a key. *)
        let dedupe kvs =
          List.sort_uniq (fun (a, _) (b, _) -> compare a b) kvs
        in
        { Metrics.counters = dedupe counters; histograms = dedupe histograms })
      (tup2
         (list_size (int_range 0 8) (tup2 gen_name (int_range 0 100000)))
         (list_size (int_range 0 4) (tup2 gen_name gen_histogram))))

let metrics_round_trip =
  QCheck.Test.make ~count:200 ~name:"Obs_codec metrics round-trips"
    (QCheck.make gen_snapshot) (fun s ->
      match Codec.metrics_of_string (Codec.metrics_to_string s) with
      | Ok s' -> s = s'
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e)

let test_validator_rejects_malformed () =
  let span ?(id = 0) ?parent ?(start_s = 0.) ?(duration_s = 1.) name =
    { Trace.id; parent; name; start_s; duration_s; attrs = [] }
  in
  let bad msg t =
    check msg (match Codec.validate_trace t with Error _ -> true | Ok () -> false)
  in
  bad "unknown parent"
    { Codec.query = None; dropped = 0; spans = [ span ~id:0 ~parent:7 "x" ] };
  bad "non-increasing ids"
    { Codec.query = None; dropped = 0; spans = [ span ~id:1 "a"; span ~id:1 "b" ] };
  bad "negative duration"
    { Codec.query = None; dropped = 0; spans = [ span ~duration_s:(-1.) "x" ] };
  bad "child escapes its parent"
    {
      Codec.query = None;
      dropped = 0;
      spans =
        [ span ~id:0 ~duration_s:1. "p"; span ~id:1 ~parent:0 ~start_s:0.5 ~duration_s:5. "c" ];
    };
  check "decoder rejects a wrong kind"
    (match Codec.trace_of_string (Codec.metrics_to_string Metrics.empty_snapshot) with
    | Error _ -> true
    | Ok _ -> false)

(* ------------------------------------------------------------------ *)
(* Journal *)

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let with_temp_journal f =
  let path = Filename.temp_file "cqa-test-journal" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; path ^ ".1" ])
    (fun () -> f path)

let test_journal_round_trip () =
  with_temp_journal @@ fun path ->
  let j =
    Obs.Journal.create ~clock:(counter_clock ())
      ~render:Codec.event_to_string path
  in
  Obs.Journal.log j "request.admitted"
    [ ("op", Trace.String "certain"); ("tier", Trace.String "heavy") ];
  Obs.Journal.log j "request.completed"
    [ ("code", Trace.String "ok"); ("ms", Trace.Float 1.5); ("steps", Trace.Int 42) ];
  check "unknown kinds are rejected at the choke point"
    (match Obs.Journal.log j "request.madeup" [] with
    | exception Invalid_argument _ -> true
    | () -> false);
  Obs.Journal.close j;
  Obs.Journal.close j (* idempotent *);
  let lines = read_lines path in
  check "one line per event" (List.length lines = 2);
  let events =
    List.map
      (fun line ->
        match Codec.event_of_string line with
        | Ok e -> e
        | Error msg -> Alcotest.failf "journal line failed to decode: %s" msg)
      lines
  in
  (match events with
  | [ a; b ] ->
      check "seq increases" (a.Obs.Journal.seq = 0 && b.Obs.Journal.seq = 1);
      check "timestamps from the injected clock"
        (b.Obs.Journal.t_s > a.Obs.Journal.t_s);
      check "kinds preserved"
        (a.Obs.Journal.kind = "request.admitted"
        && b.Obs.Journal.kind = "request.completed");
      check "fields round-trip"
        (List.assoc_opt "steps" b.Obs.Journal.fields = Some (Trace.Int 42))
  | _ -> Alcotest.fail "expected exactly two events");
  check "decoder rejects an unknown kind"
    (match
       Codec.event_of_string
         {|{"v": 1, "seq": 0, "t_s": 0, "kind": "request.madeup", "fields": {}}|}
     with
    | Error _ -> true
    | Ok _ -> false);
  check "decoder rejects a wrong version"
    (match
       Codec.event_of_string
         {|{"v": 99, "seq": 0, "t_s": 0, "kind": "request.completed", "fields": {}}|}
     with
    | Error _ -> true
    | Ok _ -> false)

let test_journal_rotation () =
  with_temp_journal @@ fun path ->
  let j =
    Obs.Journal.create ~max_bytes:1024 ~render:Codec.event_to_string path
  in
  let pad = String.make 96 'x' in
  for _ = 1 to 50 do
    Obs.Journal.log j "request.completed"
      [ ("op", Trace.String "certain"); ("pad", Trace.String pad) ]
  done;
  check "size cap forces rotation" (Obs.Journal.rotations j >= 1);
  check "rotated segment exists" (Sys.file_exists (path ^ ".1"));
  Obs.Journal.close j;
  let decode_all file =
    List.map
      (fun line ->
        match Codec.event_of_string line with
        | Ok e -> e
        | Error msg -> Alcotest.failf "%s: undecodable line: %s" file msg)
      (read_lines file)
  in
  let events = decode_all (path ^ ".1") @ decode_all path in
  check "live segment stays under the cap plus one event"
    (let st = open_in path in
     let len = in_channel_length st in
     close_in st;
     len <= 1024 + 256);
  (* path.1 keeps only the most recent rotated segment, so the surviving
     events are a suffix of the stream: seq must be strictly increasing
     across the segment boundary, not contiguous from zero. *)
  check "every segment decodes and seq survives rotation"
    (match events with
    | [] -> false
    | e0 :: rest ->
        fst
          (List.fold_left
             (fun (ok, prev) (e : Obs.Journal.event) ->
               (ok && e.Obs.Journal.seq = prev + 1, e.Obs.Journal.seq))
             (true, e0.Obs.Journal.seq) rest));
  check "rotation is journaled"
    (List.exists (fun e -> e.Obs.Journal.kind = "journal.rotated") events)

(* ------------------------------------------------------------------ *)
(* Overhead smoke check *)

let test_disabled_sink_overhead () =
  (* Not a benchmark — a tripwire: 2M sinkless same-site ticks must stay in
     the fast path (pointer-compare + int increment), which even CI machines
     do well under a second. A regression that puts a Hashtbl lookup or an
     allocation on this path blows the generous bound. *)
  let b = Budget.make () in
  let t0 = Harness.Clock.now () in
  for _ = 1 to 2_000_000 do
    Budget.tick ~site:Harness.Sites.certk b
  done;
  let elapsed = Harness.Clock.now () -. t0 in
  check "per-site accounting is exact at volume"
    (Budget.steps_by_site b = [ ("certk", 2_000_000) ]);
  check
    (Printf.sprintf "2M sinkless ticks under 1s (took %.3fs)" elapsed)
    (elapsed < 1.0)

let () =
  Alcotest.run "obs"
    [
      ( "trace",
        [
          Alcotest.test_case "well-nested spans" `Quick test_trace_nesting;
          Alcotest.test_case "exception safety" `Quick test_trace_exception_safety;
          Alcotest.test_case "orphan attr dropped" `Quick test_trace_orphan_attr;
          Alcotest.test_case "bounded span ring" `Quick test_trace_ring_capacity;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_metrics_counters;
          Alcotest.test_case "histograms" `Quick test_metrics_histograms;
          Alcotest.test_case "quantile estimator" `Quick test_metrics_quantile;
          Alcotest.test_case "bounds mismatch" `Quick test_metrics_bounds_mismatch;
          Alcotest.test_case "tick sink" `Quick test_metrics_record_ticks;
        ] );
      ( "journal",
        [
          Alcotest.test_case "round-trip" `Quick test_journal_round_trip;
          Alcotest.test_case "rotation" `Quick test_journal_rotation;
        ] );
      ( "budget",
        [
          Alcotest.test_case "per-site accounting and sink" `Quick test_budget_sites;
          Alcotest.test_case "interleaved sites" `Quick test_budget_interleaved_sites;
          Alcotest.test_case "disabled-sink overhead" `Slow test_disabled_sink_overhead;
        ] );
      ( "solver",
        [
          Alcotest.test_case "trace shape" `Quick test_solver_trace_shape;
          Alcotest.test_case "trace under chaos" `Quick test_solver_trace_under_chaos;
        ] );
      ( "codec",
        [
          QCheck_alcotest.to_alcotest trace_round_trip;
          QCheck_alcotest.to_alcotest metrics_round_trip;
          Alcotest.test_case "validator rejects malformed" `Quick
            test_validator_rejects_malformed;
        ] );
    ]
