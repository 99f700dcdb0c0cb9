(* Offline aggregation of observability artifacts: a journal (JSONL events)
   or a trace document in, one report out — per-tier latency quantiles
   derived from histogram buckets, per-site step profiles, admission and
   plane-cache rates, and a top-K slowest-requests table. *)

type tier_latency = {
  tl_tier : string;
  tl_count : int;
  tl_mean_ms : float;
  tl_p50_ms : float;
  tl_p90_ms : float;
  tl_p99_ms : float;
}

type slow = {
  sl_seq : int;  (* journal seq, or root span id for traces *)
  sl_op : string;
  sl_tier : string;
  sl_code : string;
  sl_ms : float;
}

type t = {
  source : string;  (* "journal" | "trace" *)
  events : int;  (* journal events or trace spans consumed *)
  requests : int;
  tiers : tier_latency list;  (* sorted by tier name *)
  sites : (string * int) list;  (* steps by site, hottest first *)
  admission : (string * int) list;  (* admitted/downgraded/shed, name order *)
  cache : (string * int) list;  (* hit/miss/patched/... name order *)
  fallbacks : int;
  exhausted : int;
  slowest : slow list;  (* at most top, slowest first *)
  dropped_spans : int;
}

let bump tbl key by =
  Hashtbl.replace tbl key (by + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let sorted_counts tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare (a : string) b)

let by_heat tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort Harness.Budget.hottest_first

(* Quantiles come from histogram buckets, not the raw samples — the same
   estimator the serve [stats] op uses, so online and offline numbers agree
   by construction. *)
let tier_rows metrics =
  let snap = Obs.Metrics.snapshot metrics in
  List.filter_map
    (fun (name, (h : Obs.Metrics.histogram_snapshot)) ->
      match String.index_opt name '/' with
      | Some i when h.count > 0 ->
          let q p =
            Option.value ~default:0. (Obs.Metrics.quantile h p)
          in
          Some
            {
              tl_tier = String.sub name (i + 1) (String.length name - i - 1);
              tl_count = h.count;
              tl_mean_ms = h.sum /. float_of_int h.count;
              tl_p50_ms = q 0.5;
              tl_p90_ms = q 0.9;
              tl_p99_ms = q 0.99;
            }
      | _ -> None)
    snap.histograms

let top_slowest top slow =
  let sorted =
    List.sort
      (fun a b ->
        match compare b.sl_ms a.sl_ms with
        | 0 -> compare a.sl_seq b.sl_seq
        | c -> c)
      slow
  in
  List.filteri (fun i _ -> i < top) sorted

let str_field name fields =
  match List.assoc_opt name fields with
  | Some (Obs.Trace.String s) -> Some s
  | _ -> None

let float_field name fields =
  match List.assoc_opt name fields with
  | Some (Obs.Trace.Float f) -> Some f
  | Some (Obs.Trace.Int n) -> Some (float_of_int n)
  | _ -> None

let steps_fields fields k =
  List.iter
    (fun (key, v) ->
      match v with
      | Obs.Trace.Int n when String.length key > 6 && String.sub key 0 6 = "steps." ->
          k (String.sub key 6 (String.length key - 6)) n
      | _ -> ())
    fields

let of_events ?(top = 10) (events : Obs.Journal.event list) =
  let metrics = Obs.Metrics.create () in
  let sites = Hashtbl.create 8 in
  let admission = Hashtbl.create 4 in
  let cache = Hashtbl.create 8 in
  let requests = ref 0 and fallbacks = ref 0 and exhausted = ref 0 in
  let slow = ref [] in
  List.iter
    (fun (e : Obs.Journal.event) ->
      match e.kind with
      | "request.admitted" -> bump admission "admitted" 1
      | "request.downgraded" -> bump admission "downgraded" 1
      | "request.shed" -> bump admission "shed" 1
      | "plane.compiled" -> bump cache "compiled" 1
      | "plane.patched" -> bump cache "patched" 1
      | "plane.rejected" -> bump cache "rejected" 1
      | "tier.fallback" -> Stdlib.incr fallbacks
      | "budget.exhausted" -> Stdlib.incr exhausted
      | "request.completed" ->
          Stdlib.incr requests;
          let tier = Option.value ~default:"untiered" (str_field "tier" e.fields) in
          (match float_field "ms" e.fields with
          | Some ms ->
              Obs.Metrics.observe metrics ("latency/" ^ tier) ms;
              slow :=
                {
                  sl_seq = e.seq;
                  sl_op = Option.value ~default:"?" (str_field "op" e.fields);
                  sl_tier = tier;
                  sl_code = Option.value ~default:"?" (str_field "code" e.fields);
                  sl_ms = ms;
                }
                :: !slow
          | None -> ());
          (match str_field "cache" e.fields with
          | Some c -> bump cache c 1
          | None -> ());
          steps_fields e.fields (fun site n -> bump sites site n)
      | _ -> ())
    events;
  {
    source = "journal";
    events = List.length events;
    requests = !requests;
    tiers = tier_rows metrics;
    sites = by_heat sites;
    admission = sorted_counts admission;
    cache = sorted_counts cache;
    fallbacks = !fallbacks;
    exhausted = !exhausted;
    slowest = top_slowest top !slow;
    dropped_spans = 0;
  }

let attr name (s : Obs.Trace.span) = str_field name s.attrs

let of_trace ?(top = 10) (tr : Obs_codec.trace) =
  let metrics = Obs.Metrics.create () in
  let sites = Hashtbl.create 8 in
  let admission = Hashtbl.create 4 in
  let cache = Hashtbl.create 8 in
  let requests = ref 0 in
  let slow = ref [] in
  List.iter
    (fun (s : Obs.Trace.span) ->
      (match s.parent with
      | None ->
          Stdlib.incr requests;
          let code =
            match attr "code" s with
            | Some c -> c
            | None -> Option.value ~default:"?" (attr "outcome" s)
          in
          slow :=
            {
              sl_seq = s.id;
              sl_op = Option.value ~default:s.name (attr "op" s);
              sl_tier = Option.value ~default:"" (attr "tier" s);
              sl_code = code;
              sl_ms = s.duration_s *. 1000.;
            }
            :: !slow
      | Some _ -> ());
      (match s.name with
      | "tier" ->
          let tier = Option.value ~default:"untiered" (attr "tier" s) in
          Obs.Metrics.observe metrics ("latency/" ^ tier) (s.duration_s *. 1000.);
          steps_fields s.attrs (fun site n -> bump sites site n)
      | "admission" -> (
          match attr "decision" s with
          | Some d -> bump admission d 1
          | None -> ())
      | "cache" -> (
          match attr "result" s with
          | Some r -> bump cache r 1
          | None -> ())
      | _ -> ()))
    tr.Obs_codec.spans;
  {
    source = "trace";
    events = List.length tr.Obs_codec.spans;
    requests = !requests;
    tiers = tier_rows metrics;
    sites = by_heat sites;
    admission = sorted_counts admission;
    cache = sorted_counts cache;
    fallbacks = 0;
    exhausted = 0;
    slowest = top_slowest top !slow;
    dropped_spans = tr.Obs_codec.dropped;
  }

let counts_obj kvs = Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) kvs)

let to_json r =
  Json.Obj
    [
      ("schema_version", Json.Int Obs_codec.schema_version);
      ("kind", Json.String "obs-report");
      ("source", Json.String r.source);
      ("events", Json.Int r.events);
      ("requests", Json.Int r.requests);
      ( "tiers",
        Json.List
          (List.map
             (fun tl ->
               Json.Obj
                 [
                   ("tier", Json.String tl.tl_tier);
                   ("count", Json.Int tl.tl_count);
                   ("mean_ms", Json.Float tl.tl_mean_ms);
                   ("p50_ms", Json.Float tl.tl_p50_ms);
                   ("p90_ms", Json.Float tl.tl_p90_ms);
                   ("p99_ms", Json.Float tl.tl_p99_ms);
                 ])
             r.tiers) );
      ("sites", counts_obj r.sites);
      ("admission", counts_obj r.admission);
      ("cache", counts_obj r.cache);
      ("fallbacks", Json.Int r.fallbacks);
      ("exhausted", Json.Int r.exhausted);
      ( "slowest",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("seq", Json.Int s.sl_seq);
                   ("op", Json.String s.sl_op);
                   ("tier", Json.String s.sl_tier);
                   ("code", Json.String s.sl_code);
                   ("ms", Json.Float s.sl_ms);
                 ])
             r.slowest) );
      ("dropped_spans", Json.Int r.dropped_spans);
    ]

let pp_counts ppf kvs =
  if kvs = [] then Format.fprintf ppf " (none)"
  else List.iter (fun (k, n) -> Format.fprintf ppf " %s=%d" k n) kvs

let pp ppf r =
  Format.fprintf ppf "obs report (%s): %d events, %d requests@." r.source
    r.events r.requests;
  if r.tiers <> [] then begin
    Format.fprintf ppf "tier latency (ms):@.";
    Format.fprintf ppf "  %-10s %7s %9s %9s %9s %9s@." "tier" "count" "mean"
      "p50" "p90" "p99";
    List.iter
      (fun tl ->
        Format.fprintf ppf "  %-10s %7d %9.3f %9.3f %9.3f %9.3f@." tl.tl_tier
          tl.tl_count tl.tl_mean_ms tl.tl_p50_ms tl.tl_p90_ms tl.tl_p99_ms)
      r.tiers
  end;
  Format.fprintf ppf "admission:%a@." pp_counts r.admission;
  Format.fprintf ppf "plane cache:%a@." pp_counts r.cache;
  if r.fallbacks > 0 || r.exhausted > 0 then
    Format.fprintf ppf "degradation: fallbacks=%d exhausted=%d@." r.fallbacks
      r.exhausted;
  if r.sites <> [] then begin
    Format.fprintf ppf "steps by site:@.";
    List.iter (fun (s, n) -> Format.fprintf ppf "  %-20s %d@." s n) r.sites
  end;
  if r.slowest <> [] then begin
    Format.fprintf ppf "slowest requests:@.";
    Format.fprintf ppf "  %6s %-10s %-10s %-18s %9s@." "seq" "op" "tier" "code"
      "ms";
    List.iter
      (fun s ->
        Format.fprintf ppf "  %6d %-10s %-10s %-18s %9.3f@." s.sl_seq s.sl_op
          s.sl_tier s.sl_code s.sl_ms)
      r.slowest
  end;
  if r.dropped_spans > 0 then
    Format.fprintf ppf "dropped spans: %d@." r.dropped_spans
