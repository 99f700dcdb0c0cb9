module Json = Analysis.Json

(* v2 added the per-run "sites" object (per-site budget step breakdown);
   v3 added the compile-phase split (per-case "compile_ms", "speedup_e2e",
   "plane_equivalent"; summary "plane_equivalence", "geomean_e2e");
   v4 added an incremental-maintenance split (per-case "delta_us",
   "delta_speedup", "delta_equivalent"; summary "delta_equivalence",
   "geomean_delta") and v6 an evaluation-VM split, both later dropped with
   the code they measured; the decoder ignores their fields. v5 added the
   observability-overhead split (per-case "obs_overhead_pct"; summary
   "obs_overhead_pct", "obs_bar_pct", "obs_within_bar"). The decoder still
   accepts v1–v5 documents, reading the newer fields as absent ([None]). *)
let schema_version = 6

type run = {
  algorithm : string;
  status : string;  (* "ok" | "timeout" *)
  median_ms : float;
  repeats : int;
  certain : bool option;
  steps : int;
  sites : (string * int) list;
}

type case = {
  name : string;
  query : string;
  k : int;
  n_facts : int;
  n_blocks : int;
  budget_s : float;
  compile_ms : float option;
  runs : run list;
  speedup_vs_rounds : float option;
  speedup_e2e : float option;
  plane_equivalent : bool option;
  obs_overhead_pct : float option;
}

type t = {
  suite : string;
  profile : string;
  seed : int;
  cases : case list;
  agreement : bool;
  plane_equivalence : bool option;
  geomean_speedup : float option;
  geomean_e2e : float option;
  obs_overhead_pct : float option;
  obs_bar_pct : float option;
  obs_within_bar : bool option;
}

(* Encoding *)

let opt enc = function None -> Json.Null | Some v -> enc v

let encode_run r =
  Json.Obj
    [
      ("algorithm", Json.String r.algorithm);
      ("status", Json.String r.status);
      ("median_ms", Json.Float r.median_ms);
      ("repeats", Json.Int r.repeats);
      ("certain", opt (fun b -> Json.Bool b) r.certain);
      ("steps", Json.Int r.steps);
      ("sites", Json.Obj (List.map (fun (s, n) -> (s, Json.Int n)) r.sites));
    ]

let encode_case c =
  Json.Obj
    [
      ("name", Json.String c.name);
      ("query", Json.String c.query);
      ("k", Json.Int c.k);
      ("n_facts", Json.Int c.n_facts);
      ("n_blocks", Json.Int c.n_blocks);
      ("budget_s", Json.Float c.budget_s);
      ("compile_ms", opt (fun f -> Json.Float f) c.compile_ms);
      ("runs", Json.List (List.map encode_run c.runs));
      ("speedup_vs_rounds", opt (fun f -> Json.Float f) c.speedup_vs_rounds);
      ("speedup_e2e", opt (fun f -> Json.Float f) c.speedup_e2e);
      ("plane_equivalent", opt (fun b -> Json.Bool b) c.plane_equivalent);
      ("obs_overhead_pct", opt (fun f -> Json.Float f) c.obs_overhead_pct);
    ]

let encode t =
  Json.Obj
    [
      ("schema_version", Json.Int schema_version);
      ("suite", Json.String t.suite);
      ("profile", Json.String t.profile);
      ("seed", Json.Int t.seed);
      ("cases", Json.List (List.map encode_case t.cases));
      ( "summary",
        Json.Obj
          [
            ("cases", Json.Int (List.length t.cases));
            ("agreement", Json.Bool t.agreement);
            ( "plane_equivalence",
              opt (fun b -> Json.Bool b) t.plane_equivalence );
            ( "geomean_speedup_vs_rounds",
              opt (fun f -> Json.Float f) t.geomean_speedup );
            ("geomean_e2e", opt (fun f -> Json.Float f) t.geomean_e2e);
            ( "obs_overhead_pct",
              opt (fun f -> Json.Float f) t.obs_overhead_pct );
            ("obs_bar_pct", opt (fun f -> Json.Float f) t.obs_bar_pct);
            ("obs_within_bar", opt (fun b -> Json.Bool b) t.obs_within_bar);
          ] );
    ]

(* Decoding — the inverse of [encode], strict about shape so the round-trip
   check in [cqa bench] actually validates the document. *)

let ( let* ) r f = Result.bind r f

let field name access conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or ill-typed field %S in %s" name access)

let opt_field name conv j =
  match Json.member name j with
  | None | Some Json.Null -> Ok None
  | Some v -> (
      match conv v with
      | Some v -> Ok (Some v)
      | None -> Error (Printf.sprintf "ill-typed field %S" name))

let rec map_m f = function
  | [] -> Ok []
  | x :: xs ->
      let* y = f x in
      let* ys = map_m f xs in
      Ok (y :: ys)

let decode_run j =
  let* algorithm = field "algorithm" "run" Json.to_string_opt j in
  let* status = field "status" "run" Json.to_string_opt j in
  let* () =
    if status = "ok" || status = "timeout" then Ok ()
    else Error (Printf.sprintf "unknown run status %S" status)
  in
  let* median_ms = field "median_ms" "run" Json.to_float_opt j in
  let* repeats = field "repeats" "run" Json.to_int_opt j in
  let* certain = opt_field "certain" Json.to_bool_opt j in
  let* steps = field "steps" "run" Json.to_int_opt j in
  let* sites =
    (* Absent in v1 documents; an empty object and an absent field decode
       alike, so v1 reports round-trip into v2 with "sites": {}. *)
    match Json.member "sites" j with
    | None -> Ok []
    | Some (Json.Obj kvs) ->
        map_m
          (fun (s, v) ->
            match Json.to_int_opt v with
            | Some n -> Ok (s, n)
            | None -> Error (Printf.sprintf "ill-typed site count %S" s))
          kvs
    | Some _ -> Error "ill-typed field \"sites\" in run"
  in
  Ok { algorithm; status; median_ms; repeats; certain; steps; sites }

let decode_case j =
  let* name = field "name" "case" Json.to_string_opt j in
  let* query = field "query" "case" Json.to_string_opt j in
  let* k = field "k" "case" Json.to_int_opt j in
  let* n_facts = field "n_facts" "case" Json.to_int_opt j in
  let* n_blocks = field "n_blocks" "case" Json.to_int_opt j in
  let* budget_s = field "budget_s" "case" Json.to_float_opt j in
  (* compile_ms / speedup_e2e / plane_equivalent are absent before v3. *)
  let* compile_ms = opt_field "compile_ms" Json.to_float_opt j in
  let* runs = field "runs" "case" Json.to_list_opt j in
  let* runs = map_m decode_run runs in
  let* speedup_vs_rounds = opt_field "speedup_vs_rounds" Json.to_float_opt j in
  let* speedup_e2e = opt_field "speedup_e2e" Json.to_float_opt j in
  let* plane_equivalent = opt_field "plane_equivalent" Json.to_bool_opt j in
  (* obs_overhead_pct is absent before v5. *)
  let* obs_overhead_pct = opt_field "obs_overhead_pct" Json.to_float_opt j in
  Ok
    {
      name;
      query;
      k;
      n_facts;
      n_blocks;
      budget_s;
      compile_ms;
      runs;
      speedup_vs_rounds;
      speedup_e2e;
      plane_equivalent;
      obs_overhead_pct;
    }

let decode j =
  let* version = field "schema_version" "report" Json.to_int_opt j in
  let* () =
    if version >= 1 && version <= schema_version then Ok ()
    else Error (Printf.sprintf "unsupported schema_version %d" version)
  in
  let* suite = field "suite" "report" Json.to_string_opt j in
  let* profile = field "profile" "report" Json.to_string_opt j in
  let* seed = field "seed" "report" Json.to_int_opt j in
  let* cases = field "cases" "report" Json.to_list_opt j in
  let* cases = map_m decode_case cases in
  let* summary = field "summary" "report" Option.some j in
  let* agreement = field "agreement" "summary" Json.to_bool_opt summary in
  let* plane_equivalence =
    opt_field "plane_equivalence" Json.to_bool_opt summary
  in
  let* geomean_speedup =
    opt_field "geomean_speedup_vs_rounds" Json.to_float_opt summary
  in
  let* geomean_e2e = opt_field "geomean_e2e" Json.to_float_opt summary in
  let* obs_overhead_pct =
    opt_field "obs_overhead_pct" Json.to_float_opt summary
  in
  let* obs_bar_pct = opt_field "obs_bar_pct" Json.to_float_opt summary in
  let* obs_within_bar = opt_field "obs_within_bar" Json.to_bool_opt summary in
  Ok
    {
      suite;
      profile;
      seed;
      cases;
      agreement;
      plane_equivalence;
      geomean_speedup;
      geomean_e2e;
      obs_overhead_pct;
      obs_bar_pct;
      obs_within_bar;
    }

let of_string s =
  let* j = Json.of_string s in
  decode j

let to_string t = Json.to_string (encode t)

let equal a b = a = b

let validate_round_trip t =
  match of_string (to_string t) with
  | Error e -> Error ("round-trip parse failed: " ^ e)
  | Ok t' ->
      if equal t t' then Ok ()
      else Error "round-trip produced a structurally different report"

let write path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string t);
      output_char oc '\n')
