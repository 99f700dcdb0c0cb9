module Json = Analysis.Json

(* v7 is v5 without the fields only the retired Cert_k suite filled (its
   compile-phase split, its speedups over the frozen round-driven fixpoint
   and its plane-equivalence bits) and without the null delta fields v5
   still wrote. The decoder reads v5 too, so the committed BENCH_obs.json
   decodes; it ignores fields it does not know. *)
let schema_version = 7
let decodable_versions = [ 5; schema_version ]

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
  runs : run list;
  obs_overhead_pct : float option;
}

type t = {
  suite : string;
  profile : string;
  seed : int;
  cases : case list;
  agreement : bool;
  obs_overhead_pct : float option;
  obs_bar_pct : float;
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
      ("runs", Json.List (List.map encode_run c.runs));
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
            ( "obs_overhead_pct",
              opt (fun f -> Json.Float f) t.obs_overhead_pct );
            ("obs_bar_pct", Json.Float t.obs_bar_pct);
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
    match Json.member "sites" j with
    | Some (Json.Obj kvs) ->
        map_m
          (fun (s, v) ->
            match Json.to_int_opt v with
            | Some n -> Ok (s, n)
            | None -> Error (Printf.sprintf "ill-typed site count %S" s))
          kvs
    | _ -> Error "missing or ill-typed field \"sites\" in run"
  in
  Ok { algorithm; status; median_ms; repeats; certain; steps; sites }

let decode_case j =
  let* name = field "name" "case" Json.to_string_opt j in
  let* query = field "query" "case" Json.to_string_opt j in
  let* k = field "k" "case" Json.to_int_opt j in
  let* n_facts = field "n_facts" "case" Json.to_int_opt j in
  let* n_blocks = field "n_blocks" "case" Json.to_int_opt j in
  let* budget_s = field "budget_s" "case" Json.to_float_opt j in
  let* runs = field "runs" "case" Json.to_list_opt j in
  let* runs = map_m decode_run runs in
  let* obs_overhead_pct = opt_field "obs_overhead_pct" Json.to_float_opt j in
  Ok { name; query; k; n_facts; n_blocks; budget_s; runs; obs_overhead_pct }

let decode j =
  let* version = field "schema_version" "report" Json.to_int_opt j in
  let* () =
    if List.mem version decodable_versions then Ok ()
    else Error (Printf.sprintf "unsupported schema_version %d" version)
  in
  let* suite = field "suite" "report" Json.to_string_opt j in
  let* profile = field "profile" "report" Json.to_string_opt j in
  let* seed = field "seed" "report" Json.to_int_opt j in
  let* cases = field "cases" "report" Json.to_list_opt j in
  let* cases = map_m decode_case cases in
  let* summary = field "summary" "report" Option.some j in
  let* agreement = field "agreement" "summary" Json.to_bool_opt summary in
  let* obs_overhead_pct =
    opt_field "obs_overhead_pct" Json.to_float_opt summary
  in
  let* obs_bar_pct = field "obs_bar_pct" "summary" Json.to_float_opt summary in
  let* obs_within_bar = opt_field "obs_within_bar" Json.to_bool_opt summary in
  Ok
    {
      suite;
      profile;
      seed;
      cases;
      agreement;
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
