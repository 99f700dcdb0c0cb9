(* Tests for the serve subsystem: protocol totality, structured ingestion,
   admission control, the plane cache, retries, per-request metrics
   totals, the daemon's response contract — and the chaos soak: ≥1000
   randomized mixed requests with fault injection across every tick site,
   asserting the loop answers every frame with a contract-conformant
   response and never dies. *)

module Json = Analysis.Json
module Protocol = Serve.Protocol
module Budget = Harness.Budget
module Chaos = Harness.Chaos

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Protocol *)

let all_codes =
  [
    Protocol.Ok_code;
    Protocol.Not_certain;
    Protocol.Diagnostics;
    Protocol.Bad_frame;
    Protocol.Bad_request;
    Protocol.Bad_query;
    Protocol.Bad_db;
    Protocol.Db_too_large;
    Protocol.Unknown_db;
    Protocol.Solver_error;
    Protocol.Corrupt_plane;
    Protocol.Overloaded;
    Protocol.Degraded_estimate;
    Protocol.Budget_exhausted;
    Protocol.Fault_injected;
    Protocol.Timeout;
  ]

let test_exit_contract () =
  (* The stable code → exit mapping mirrors the CLI contract; pin every
     pair so a renumbering cannot slip through. *)
  let expected =
    [
      ("ok", 0);
      ("not-certain", 1);
      ("diagnostics", 1);
      ("bad-frame", 2);
      ("bad-request", 2);
      ("bad-query", 2);
      ("bad-db", 2);
      ("db-too-large", 2);
      ("unknown-db", 2);
      ("solver-error", 2);
      ("corrupt-plane", 2);
      ("overloaded", 3);
      ("degraded-estimate", 3);
      ("budget-exhausted", 3);
      ("fault-injected", 3);
      ("timeout", 124);
    ]
  in
  List.iter2
    (fun code (name, exit_code) ->
      checks "code name" name (Protocol.code_name code);
      checki ("exit of " ^ name) exit_code (Protocol.exit_of_code code))
    all_codes expected;
  List.iter
    (fun code ->
      let status = Protocol.status_of_code code in
      let expected =
        match Protocol.exit_of_code code with
        | 0 | 1 -> "ok"
        | 3 -> "degraded"
        | 124 -> "timeout"
        | _ -> "error"
      in
      checks "status" expected status)
    all_codes;
  (* The daemon's [certain] responses and [cqa certain]'s exit status both
     read an outcome's code off [code_of_outcome]: pin every outcome. *)
  let estimate =
    {
      Cqa.Montecarlo.trials = 1;
      satisfying = 1;
      frequency = 1.;
      counterexample = None;
    }
  in
  List.iter
    (fun (outcome, name) ->
      checks ("code of " ^ name) name
        (Protocol.code_name (Protocol.code_of_outcome outcome)))
    [
      (Harness.Outcome.Decided (true, Core.Solver.Alg_cert2), "ok");
      ( Harness.Outcome.Decided (false, Core.Solver.Alg_exact_sat),
        "not-certain" );
      (Harness.Outcome.Estimated estimate, "degraded-estimate");
      (Harness.Outcome.Timeout, "timeout");
      (Harness.Outcome.Budget_exhausted, "budget-exhausted");
      (Harness.Outcome.Solver_error "tiers disagree", "solver-error");
    ]

let decode s = Protocol.decode ~max_bytes:4096 s

let expect_error name expected_code = function
  | Error (_, { Protocol.code; _ }) ->
      checks name (Protocol.code_name expected_code) (Protocol.code_name code)
  | Ok _ -> Alcotest.failf "%s: expected a decode error" name

let test_decode_errors () =
  expect_error "not json" Protocol.Bad_frame (decode "certainly not json");
  expect_error "not an object" Protocol.Bad_frame (decode "[1, 2]");
  expect_error "oversized" Protocol.Bad_frame
    (Protocol.decode ~max_bytes:8 {|{"op": "ping"}|});
  expect_error "missing op" Protocol.Bad_request (decode "{}");
  expect_error "unknown op" Protocol.Bad_request (decode {|{"op": "evaluate"}|});
  expect_error "missing query" Protocol.Bad_request (decode {|{"op": "classify"}|});
  expect_error "ill-typed query" Protocol.Bad_request
    (decode {|{"op": "classify", "query": 3}|});
  expect_error "db and facts" Protocol.Bad_request
    (decode {|{"op": "certain", "query": "q", "db": "a", "facts": "b"}|});
  expect_error "neither db nor facts" Protocol.Bad_request
    (decode {|{"op": "certain", "query": "q"}|});
  expect_error "bad trials" Protocol.Bad_request
    (decode {|{"op": "certain", "query": "q", "db": "a", "trials": 0}|});
  (* The id is echoed even on a decode failure, when it parsed far enough. *)
  match decode {|{"op": "nope", "id": 9}|} with
  | Error (Some (Json.Int 9), _) -> ()
  | _ -> Alcotest.fail "id not recovered from a bad request"

let test_decode_ok () =
  (match decode {|{"op": "certain", "query": "q", "db": "d", "id": 1}|} with
  | Ok (Some (Json.Int 1), Protocol.Certain { db = Protocol.Named "d"; trials = None; explain = false; _ }) -> ()
  | _ -> Alcotest.fail "named certain");
  (match decode {|{"op": "certain", "query": "q", "facts": "R(1 | 2)", "trials": 7, "explain": true}|} with
  | Ok (None, Protocol.Certain { db = Protocol.Inline _; trials = Some 7; explain = true; _ }) -> ()
  | _ -> Alcotest.fail "inline certain");
  match decode {|{"op": "load", "name": "n", "facts": "R(1 | 2)"}|} with
  | Ok (None, Protocol.Load { name = "n"; _ }) -> ()
  | _ -> Alcotest.fail "load"

let test_decode_analyze () =
  (* Unlike certain, analyze works without an instance: the empty database
     of the query's schema is analyzed instead. *)
  (match decode {|{"op": "analyze", "query": "q"}|} with
  | Ok (None, Protocol.Analyze { db = None; _ }) -> ()
  | _ -> Alcotest.fail "analyze without db");
  (match decode {|{"op": "analyze", "query": "q", "db": "d"}|} with
  | Ok (None, Protocol.Analyze { db = Some (Protocol.Named "d"); _ }) -> ()
  | _ -> Alcotest.fail "analyze with a named db");
  (match decode {|{"op": "analyze", "query": "q", "facts": "R(1 | 2)"}|} with
  | Ok (None, Protocol.Analyze { db = Some (Protocol.Inline _); _ }) -> ()
  | _ -> Alcotest.fail "analyze with an inline db");
  expect_error "analyze with both" Protocol.Bad_request
    (decode {|{"op": "analyze", "query": "q", "db": "a", "facts": "b"}|})

(* ------------------------------------------------------------------ *)
(* Ingest *)

let test_ingest () =
  (match Serve.Ingest.database "R(1 | 2)\nR(2 | 3)" with
  | Ok db -> checki "facts" 2 (Relational.Database.size db)
  | Error _ -> Alcotest.fail "well-formed database refused");
  (match Serve.Ingest.database "R(1 | 2)\nR(1 2 | 3)" with
  | Error { Protocol.code = Protocol.Bad_db; _ } -> ()
  | _ -> Alcotest.fail "arity mismatch must be bad-db");
  (match Serve.Ingest.database "not a fact" with
  | Error { Protocol.code = Protocol.Bad_db; _ } -> ()
  | _ -> Alcotest.fail "parse error must be bad-db");
  (match Serve.Ingest.database ~max_facts:2 "R(1 | 2)\nR(2 | 3)\nR(3 | 4)" with
  | Error { Protocol.code = Protocol.Db_too_large; _ } -> ()
  | _ -> Alcotest.fail "cap overflow must be db-too-large");
  (match Serve.Ingest.query "R(x | y) R(y | x)" with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "well-formed query refused");
  match Serve.Ingest.query "R(x | y) S(" with
  | Error { Protocol.code = Protocol.Bad_query; _ } -> ()
  | _ -> Alcotest.fail "parse error must be bad-query"

(* ------------------------------------------------------------------ *)
(* Admission *)

let test_admission () =
  (* Pinned clock: no refill unless we advance it. Capacity 2 heavy units,
     estimate cost 0.5 → two admits, then downgrades while ≥ 0.5 remains
     — the bucket is empty after the admits, so straight to shed. *)
  let now = ref 0.0 in
  let config =
    {
      Serve.Admission.capacity = 2.0;
      refill_per_s = 1.0;
      heavy_cost = 1.0;
      fast_cost = 0.1;
      estimate_cost = 0.5;
    }
  in
  let a = Serve.Admission.make ~clock:(fun () -> !now) config in
  let d () = Serve.Admission.decide a Serve.Admission.Heavy in
  checkb "admit 1" true (d () = Serve.Admission.Admit);
  checkb "admit 2" true (d () = Serve.Admission.Admit);
  checkb "shed" true (d () = Serve.Admission.Shed);
  (* Refill half a unit: enough for a downgrade, not an admit. *)
  now := 0.5;
  checkb "downgrade" true (d () = Serve.Admission.Downgrade);
  checkb "shed again" true (d () = Serve.Admission.Shed);
  (* Fast requests always admit, even on an empty bucket. *)
  checkb "fast admits" true
    (Serve.Admission.decide a Serve.Admission.Fast = Serve.Admission.Admit);
  checki "admitted" 3 (Serve.Admission.admitted a);
  checki "downgraded" 1 (Serve.Admission.downgraded a);
  checki "shed" 2 (Serve.Admission.shed a);
  Alcotest.check_raises "estimate_cost > heavy_cost"
    (Invalid_argument "Admission.make: estimate_cost must be <= heavy_cost")
    (fun () ->
      ignore
        (Serve.Admission.make
           { config with Serve.Admission.estimate_cost = 2.0 }))

(* Regression: a clock that steps backwards (NTP jump, VM migration) must
   neither credit tokens nor rewind the refill watermark. The pre-fix code
   moved [last] back on a negative span, so when the clock recovered the
   re-traversed span was credited a second time — over-refilling the bucket
   by exactly the step size. *)
let test_admission_backwards_clock () =
  let now = ref 100.0 in
  let config =
    {
      Serve.Admission.capacity = 2.0;
      refill_per_s = 1.0;
      heavy_cost = 1.0;
      fast_cost = 0.1;
      estimate_cost = 0.5;
    }
  in
  let a = Serve.Admission.make ~clock:(fun () -> !now) config in
  let d () = Serve.Admission.decide a Serve.Admission.Heavy in
  checkb "admit 1" true (d () = Serve.Admission.Admit);
  checkb "admit 2" true (d () = Serve.Admission.Admit);
  checkb "empty bucket sheds" true (d () = Serve.Admission.Shed);
  (* The clock steps back 60 seconds: no credit, and crucially no rewind. *)
  now := 40.0;
  checkb "backwards step credits nothing" true (d () = Serve.Admission.Shed);
  checkb "tokens still empty" true (Serve.Admission.tokens a <= 0.0);
  (* The clock recovers to exactly the old watermark. Pre-fix, [last] had
     been rewound to 40, so this decide re-credited the 60-second span and
     admitted from a bucket that never actually waited. *)
  now := 100.0;
  checkb "recovered clock re-credits nothing" true
    (d () = Serve.Admission.Shed);
  (* Time past the watermark refills normally again. *)
  now := 100.5;
  checkb "refill past the watermark works" true
    (d () = Serve.Admission.Downgrade);
  now := 102.0;
  checkb "full refill admits again" true (d () = Serve.Admission.Admit)

(* ------------------------------------------------------------------ *)
(* Plane cache *)

let db_of_text text =
  match Serve.Ingest.database text with
  | Ok db -> db
  | Error _ -> Alcotest.fail "test database refused"

let test_plane_cache () =
  let cache = Serve.Plane_cache.make ~capacity:2 () in
  let d1 = db_of_text "R(1 | 2)\nR(1 | 3)" in
  let d1' = db_of_text "R(1 | 3)\nR(1 | 2)" in
  let d2 = db_of_text "R(2 | 2)" in
  let d3 = db_of_text "R(3 | 3)" in
  checks "fingerprint is content-addressed"
    (Serve.Plane_cache.fingerprint d1)
    (Serve.Plane_cache.fingerprint d1');
  let _, hit = Serve.Plane_cache.find_or_compile cache d1 in
  checkb "first is a miss" false hit;
  let _, hit = Serve.Plane_cache.find_or_compile cache d1' in
  checkb "same content hits" true hit;
  let _, _ = Serve.Plane_cache.find_or_compile cache d2 in
  (* Touch d1 so d2 is the LRU victim when d3 arrives. *)
  ignore (Serve.Plane_cache.find cache (Serve.Plane_cache.fingerprint d1));
  let _, _ = Serve.Plane_cache.find_or_compile cache d3 in
  let stats = Serve.Plane_cache.stats cache in
  checki "entries bounded" 2 stats.Serve.Plane_cache.entries;
  checki "one eviction" 1 stats.Serve.Plane_cache.evictions;
  checkb "d2 evicted" true
    (Serve.Plane_cache.find cache (Serve.Plane_cache.fingerprint d2) = None);
  checkb "d1 retained" true
    (Serve.Plane_cache.find cache (Serve.Plane_cache.fingerprint d1) <> None);
  (* A fault mid-compile caches nothing. *)
  let d4 = db_of_text "R(4 | 4)\nR(4 | 5)" in
  (try
     ignore
       (Serve.Plane_cache.find_or_compile
          ~tick:(fun () -> raise (Chaos.Injected_fault "compile"))
          cache d4);
     Alcotest.fail "fault swallowed"
   with Chaos.Injected_fault _ -> ());
  checkb "faulted compile cached nothing" true
    (Serve.Plane_cache.find cache (Serve.Plane_cache.fingerprint d4) = None)

let test_plane_cache_sanitize () =
  let cache =
    Serve.Plane_cache.make ~capacity:2 ~sanitize:Analysis.Sanitize.gate ()
  in
  let d1 = db_of_text "R(1 | 2)\nR(1 | 3)" in
  let _, hit = Serve.Plane_cache.find_or_compile cache d1 in
  checkb "clean plane admitted" false hit;
  (* The chaos hook corrupts every plane compile produces from here on. *)
  Relational.Compiled.set_test_corruption
    (Some Relational.Compiled.Unsafe.corrupt_first_cell_out_of_domain);
  Fun.protect
    ~finally:(fun () -> Relational.Compiled.set_test_corruption None)
  @@ fun () ->
  let d2 = db_of_text "R(7 | 8)\nR(7 | 9)" in
  (try
     ignore (Serve.Plane_cache.find_or_compile cache d2);
     Alcotest.fail "corrupt plane admitted into the cache"
   with Serve.Plane_cache.Corrupt_plane msg ->
     checkb "rejection names a PL code" true
       (String.length msg >= 2 && String.sub msg 0 2 = "PL"));
  checkb "corrupt plane not cached" true
    (Serve.Plane_cache.find cache (Serve.Plane_cache.fingerprint d2) = None);
  let stats = Serve.Plane_cache.stats cache in
  checki "rejection counted" 1 stats.Serve.Plane_cache.rejected;
  checkb "clean entry still served" true
    (Serve.Plane_cache.find cache (Serve.Plane_cache.fingerprint d1) <> None)

(* Regression: an entry whose content no longer hashes to the fingerprint
   it is stored under must be evicted on lookup, never served — serving it
   would answer for the wrong database. *)
let test_plane_cache_stale () =
  let cache = Serve.Plane_cache.make () in
  let d1 = db_of_text "R(1 | 2)" in
  let d2 = db_of_text "R(9 | 9)" in
  let fp1 = Serve.Plane_cache.fingerprint d1 in
  let entry2, _ = Serve.Plane_cache.find_or_compile cache d2 in
  (* Wedge d2's entry under d1's key — the moral equivalent of a mutated
     backing store or an injection bug. *)
  Serve.Plane_cache.inject cache ~fingerprint:fp1 entry2;
  checkb "stale entry evicted, not served" true
    (Serve.Plane_cache.find cache fp1 = None);
  let stats = Serve.Plane_cache.stats cache in
  checki "stale lookup counted" 1 stats.Serve.Plane_cache.stale;
  checki "stale eviction counted" 1 stats.Serve.Plane_cache.evictions;
  (* find_or_compile on the honest database also validates before serving:
     the wedged entry is evicted and the miss path recompiles. *)
  Serve.Plane_cache.inject cache ~fingerprint:fp1 entry2;
  let entry, hit = Serve.Plane_cache.find_or_compile cache d1 in
  checkb "stale hit becomes a miss" false hit;
  checkb "recompiled entry is honest" true
    (Relational.Database.equal entry.Serve.Plane_cache.db d1);
  checki "second stale lookup counted" 2
    (Serve.Plane_cache.stats cache).Serve.Plane_cache.stale

(* Regression: [find] is how named reads, [analyze] on a named database and
   [update] reach their entry, so a hit through it must count — before the
   fix only [find_or_compile] bumped [hits], and these two lookups read 0. *)
let test_plane_cache_find_counts_hits () =
  let cache = Serve.Plane_cache.make () in
  let d1 = db_of_text "R(1 | 2)\nR(1 | 3)" in
  let entry, _ = Serve.Plane_cache.find_or_compile cache d1 in
  let fp = entry.Serve.Plane_cache.fingerprint in
  checkb "first find hits" true (Serve.Plane_cache.find cache fp <> None);
  checkb "second find hits" true (Serve.Plane_cache.find cache fp <> None);
  let stats = Serve.Plane_cache.stats cache in
  checki "both finds counted" 2 stats.Serve.Plane_cache.hits;
  checki "the compile is the only miss" 1 stats.Serve.Plane_cache.misses;
  checkb "absent key" true (Serve.Plane_cache.find cache "absent" = None);
  checki "an absent key is not a hit" 2
    (Serve.Plane_cache.stats cache).Serve.Plane_cache.hits

(* A hit re-derives its key from the stored accumulator — one digest over
   schemas, accumulator and fact count — instead of re-hashing every fact.
   Re-hashing a 3,200-fact database allocates hundreds of thousands of
   minor words (a buffer and a digest per fact); the accumulator check
   allocates under a hundred. Counting words rather than timing keeps the
   bound deterministic. *)
let test_plane_cache_hit_does_not_rehash () =
  let rng = Random.State.make [| 42 |] in
  let db =
    Workload.Randdb.random_for_query rng Workload.Catalog.q5 ~n_facts:3200
      ~domain:400
  in
  checkb "a large database" true (Relational.Database.size db > 3000);
  let cache = Serve.Plane_cache.make () in
  let entry, _ = Serve.Plane_cache.find_or_compile cache db in
  let fp = entry.Serve.Plane_cache.fingerprint in
  let before = Gc.minor_words () in
  let found = Serve.Plane_cache.find cache fp in
  let words = Gc.minor_words () -. before in
  checkb "the lookup hits" true (found <> None);
  if words >= 1000.0 then
    Alcotest.failf "a hit allocated %.0f minor words (bound 1000)" words

(* A key handed to [replace] that the entry's own fields do not produce is
   filed, but never answers: the next [find] under it evicts the entry as
   stale. *)
let test_plane_cache_replace_wrong_key () =
  let cache = Serve.Plane_cache.make () in
  let d1 = db_of_text "R(1 | 2)" in
  let d2 = db_of_text "R(9 | 9)" in
  let entry, _ = Serve.Plane_cache.find_or_compile cache d1 in
  let wrong = Serve.Plane_cache.fingerprint d2 in
  Serve.Plane_cache.replace cache
    ~old_fingerprint:entry.Serve.Plane_cache.fingerprint
    { entry with Serve.Plane_cache.fingerprint = wrong };
  let before = Serve.Plane_cache.stats cache in
  checkb "wrong key never answers" true
    (Serve.Plane_cache.find cache wrong = None);
  let after = Serve.Plane_cache.stats cache in
  checki "one stale eviction" (before.Serve.Plane_cache.stale + 1)
    after.Serve.Plane_cache.stale;
  checki "counted as an eviction" (before.Serve.Plane_cache.evictions + 1)
    after.Serve.Plane_cache.evictions;
  checki "the slot is gone" 0 after.Serve.Plane_cache.entries

(* Regression: [inject] must enforce capacity like every other insertion
   path. The pre-fix bypass grew the table without bound, so a test (or any
   future caller) planting entries could silently defeat the LRU bound. *)
let test_plane_cache_inject_capacity () =
  let cache = Serve.Plane_cache.make ~capacity:2 () in
  let d1 = db_of_text "R(1 | 1)" in
  let d2 = db_of_text "R(2 | 2)" in
  let d3 = db_of_text "R(3 | 3)" in
  let entry_of db = fst (Serve.Plane_cache.find_or_compile cache db) in
  let e1 = entry_of d1 in
  let _ = entry_of d2 in
  checki "full before inject" 2
    (Serve.Plane_cache.stats cache).Serve.Plane_cache.entries;
  (* A new key into a full cache evicts the LRU victim first. *)
  Serve.Plane_cache.inject cache
    ~fingerprint:(Serve.Plane_cache.fingerprint d3)
    e1;
  let stats = Serve.Plane_cache.stats cache in
  checki "inject respects capacity" 2 stats.Serve.Plane_cache.entries;
  checki "inject evicted the LRU victim" 1 stats.Serve.Plane_cache.evictions;
  (* Re-injecting an existing key replaces in place — no growth, no
     eviction. *)
  Serve.Plane_cache.inject cache
    ~fingerprint:(Serve.Plane_cache.fingerprint d3)
    e1;
  let stats = Serve.Plane_cache.stats cache in
  checki "re-inject does not grow" 2 stats.Serve.Plane_cache.entries;
  checki "re-inject does not evict" 1 stats.Serve.Plane_cache.evictions

(* Regression: the pre-fix fingerprint digested schemas joined with [';']
   and facts rendered with [Fact.to_string] joined with ['\n'] — but
   [Value.pp] prints string values raw, so a string containing the
   rendering of a fact boundary made two different databases hash to the
   same key, and the cache would serve one database's plane for the other.
   The length-prefixed scheme keys them apart. *)
let test_fingerprint_unambiguous () =
  let schema =
    Relational.Schema.make ~name:"R" ~arity:1 ~key_len:1
  in
  (* One fact whose string value embeds ")\nR(" versus the two facts that
     rendering splits into. *)
  let one_fact =
    Relational.Database.of_facts [ schema ]
      [ Relational.Fact.make "R" [ Relational.Value.Str "x)\nR(y" ] ]
  in
  let two_facts =
    Relational.Database.of_facts [ schema ]
      [
        Relational.Fact.make "R" [ Relational.Value.Str "x" ];
        Relational.Fact.make "R" [ Relational.Value.Str "y" ];
      ]
  in
  (* The pair is a genuine collision witness for the old scheme: the raw
     line renderings are byte-identical. *)
  let old_rendering db =
    String.concat "\n"
      (List.map Relational.Fact.to_string (Relational.Database.facts db))
  in
  checks "the pair collides under the raw rendering"
    (old_rendering one_fact) (old_rendering two_facts);
  checkb "the databases really differ" false
    (Relational.Database.equal one_fact two_facts);
  checkb "length-prefixed fingerprints differ" false
    (String.equal
       (Serve.Plane_cache.fingerprint one_fact)
       (Serve.Plane_cache.fingerprint two_facts));
  (* And the rolling algebra agrees with the from-scratch computation: the
     update path's re-key is the same key a cold [load] would compute. *)
  let f = Relational.Fact.make "R" [ Relational.Value.Str "z" ] in
  let grown = Relational.Database.add two_facts f in
  let acc, _ = Serve.Plane_cache.Fingerprint.of_db two_facts in
  let rolled =
    Serve.Plane_cache.Fingerprint.finish grown
      ~facts_xor:
        (Serve.Plane_cache.Fingerprint.xor acc
           (Serve.Plane_cache.Fingerprint.fact_digest f))
  in
  checks "rolled key = from-scratch key" (Serve.Plane_cache.fingerprint grown)
    rolled

(* The fingerprint renderer that rendered in place replaced, kept as the
   oracle: a fresh [Buffer] and a [to_token] string per cell, frame
   lengths through [string_of_int]. The digest input must stay
   byte-identical. *)
module Fingerprint_oracle = struct
  module Value = Relational.Value

  let to_token v =
    let buf = Buffer.create 16 in
    let escape c = Buffer.add_string buf (Printf.sprintf "'%02X" (Char.code c)) in
    let add_str s =
      let all_digits = s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s in
      String.iteri
        (fun i c ->
          let plain =
            (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'
          in
          if plain && not (all_digits && i = 0) then Buffer.add_char buf c else escape c)
        s
    in
    let rec go = function
      | Value.Int n -> Buffer.add_string buf (string_of_int n)
      | Value.Str s -> add_str s
      | Value.Pair (a, b) ->
          Buffer.add_char buf '<';
          go a;
          Buffer.add_char buf '-';
          go b;
          Buffer.add_char buf '>'
    in
    go v;
    Buffer.contents buf

  let frame buf s =
    Buffer.add_string buf (string_of_int (String.length s));
    Buffer.add_char buf ':';
    Buffer.add_string buf s

  let fact_digest (f : Relational.Fact.t) =
    let buf = Buffer.create 64 in
    frame buf f.Relational.Fact.rel;
    Array.iter (fun v -> frame buf (to_token v)) f.Relational.Fact.tuple;
    Digest.string (Buffer.contents buf)

  let xor a b = String.init (String.length a) (fun i -> Char.chr (Char.code a.[i] lxor Char.code b.[i]))

  let of_db db =
    let acc =
      List.fold_left
        (fun acc f -> xor acc (fact_digest f))
        (String.make 16 '\000')
        (Relational.Database.facts db)
    in
    let buf = Buffer.create 256 in
    List.iter
      (fun (s : Relational.Schema.t) ->
        frame buf s.Relational.Schema.name;
        frame buf (string_of_int s.Relational.Schema.arity);
        frame buf (string_of_int s.Relational.Schema.key_len))
      (Relational.Database.schemas db);
    Buffer.add_string buf acc;
    frame buf (string_of_int (Relational.Database.size db));
    (acc, Digest.to_hex (Digest.string (Buffer.contents buf)))
end

let test_fingerprint_oracle () =
  let module V = Relational.Value in
  let module F = Serve.Plane_cache.Fingerprint in
  let values =
    [
      V.Int 0; V.Int 7; V.Int 10; V.Int (-1); V.Int (-42); V.Int min_int; V.Int max_int;
      V.Str ""; V.Str "0"; V.Str "007"; V.Str "123"; V.Str "a"; V.Str "A_z9"; V.Str "a b";
      V.Str "x)\nR(y"; V.Str "'"; V.Str "\xc3\xa9"; V.Str "-<>"; V.Pair (V.Int 0, V.Str "0");
      V.Pair (V.Pair (V.Int (-1), V.Str "x y"), V.Int max_int);
      V.triple (V.Str "C") (V.Int 12) (V.Pair (V.Str "", V.Int min_int));
    ]
  in
  List.iter
    (fun v -> checks "token" (Fingerprint_oracle.to_token v) (V.to_token v))
    values;
  let values = Array.of_list values and rng = Random.State.make [| 29 |] in
  let value () = values.(Random.State.int rng (Array.length values)) in
  List.iter
    (fun (name, arity, key_len) ->
      let schema = Relational.Schema.make ~name ~arity ~key_len in
      for size = 0 to 12 do
        let facts =
          List.init size (fun _ -> Relational.Fact.of_array name (Array.init arity (fun _ -> value ())))
        in
        let db = Relational.Database.of_facts [ schema ] facts in
        List.iter
          (fun f -> checks "fact digest" (Fingerprint_oracle.fact_digest f) (F.fact_digest f))
          facts;
        let acc, key = F.of_db db in
        let oracle_acc, oracle_key = Fingerprint_oracle.of_db db in
        checks "accumulator" oracle_acc acc;
        checks "key" oracle_key key;
        checks "facts_xor is the fold of xor over fact_digest"
          (List.fold_left
             (fun acc f -> F.xor acc (F.fact_digest f))
             F.empty (Relational.Database.facts db))
          (F.facts_xor db)
      done)
    [ ("R", 1, 1); ("R", 2, 1); ("S_2", 3, 2); ("T", 3, 0) ]

(* The 300-fact q3 database bench/main.ml's E24 measures as inline-300,
   as the daemon receives it. *)
let inline_300 () =
  let db =
    Workload.Randdb.random_for_query (Random.State.make [| 42; 300 |]) Workload.Catalog.q3
      ~n_facts:300 ~domain:300
  in
  String.concat "\n"
    (List.map
       (fun f ->
         Format.asprintf "%a"
           (Relational.Fact.pp_with_key (Relational.Database.schema_of db f))
           f)
       (Relational.Database.facts db))

let minor_words f =
  ignore (Sys.opaque_identity (f ()));
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

(* Before ingest and the fingerprint did per-fact work, ingesting that
   text took 144,202 minor words (a token list per line, a tree insert
   per fact) and fingerprinting it 31,286 (a buffer and a string per
   cell). *)
let test_miss_path_allocation () =
  let text = inline_300 () in
  let db = Result.get_ok (Serve.Ingest.database text) in
  let ingest = minor_words (fun () -> Serve.Ingest.database text) in
  if ingest >= 144_202. /. 2. then
    Alcotest.failf "ingesting 300 facts allocated %.0f minor words" ingest;
  let fingerprint = minor_words (fun () -> Serve.Plane_cache.Fingerprint.of_db db) in
  if fingerprint >= 31_286. /. 4. then
    Alcotest.failf "fingerprinting 300 facts allocated %.0f minor words" fingerprint

(* ------------------------------------------------------------------ *)
(* Retry *)

let test_retry () =
  let calls = ref 0 and slept = ref [] in
  let { Harness.Retry.result; retries } =
    Harness.Retry.run ~max_attempts:3 ~backoff_s:0.1
      ~sleep:(fun s -> slept := s :: !slept)
      ~retryable:Harness.Retry.transient
      (fun () ->
        incr calls;
        if !calls < 3 then raise (Chaos.Injected_fault "x") else 42)
  in
  checkb "succeeded" true (result = Ok 42);
  checki "two retries" 2 retries;
  checkb "exponential backoff" true (List.rev !slept = [ 0.1; 0.2 ]);
  (* Non-retryable exceptions end the attempts immediately. *)
  let calls = ref 0 in
  let { Harness.Retry.result; retries } =
    Harness.Retry.run ~max_attempts:5 ~retryable:Harness.Retry.transient
      (fun () ->
        incr calls;
        failwith "deterministic")
  in
  checkb "failed" true (match result with Error (Failure _) -> true | _ -> false);
  checki "no retries on deterministic failure" 0 retries;
  checki "one call" 1 !calls;
  (* Budgets are sticky, so Budget_exceeded is never transient. *)
  checkb "budget not transient" false
    (Harness.Retry.transient (Budget.Budget_exceeded Budget.Steps));
  checkb "pressure not transient" false
    (Harness.Retry.transient (Budget.Budget_exceeded (Budget.Pressure "s")));
  checkb "fault transient" true
    (Harness.Retry.transient (Chaos.Injected_fault "s"))

(* ------------------------------------------------------------------ *)
(* Daemon: response contract helpers *)

let field name j =
  match Json.member name j with
  | Some v -> v
  | None -> Alcotest.failf "response lacks field %s" name

let str_field name j =
  match field name j with
  | Json.String s -> s
  | _ -> Alcotest.failf "field %s is not a string" name

let int_field name j =
  match field name j with
  | Json.Int n -> n
  | _ -> Alcotest.failf "field %s is not an int" name

(* A conformant response: a JSON object whose code is a known code, whose
   exit and status agree with the code's contract mapping, echoing op. *)
let check_conformant line =
  let j =
    match Json.of_string (String.trim line) with
    | Ok (Json.Obj _ as j) -> j
    | Ok _ -> Alcotest.fail "response is not a JSON object"
    | Error msg -> Alcotest.failf "response is not JSON: %s" msg
  in
  let code_name = str_field "code" j in
  let code =
    match
      List.find_opt (fun c -> Protocol.code_name c = code_name) all_codes
    with
    | Some c -> c
    | None -> Alcotest.failf "unknown response code %s" code_name
  in
  checki ("exit for " ^ code_name) (Protocol.exit_of_code code)
    (int_field "exit" j);
  checks ("status for " ^ code_name) (Protocol.status_of_code code)
    (str_field "status" j);
  ignore (str_field "op" j);
  (code, j)

let handle d line =
  match Serve.Daemon.handle_line d line with
  | Some frame -> check_conformant frame
  | None -> Alcotest.fail "non-blank frame got no response"

let expect_code d name expected line =
  let code, _ = handle d line in
  checks name (Protocol.code_name expected) (Protocol.code_name code)

let base_config =
  { Serve.Daemon.default_config with Serve.Daemon.backoff_s = 0.0 }

(* ------------------------------------------------------------------ *)
(* Daemon: pipeline smoke (classify → load → certain → stats) *)

let test_daemon_smoke () =
  let d = Serve.Daemon.create base_config in
  let code, j = handle d {|{"op": "classify", "query": "R(x | y) R(y | x)"}|} in
  checks "classify ok" "ok" (Protocol.code_name code);
  checks "ptime class" "ptime" (str_field "class" j);
  checks "fast tier" "fast" (str_field "tier" j);
  expect_code d "load" Protocol.Ok_code
    {|{"op": "load", "name": "db1", "facts": "R(1 | 2)\nR(1 | 3)\nR(2 | 2)"}|};
  let code, j =
    handle d {|{"op": "certain", "query": "R(x | y) R(y | x)", "db": "db1", "explain": true}|}
  in
  checks "certain ok" "ok" (Protocol.code_name code);
  checkb "answer true" true (field "answer" j = Json.Bool true);
  checks "plane cache hit" "hit" (str_field "cache" j);
  checkb "explain lists attempts" true
    (match field "attempts" j with Json.List (_ :: _) -> true | _ -> false);
  let code, j =
    handle d {|{"op": "certain", "query": "R(x | y) R(y | x)", "facts": "R(9 | 1)\nR(9 | 2)"}|}
  in
  checks "not certain" "not-certain" (Protocol.code_name code);
  checkb "answer false" true (field "answer" j = Json.Bool false);
  let code, j = handle d {|{"op": "stats"}|} in
  checks "stats ok" "ok" (Protocol.code_name code);
  checkb "stats counts requests" true (int_field "requests" j >= 5);
  (match field "counters" j with
  | Json.Obj counters ->
      checkb "per-request tick counters merged" true
        (List.mem_assoc "budget.tick.serve" counters)
  | _ -> Alcotest.fail "stats lacks counters");
  (* Error paths, all structured, loop alive after each. *)
  expect_code d "unknown db" Protocol.Unknown_db
    {|{"op": "certain", "query": "R(x | y) R(y | x)", "db": "nope"}|};
  expect_code d "bad query" Protocol.Bad_query
    {|{"op": "certain", "query": "R(", "facts": "R(1 | 2)"}|};
  expect_code d "bad db" Protocol.Bad_db
    {|{"op": "certain", "query": "R(x | y) R(y | x)", "facts": "gibberish"}|};
  expect_code d "bad frame" Protocol.Bad_frame "gibberish";
  checkb "blank frames are skipped" true (Serve.Daemon.handle_line d "" = None);
  expect_code d "still alive" Protocol.Ok_code {|{"op": "ping"}|}

(* A query's first classification runs under the fast tier's deadline:
   this query's two tripath searches run 120 nodes, past the deadline's
   clock poll at node 64, so a zero deadline stops them. The request
   answers [timeout], caches no report (the next request searches again)
   and leaves the loop alive; the default deadline classifies it. *)
let test_daemon_classify_deadline () =
  let query = "R(v0 v1 | v2 v1) R(v2 v1 | v3 v0)" in
  let classify = Printf.sprintf {|{"op": "classify", "query": "%s"}|} query in
  let d =
    Serve.Daemon.create { base_config with Serve.Daemon.fast_timeout = Some 0. }
  in
  let code, j = handle d classify in
  checks "classify past the deadline" "timeout" (Protocol.code_name code);
  checki "exit 124" 124 (int_field "exit" j);
  expect_code d "nothing cached" Protocol.Timeout classify;
  expect_code d "certain classifies under the deadline" Protocol.Timeout
    (Printf.sprintf {|{"op": "certain", "query": "%s", "facts": "R(1 2 | 3 4)"}|} query);
  expect_code d "still alive" Protocol.Ok_code {|{"op": "ping"}|};
  let code, j = handle (Serve.Daemon.create base_config) classify in
  checks "default deadline classifies" "ok" (Protocol.code_name code);
  checks "no tripath" "PTIME (Theorem 9: no tripath, Cert_k exact)"
    (str_field "verdict" j)

let test_daemon_limits () =
  let d =
    Serve.Daemon.create
      { base_config with Serve.Daemon.max_frame_bytes = 128; max_facts = 2 }
  in
  expect_code d "oversized frame" Protocol.Bad_frame
    (Printf.sprintf {|{"op": "ping", "pad": "%s"}|} (String.make 200 'x'));
  expect_code d "oversized db" Protocol.Db_too_large
    {|{"op": "load", "name": "big", "facts": "R(1 | 2)\nR(2 | 3)\nR(3 | 4)"}|};
  expect_code d "still alive" Protocol.Ok_code {|{"op": "ping"}|}

(* The q2 fork-hard query is coNP-tier: with a starved admission bucket the
   daemon downgrades it to an estimate, then sheds — never queues. *)
let test_daemon_degradation () =
  let now = ref 0.0 in
  let d =
    Serve.Daemon.create
      ~clock:(fun () -> !now)
      {
        base_config with
        Serve.Daemon.admission =
          {
            Serve.Admission.capacity = 1.5;
            refill_per_s = 0.0;
            heavy_cost = 1.0;
            fast_cost = 0.01;
            estimate_cost = 0.25;
          };
      }
  in
  let q2 = "R(x u | x y) R(u y | x z)" in
  let req =
    Printf.sprintf
      {|{"op": "certain", "query": "%s", "facts": "R(1 2 | 1 3)\nR(2 3 | 1 4)", "trials": 20}|}
      q2
  in
  let code, _ = handle d req in
  checkb "first heavy request admitted" true
    (List.mem code [ Protocol.Ok_code; Protocol.Not_certain ]);
  let code, j = handle d req in
  checks "second downgraded" "degraded-estimate" (Protocol.code_name code);
  checkb "downgrade labelled" true (field "downgraded" j = Json.Bool true);
  checki "trials honoured" 20 (int_field "trials" j);
  (* Two more downgrades drain the bucket below the estimate cost. *)
  ignore (handle d req);
  ignore (handle d req);
  let code, _ = handle d req in
  checks "then shed" "overloaded" (Protocol.code_name code);
  (* Fast requests still go through while heavy traffic is shed. *)
  expect_code d "fast unaffected" Protocol.Ok_code
    {|{"op": "certain", "query": "R(x | y) R(y | x)", "facts": "R(1 | 1)"}|}

let test_daemon_fault_and_pressure () =
  (* Certain faults at the serve site survive retries → fault-injected,
     with the site label carried through. *)
  let d =
    Serve.Daemon.create
      {
        base_config with
        Serve.Daemon.retries = 1;
        chaos =
          Some
            {
              Serve.Daemon.fail_p = 1.0;
              delay_p = 0.0;
              delay_s = 0.0;
              pressure_p = 0.0;
              chaos_seed = 1;
              sites = [ Harness.Sites.serve ];
            };
      }
  in
  let code, j =
    handle d {|{"op": "certain", "query": "R(x | y) R(y | x)", "facts": "R(1 | 2)"}|}
  in
  checks "fault surfaces after retries" "fault-injected"
    (Protocol.code_name code);
  checks "site label carried" "serve" (str_field "site" j);
  expect_code d "loop alive" Protocol.Ok_code {|{"op": "ping"}|};
  (* Injected pressure at the compile site exhausts the budget; the solver
     chain falls back to the estimate tier → an explicit degraded answer. *)
  let d =
    Serve.Daemon.create
      {
        base_config with
        Serve.Daemon.retries = 0;
        chaos =
          Some
            {
              Serve.Daemon.fail_p = 0.0;
              delay_p = 0.0;
              delay_s = 0.0;
              pressure_p = 1.0;
              chaos_seed = 1;
              sites = [ Harness.Sites.compile ];
            };
      }
  in
  let code, j =
    handle d
      {|{"op": "certain", "query": "R(x | y) R(y | x)", "facts": "R(1 | 2)\nR(1 | 3)", "trials": 10}|}
  in
  checkb "pressure degrades, never crashes" true
    (List.mem code [ Protocol.Degraded_estimate; Protocol.Budget_exhausted ]);
  (match code with
  | Protocol.Degraded_estimate ->
      checks "degraded for budget reasons" "budget" (str_field "reason" j)
  | _ -> ());
  expect_code d "loop alive" Protocol.Ok_code {|{"op": "ping"}|}

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_daemon_analyze () =
  let d = Serve.Daemon.create base_config in
  (* Info-only diagnostics keep code ok (exit 0). *)
  let code, j = handle d {|{"op": "analyze", "query": "R(x | y) R(y | x)"}|} in
  checks "clean analyze ok" "ok" (Protocol.code_name code);
  checki "versioned document" Analysis.Encode.diagnostics_schema_version
    (int_field "schema_version" j);
  checks "document kind" "diagnostics" (str_field "kind" j);
  checks "info only" "info" (str_field "max_severity" j);
  (* Warnings flip the code to diagnostics (exit 1), same as `cqa analyze`. *)
  let code, _ = handle d {|{"op": "analyze", "query": "R(x | y) R(x | y)"}|} in
  checks "warnings are diagnostics" "diagnostics" (Protocol.code_name code);
  (* With an instance the database-aware lints run too: a consistent
     database triggers the QL010 warning. *)
  let code, j =
    handle d
      {|{"op": "analyze", "query": "R(x | y) R(y | x)", "facts": "R(1 | 2)"}|}
  in
  checks "db-aware analyze" "diagnostics" (Protocol.code_name code);
  checkb "QL010 reported" true
    (match field "diagnostics" j with
    | Json.List ds ->
        List.exists
          (fun d ->
            match Json.member "code" d with
            | Some (Json.String "QL010") -> true
            | _ -> false)
          ds
    | _ -> false);
  (* A query that does not parse is the QL000 error diagnostic (exit 1),
     as `cqa analyze` and the lint op report it, with or without an
     instance. *)
  let code, j = handle d {|{"op": "analyze", "query": "R("}|} in
  checks "analyze bad query" "diagnostics" (Protocol.code_name code);
  checkb "QL000 reported" true
    (match field "diagnostics" j with
    | Json.List ds ->
        List.exists
          (fun d -> Json.member "code" d = Some (Json.String "QL000"))
          ds
    | _ -> false);
  expect_code d "analyze bad query with an instance" Protocol.Diagnostics
    {|{"op": "analyze", "query": "R(", "facts": "R(1 | 2)"}|};
  (* Database ingestion failures keep their own codes (exit 2). *)
  expect_code d "analyze bad db" Protocol.Bad_db
    {|{"op": "analyze", "query": "R(x | y) R(y | x)", "facts": "gibberish"}|};
  expect_code d "analyze unknown db" Protocol.Unknown_db
    {|{"op": "analyze", "query": "R(x | y) R(y | x)", "db": "nope"}|}

(* End-to-end plane corruption: with the chaos hook installed, sanitize-on-
   insert refuses every freshly compiled plane, the client sees the stable
   corrupt-plane code, nothing is cached, and the loop survives. *)
let test_daemon_corrupt_plane () =
  Relational.Compiled.set_test_corruption
    (Some Relational.Compiled.Unsafe.corrupt_first_cell_out_of_domain);
  Fun.protect
    ~finally:(fun () -> Relational.Compiled.set_test_corruption None)
  @@ fun () ->
  let d = Serve.Daemon.create base_config in
  let req =
    {|{"op": "certain", "query": "R(x | y) R(y | x)", "facts": "R(1 | 2)"}|}
  in
  let code, j = handle d req in
  checks "corrupt plane surfaces" "corrupt-plane" (Protocol.code_name code);
  checkb "error names the PL code" true
    (match field "error" j with
    | Json.String s -> contains ~sub:"PL103" s
    | _ -> false);
  expect_code d "loop alive" Protocol.Ok_code {|{"op": "ping"}|};
  let _, j = handle d {|{"op": "stats"}|} in
  (match field "planes" j with
  | Json.Obj fields ->
      checkb "rejections counted in stats" true
        (match List.assoc_opt "rejected" fields with
        | Some (Json.Int n) -> n >= 1
        | _ -> false)
  | _ -> Alcotest.fail "stats lacks a planes object");
  (* The --no-sanitize escape hatch: without the gate the corrupt plane is
     admitted and served (a wrong-but-quiet answer, never corrupt-plane). *)
  let d2 =
    Serve.Daemon.create { base_config with Serve.Daemon.sanitize = false }
  in
  let code, _ = handle d2 req in
  checkb "unsanitized daemon admits the corrupt plane" true
    (List.mem code [ Protocol.Ok_code; Protocol.Not_certain ])

(* The update op end-to-end: a patched plane answers subsequent queries (the
   answer actually flips when the witness fact is retracted), the rolling
   fingerprint is stable under retract-then-reinsert, an evicted entry falls
   back to recompiling, and every error path is structured. *)
let test_daemon_update () =
  (* A generous virtual clock keeps the admission bucket full: this test is
     about the update path, not shedding. *)
  let now = ref 0.0 in
  let clock () =
    now := !now +. 1.0;
    !now
  in
  let d = Serve.Daemon.create ~clock base_config in
  expect_code d "load" Protocol.Ok_code
    {|{"op": "load", "name": "db1", "facts": "R(1 | 2)\nR(1 | 3)\nR(2 | 2)"}|};
  let certain () =
    let code, j =
      handle d {|{"op": "certain", "query": "R(x | y) R(y | x)", "db": "db1"}|}
    in
    (Protocol.code_name code, str_field "cache" j)
  in
  checks "baseline is certain" "ok" (fst (certain ()));
  (* Retract the reflexive fact — the only repair-independent witness, so
     the answer must flip if the patched plane is really what gets served. *)
  let code, j =
    handle d {|{"op": "update", "db": "db1", "retract": "R(2 | 2)"}|}
  in
  checks "update ok" "ok" (Protocol.code_name code);
  checks "cache patched" "patched" (str_field "cache" j);
  checki "one retraction" 1 (int_field "retracted" j);
  checki "no insertions" 0 (int_field "inserted" j);
  checki "two facts left" 2 (int_field "facts" j);
  let fp_without = str_field "fingerprint" j in
  let answer, cache = certain () in
  checks "patched plane flips the answer" "not-certain" answer;
  checks "patched plane serves from cache" "hit" cache;
  (* Reinsert, retract again: the rolling fingerprint must return to the
     same key both times — the XOR accumulator is self-inverse. *)
  let _, j =
    handle d {|{"op": "update", "db": "db1", "insert": "R(2 | 2)"}|}
  in
  checkb "reinsert re-keys" false (str_field "fingerprint" j = fp_without);
  checks "reinsert restores the answer" "ok" (fst (certain ()));
  let _, j =
    handle d {|{"op": "update", "db": "db1", "retract": "R(2 | 2)"}|}
  in
  checks "rolling key is stable" fp_without (str_field "fingerprint" j);
  (* A net no-op delta (retracting an absent fact) patches nothing. *)
  let code, j =
    handle d {|{"op": "update", "db": "db1", "retract": "R(7 | 7)"}|}
  in
  checks "no-op update ok" "ok" (Protocol.code_name code);
  checki "no-op retracts nothing" 0 (int_field "retracted" j);
  checks "no-op keeps the key" fp_without (str_field "fingerprint" j);
  checkb "patched planes counted" true
    (Obs.Metrics.counter_value (Serve.Daemon.metrics d) "serve.plane.patched"
    >= 3);
  (* Error paths, loop alive after each. *)
  expect_code d "unknown db" Protocol.Unknown_db
    {|{"op": "update", "db": "nope", "insert": "R(1 | 1)"}|};
  expect_code d "malformed facts" Protocol.Bad_db
    {|{"op": "update", "db": "db1", "insert": "gibberish"}|};
  expect_code d "key-marker mismatch" Protocol.Bad_db
    {|{"op": "update", "db": "db1", "insert": "R(1 2 |)"}|};
  expect_code d "empty delta" Protocol.Bad_request
    {|{"op": "update", "db": "db1"}|};
  expect_code d "still alive" Protocol.Ok_code {|{"op": "ping"}|};
  (* Eviction fallback: with a one-plane cache, loading a second database
     evicts the first plane; updating the first name then recompiles from
     the updated database instead of patching. *)
  let d =
    Serve.Daemon.create ~clock
      { base_config with Serve.Daemon.plane_capacity = 1 }
  in
  expect_code d "load a" Protocol.Ok_code
    {|{"op": "load", "name": "a", "facts": "R(1 | 2)"}|};
  expect_code d "load b" Protocol.Ok_code
    {|{"op": "load", "name": "b", "facts": "R(5 | 6)"}|};
  let code, j = handle d {|{"op": "update", "db": "a", "insert": "R(9 | 9)"}|} in
  checks "evicted update ok" "ok" (Protocol.code_name code);
  checks "evicted entry recompiles" "recompiled" (str_field "cache" j);
  checki "recompiled facts" 2 (int_field "facts" j)

(* Schema lines then one [Fact.to_string] per line: the text round-trips
   through [Serve.Ingest]. *)
let db_source db =
  String.concat "\n"
    (List.map
       (fun (s : Relational.Schema.t) ->
         Printf.sprintf "%s[%d,%d]" s.Relational.Schema.name
           s.Relational.Schema.arity s.Relational.Schema.key_len)
       (Relational.Database.schemas db)
    @ List.map Relational.Fact.to_string (Relational.Database.facts db))

(* The law the plane cache's O(relations) lookup check trusts: the key the
   daemon's [update] rolls from the cached accumulator equals the
   from-scratch fingerprint of the updated database, and the entry filed
   under it answers the next named read from the cache. Sixty fixed-seed
   cases over q3/q5/q6, each a random database and a random delta trace
   with redundant ops (inserting a present fact, retracting an absent one)
   mixed in. *)
let test_daemon_rolled_key () =
  let now = ref 0.0 in
  let clock () =
    now := !now +. 1.0;
    !now
  in
  let d = Serve.Daemon.create ~clock base_config in
  let frame fields = Json.to_string (Json.Obj fields) in
  let queries =
    Workload.Catalog.[ ("q3", q3); ("q5", q5); ("q6", q6) ]
  in
  for case = 0 to 59 do
    let name, q = List.nth queries (case mod 3) in
    let label = Printf.sprintf "case %d (%s)" case name in
    let rng = Random.State.make [| 15; case |] in
    let n = 10 + Random.State.int rng 51 in
    let domain = max 2 (n / 4) in
    let db = Workload.Randdb.random_for_query rng q ~n_facts:n ~domain in
    let ops =
      Workload.Randdb.random_delta rng q db ~domain
        ~len:(1 + Random.State.int rng 8)
    in
    (* The daemon applies an update's inserts, then its retracts. *)
    let inserts, retracts =
      List.partition_map
        (function
          | Relational.Delta.Insert f -> Either.Left f
          | Relational.Delta.Retract f -> Either.Right f)
        ops
    in
    let delta =
      List.map (fun f -> Relational.Delta.Insert f) inserts
      @ List.map (fun f -> Relational.Delta.Retract f) retracts
    in
    let facts_field key = function
      | [] -> []
      | fs ->
          [
            ( key,
              Json.String
                (String.concat "\n" (List.map Relational.Fact.to_string fs)) );
          ]
    in
    expect_code d (label ^ ": load") Protocol.Ok_code
      (frame
         [
           ("op", Json.String "load");
           ("name", Json.String "db");
           ("facts", Json.String (db_source db));
         ]);
    let code, j =
      handle d
        (frame
           ([ ("op", Json.String "update"); ("db", Json.String "db") ]
           @ facts_field "insert" inserts
           @ facts_field "retract" retracts))
    in
    checks (label ^ ": update ok") "ok" (Protocol.code_name code);
    checks (label ^ ": entry patched") "patched" (str_field "cache" j);
    checks (label ^ ": rolled key = from-scratch key")
      (Serve.Plane_cache.fingerprint (Relational.Delta.apply db delta))
      (str_field "fingerprint" j);
    let _, j =
      handle d
        (frame
           [
             ("op", Json.String "certain");
             ("query", Json.String (Qlang.Query.to_string q));
             ("db", Json.String "db");
           ])
    in
    checks (label ^ ": next named read hits") "hit" (str_field "cache" j)
  done

let test_request_isolation () =
  (* Each request adds exactly its own counters to the daemon's registry,
     and the registry totals both. *)
  let d = Serve.Daemon.create base_config in
  ignore (handle d {|{"op": "certain", "query": "R(x | y) R(y | x)", "facts": "R(1 | 1)"}|});
  let m = Serve.Daemon.metrics d in
  let ticks = Obs.Metrics.counter_value m "budget.tick.serve" in
  checki "one serve tick merged" 1 ticks;
  ignore (handle d {|{"op": "certain", "query": "R(x | y) R(y | x)", "facts": "R(1 | 1)"}|});
  checki "second request adds its own" 2
    (Obs.Metrics.counter_value m "budget.tick.serve");
  checki "responses counted by code" 2
    (Obs.Metrics.counter_value m "serve.response.ok")

(* Every attempt ticks the serve site once, a faulted one included, and
   each attempt's ticks reach the registry whether it returned or raised:
   so after [n] requests the serve tick counter reads [n] plus the
   retries. *)
let test_daemon_attempt_ticks () =
  let d =
    Serve.Daemon.create
      ~sleep:(fun _ -> ())
      {
        base_config with
        Serve.Daemon.retries = 2;
        chaos =
          Some
            {
              Serve.Daemon.fail_p = 0.3;
              delay_p = 0.0;
              delay_s = 0.0;
              pressure_p = 0.0;
              chaos_seed = 7;
              sites = [ Harness.Sites.serve ];
            };
      }
  in
  for _ = 1 to 200 do
    ignore (handle d {|{"op": "classify", "query": "R(x | y) R(y | x)"}|})
  done;
  let m = Serve.Daemon.metrics d in
  let retries = Obs.Metrics.counter_value m "serve.retry" in
  checkb "chaos forced retries" true (retries > 0);
  checkb "some requests failed every attempt" true
    (Obs.Metrics.counter_value m "serve.response.fault-injected" > 0);
  checki "one serve tick per attempt" (200 + retries)
    (Obs.Metrics.counter_value m "budget.tick.serve")

(* The lint op keeps `cqa lint`'s exit contract, as analyze does: a warning
   or an error is code diagnostics (exit 1), infos alone are ok. *)
let test_daemon_lint () =
  let d = Serve.Daemon.create base_config in
  let lint query =
    handle d
      (Json.to_string
         (Json.Obj [ ("op", Json.String "lint"); ("query", Json.String query) ]))
  in
  let code, j = lint "R(x | y) R(y | x)" in
  checks "info-only lint ok" "ok" (Protocol.code_name code);
  checks "info only" "info" (str_field "max_severity" j);
  let code, j = lint "R(x u | x y) R(u y | x z)" in
  checks "a warning is diagnostics" "diagnostics" (Protocol.code_name code);
  checks "warning" "warning" (str_field "max_severity" j);
  let code, j = lint "R(x | y" in
  checks "an error is diagnostics" "diagnostics" (Protocol.code_name code);
  checks "error" "error" (str_field "max_severity" j);
  expect_code d "analyze agrees" Protocol.Diagnostics
    {|{"op": "analyze", "query": "R(x u | x y) R(u y | x z)"}|}

(* Drive a daemon journaling to a temporary file with [run], then hand
   [check] what [run] returned and the journal's [request.completed]
   events. *)
let with_completions run check =
  let path = Filename.temp_file "cqa-serve-journal" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let journal =
        Obs.Journal.create ~render:Analysis.Obs_codec.event_to_string path
      in
      let d = Serve.Daemon.create ~journal base_config in
      let result = run d in
      Obs.Journal.close journal;
      In_channel.with_open_text path In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter (fun l -> l <> "")
      |> List.filter_map (fun l ->
             match Analysis.Obs_codec.event_of_string l with
             | Ok ev when ev.Obs.Journal.kind = "request.completed" -> Some ev
             | Ok _ -> None
             | Error msg -> Alcotest.failf "bad journal line: %s" msg)
      |> check result)

let test_daemon_latency () =
  (* A served answer on a small database takes well under a millisecond;
     the daemon's clock must still see every request, in the journal and in
     the stats latency summary. *)
  let certain =
    {|{"op": "certain", "query": "R(x | y) R(y | z)", "facts": "R(1 | 2)\nR(2 | 2)\nR(2 | 3)"}|}
  in
  with_completions
    (fun d ->
      for _ = 1 to 20 do
        expect_code d "certain" Protocol.Ok_code certain
      done;
      snd (handle d {|{"op": "stats"}|}))
    (fun j completed ->
      (match Json.member "fast" (field "latency" j) with
      | Some fast -> (
          match Json.member "mean_ms" fast with
          | Some (Json.Float ms) ->
              checkb "stats latency.fast.mean_ms > 0" true (ms > 0.)
          | _ -> Alcotest.fail "latency.fast lacks a float mean_ms")
      | None -> Alcotest.fail "stats lacks latency.fast");
      checki "one completion per request" 21 (List.length completed);
      List.iter
        (fun (ev : Obs.Journal.event) ->
          match List.assoc_opt "ms" ev.Obs.Journal.fields with
          | Some (Obs.Trace.Float ms) ->
              checkb
                (Printf.sprintf "request.completed #%d reads ms > 0"
                   ev.Obs.Journal.seq)
                true (ms > 0.)
          | _ -> Alcotest.fail "request.completed lacks a float ms")
        completed)

(* A completion's [steps] is the request's whole budget, and its
   [steps.<site>] fields split it: the serve tick and a plane compile on a
   cache miss, which run before the chain, count too. *)
let test_daemon_completion_steps () =
  with_completions
    (fun d ->
      List.iter
        (expect_code d "request" Protocol.Ok_code)
        [
          {|{"op": "certain", "query": "R(x | y) R(y | z)", "facts": "R(1 | 2)\nR(2 | 3)"}|};
          {|{"op": "load", "name": "d", "facts": "R(1 | 2)\nR(2 | 3)\nR(3 | 4)\nR(3 | 1)"}|};
          {|{"op": "certain", "query": "R(x | y) R(y | z)", "db": "d"}|};
          {|{"op": "certain", "query": "R(x | y) R(y | z)", "db": "d", "trials": 5}|};
        ])
    (fun () completed ->
      let with_steps =
        List.filter_map
          (fun (ev : Obs.Journal.event) ->
            match List.assoc_opt "steps" ev.Obs.Journal.fields with
            | Some (Obs.Trace.Int n) -> Some (ev, n)
            | _ -> None)
          completed
      in
      checki "every certain completion carries steps" 3 (List.length with_steps);
      List.iter
        (fun ((ev : Obs.Journal.event), steps) ->
          let sum =
            List.fold_left
              (fun acc (k, v) ->
                match v with
                | Obs.Trace.Int n
                  when String.length k > 6 && String.sub k 0 6 = "steps." ->
                    acc + n
                | _ -> acc)
              0 ev.Obs.Journal.fields
          in
          checki
            (Printf.sprintf "request.completed #%d: steps = sum of steps.<site>"
               ev.Obs.Journal.seq)
            steps sum;
          checkb "the serve tick is counted" true
            (List.mem_assoc "steps.serve" ev.Obs.Journal.fields))
        with_steps)

(* ------------------------------------------------------------------ *)
(* Chaos soak: ≥1000 randomized requests, faults at every site, zero
   crashes, every response contract-conformant. *)

let soak_requests = 1200

let random_db_text rng =
  let n = 1 + Random.State.int rng 8 in
  String.concat "\n"
    (List.init n (fun _ ->
         Printf.sprintf "R(%d | %d)" (Random.State.int rng 5)
           (Random.State.int rng 5)))

let soak_frame rng i =
  let queries =
    [
      "R(x | y) R(y | x)";
      "R(x | y) R(y | z)";
      "R(x u | x y) R(u y | x z)";
      "R(x | y) R(x | y)";
    ]
  in
  let query () = List.nth queries (Random.State.int rng (List.length queries)) in
  let obj fields = Json.to_string (Json.Obj fields) in
  match Random.State.int rng 12 with
  | 0 -> obj [ ("op", Json.String "ping") ]
  | 1 -> obj [ ("op", Json.String "stats") ]
  | 2 ->
      obj
        [ ("op", Json.String "classify"); ("query", Json.String (query ())) ]
  | 3 -> obj [ ("op", Json.String "lint"); ("query", Json.String (query ())) ]
  | 4 ->
      obj
        [
          ("op", Json.String "load");
          ("name", Json.String (Printf.sprintf "db%d" (i mod 4)));
          ("facts", Json.String (random_db_text rng));
        ]
  | 5 | 6 ->
      obj
        [
          ("op", Json.String "certain");
          ("query", Json.String (query ()));
          ("db", Json.String (Printf.sprintf "db%d" (Random.State.int rng 6)));
          ("trials", Json.Int 10);
        ]
  | 7 | 8 ->
      obj
        [
          ("op", Json.String "certain");
          ("query", Json.String (query ()));
          ("facts", Json.String (random_db_text rng));
          ("trials", Json.Int 10);
        ]
  | 9 ->
      (* Malformed on purpose. *)
      List.nth
        [ "{"; "null"; "[1]"; {|{"op": 3}|}; {|{"op": "certain"}|}; "}{" ]
        (Random.State.int rng 6)
  | 10 ->
      obj
        [
          ("op", Json.String "certain");
          ("query", Json.String "R(x | y) R(y |");
          ("facts", Json.String "nonsense");
        ]
  | _ ->
      obj
        [
          ("op", Json.String "certain");
          ("query", Json.String (query ()));
          ("facts", Json.String (random_db_text rng));
          ("explain", Json.Bool true);
        ]

let test_soak () =
  let rng = Random.State.make [| 0xC4A05 |] in
  let d =
    Serve.Daemon.create
      ~sleep:(fun _ -> ())
      {
        base_config with
        Serve.Daemon.retries = 1;
        estimate_trials = 10;
        chaos =
          Some
            {
              Serve.Daemon.fail_p = 0.04;
              delay_p = 0.0;
              delay_s = 0.0;
              pressure_p = 0.02;
              chaos_seed = 7;
              sites = [];
              (* every tick site *)
            };
      }
  in
  let codes = Hashtbl.create 16 in
  for i = 1 to soak_requests do
    let frame = soak_frame rng i in
    match Serve.Daemon.handle_line d frame with
    | None -> Alcotest.failf "request %d: no response" i
    | Some response ->
        let code, _ = check_conformant response in
        let name = Protocol.code_name code in
        Hashtbl.replace codes name
          (1 + Option.value ~default:0 (Hashtbl.find_opt codes name))
  done;
  checki "every request answered" soak_requests (Serve.Daemon.requests d);
  checkb "daemon alive after the soak" true
    (match Serve.Daemon.handle_line d {|{"op": "ping"}|} with
    | Some r -> fst (check_conformant r) = Protocol.Ok_code
    | None -> false);
  (* The soak must actually exercise the fault machinery, not dodge it. *)
  let count name = Option.value ~default:0 (Hashtbl.find_opt codes name) in
  checkb "chaos produced injected-fault responses" true
    (count "fault-injected" > 0);
  checkb "some requests succeeded despite chaos" true (count "ok" > 0);
  let m = Serve.Daemon.metrics d in
  checkb "retries fired" true (Obs.Metrics.counter_value m "serve.retry" > 0)

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "exit contract" `Quick test_exit_contract;
          Alcotest.test_case "decode errors" `Quick test_decode_errors;
          Alcotest.test_case "decode ok" `Quick test_decode_ok;
          Alcotest.test_case "decode analyze" `Quick test_decode_analyze;
        ] );
      ("ingest", [ Alcotest.test_case "structured errors" `Quick test_ingest ]);
      ( "admission",
        [
          Alcotest.test_case "token bucket" `Quick test_admission;
          Alcotest.test_case "backwards clock" `Quick
            test_admission_backwards_clock;
        ] );
      ( "plane-cache",
        [
          Alcotest.test_case "lru + fingerprint" `Quick test_plane_cache;
          Alcotest.test_case "sanitize-on-insert" `Quick
            test_plane_cache_sanitize;
          Alcotest.test_case "stale eviction" `Quick test_plane_cache_stale;
          Alcotest.test_case "inject capacity" `Quick
            test_plane_cache_inject_capacity;
          Alcotest.test_case "unambiguous fingerprint" `Quick
            test_fingerprint_unambiguous;
          Alcotest.test_case "find counts hits" `Quick
            test_plane_cache_find_counts_hits;
          Alcotest.test_case "hit does not re-hash" `Quick
            test_plane_cache_hit_does_not_rehash;
          Alcotest.test_case "wrong replace key never answers" `Quick
            test_plane_cache_replace_wrong_key;
          Alcotest.test_case "fingerprint bytes = reference renderer" `Quick
            test_fingerprint_oracle;
          Alcotest.test_case "miss path allocates per fact" `Quick
            test_miss_path_allocation;
        ] );
      ("retry", [ Alcotest.test_case "backoff + transience" `Quick test_retry ]);
      ( "daemon",
        [
          Alcotest.test_case "pipeline smoke" `Quick test_daemon_smoke;
          Alcotest.test_case "classification deadline" `Quick
            test_daemon_classify_deadline;
          Alcotest.test_case "frame and fact caps" `Quick test_daemon_limits;
          Alcotest.test_case "degradation ladder" `Quick test_daemon_degradation;
          Alcotest.test_case "faults and pressure" `Quick
            test_daemon_fault_and_pressure;
          Alcotest.test_case "analyze op" `Quick test_daemon_analyze;
          Alcotest.test_case "corrupt plane" `Quick test_daemon_corrupt_plane;
          Alcotest.test_case "update op" `Quick test_daemon_update;
          Alcotest.test_case "rolled key = from-scratch key" `Quick
            test_daemon_rolled_key;
          Alcotest.test_case "request isolation" `Quick test_request_isolation;
          Alcotest.test_case "sub-millisecond latency" `Quick
            test_daemon_latency;
          Alcotest.test_case "every attempt's ticks metered" `Quick
            test_daemon_attempt_ticks;
          Alcotest.test_case "lint exit contract" `Quick test_daemon_lint;
          Alcotest.test_case "completion steps = site sum" `Quick
            test_daemon_completion_steps;
        ] );
      ("soak", [ Alcotest.test_case "chaos soak" `Quick test_soak ]);
    ]
