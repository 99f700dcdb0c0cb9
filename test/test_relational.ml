(* Unit and property tests for the relational substrate: values, schemas,
   facts, blocks, databases and repairs. *)

module Value = Relational.Value
module Schema = Relational.Schema
module Fact = Relational.Fact
module Block = Relational.Block
module Database = Relational.Database
module Repair = Relational.Repair

let schema_r2 = Schema.make ~name:"R" ~arity:2 ~key_len:1
let schema_r3 = Schema.make ~name:"R" ~arity:3 ~key_len:2
let vi = Value.int
let fact vs = Fact.make "R" (List.map vi vs)
let db2 facts = Database.of_facts [ schema_r2 ] (List.map fact facts)

(* ------------------------------------------------------------------ *)
(* Value *)

let test_value_order () =
  Alcotest.(check bool) "int < str" true (Value.compare (vi 5) (Value.str "a") < 0);
  Alcotest.(check bool) "str < pair" true
    (Value.compare (Value.str "z") (Value.pair (vi 0) (vi 0)) < 0);
  Alcotest.(check bool)
    "pair lexicographic" true
    (Value.compare (Value.pair (vi 1) (vi 9)) (Value.pair (vi 2) (vi 0)) < 0);
  Alcotest.(check bool) "equal reflexive" true (Value.equal (Value.triple (vi 1) (vi 2) (vi 3)) (Value.triple (vi 1) (vi 2) (vi 3)))

let test_value_tag_disjoint () =
  Alcotest.(check bool) "tags keep families apart" false
    (Value.equal (Value.tag "x" (vi 1)) (Value.tag "y" (vi 1)))

let value_gen =
  let open QCheck2.Gen in
  sized @@ fix (fun self n ->
      if n <= 0 then oneof [ map Value.int small_int; map Value.str (string_size (return 3)) ]
      else
        frequency
          [
            (2, map Value.int small_int);
            (2, map Value.str (string_size (return 3)));
            (1, map2 Value.pair (self (n / 2)) (self (n / 2)));
          ])

let prop_value_compare_total =
  QCheck2.Test.make ~name:"Value.compare is antisymmetric and consistent with equal"
    ~count:300
    QCheck2.Gen.(pair value_gen value_gen)
    (fun (v, w) ->
      let c = Value.compare v w and c' = Value.compare w v in
      (c = 0) = (c' = 0) && (c > 0) = (c' < 0) && Value.equal v w = (c = 0))

let prop_value_hash_equal =
  QCheck2.Test.make ~name:"equal values have equal hashes" ~count:300
    QCheck2.Gen.(pair value_gen value_gen)
    (fun (v, w) -> (not (Value.equal v w)) || Value.hash v = Value.hash w)

(* ------------------------------------------------------------------ *)
(* Schema *)

let test_schema_validation () =
  Alcotest.check_raises "empty name" (Invalid_argument "Schema.make: empty relation name")
    (fun () -> ignore (Schema.make ~name:"" ~arity:2 ~key_len:1));
  Alcotest.check_raises "zero arity"
    (Invalid_argument "Schema.make: arity must be >= 1") (fun () ->
      ignore (Schema.make ~name:"R" ~arity:0 ~key_len:0));
  Alcotest.check_raises "key too long"
    (Invalid_argument "Schema.make: key_len must be within [0, arity]") (fun () ->
      ignore (Schema.make ~name:"R" ~arity:2 ~key_len:3))

let test_schema_positions () =
  Alcotest.(check (list int)) "key positions" [ 0; 1 ] (Schema.key_positions schema_r3);
  Alcotest.(check (list int)) "nonkey positions" [ 2 ] (Schema.nonkey_positions schema_r3)

(* ------------------------------------------------------------------ *)
(* Fact *)

let test_fact_key () =
  let f = Fact.make "R" [ vi 1; vi 2; vi 3 ] in
  Alcotest.(check bool) "key tuple" true
    (List.for_all2 Value.equal (Fact.key schema_r3 f) [ vi 1; vi 2 ]);
  Alcotest.(check int) "key set size" 2 (Value.Set.cardinal (Fact.key_set schema_r3 f));
  Alcotest.(check int) "adom size" 3 (Value.Set.cardinal (Fact.adom f))

let test_fact_key_equal () =
  let f = fact [ 1; 2 ] and g = fact [ 1; 3 ] and h = fact [ 2; 2 ] in
  Alcotest.(check bool) "same key" true (Fact.key_equal schema_r2 f g);
  Alcotest.(check bool) "different key" false (Fact.key_equal schema_r2 f h);
  Alcotest.(check bool) "key-equal is not equal" false (Fact.equal f g)

let test_fact_schema_mismatch () =
  let f = fact [ 1; 2 ] in
  Alcotest.(check bool) "wrong arity rejected" true
    (try
       ignore (Fact.key schema_r3 f);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Block and Database *)

let test_blocks_partition () =
  let db = db2 [ [ 1; 1 ]; [ 1; 2 ]; [ 2; 1 ]; [ 2; 2 ]; [ 3; 1 ] ] in
  let blocks = Database.blocks db in
  Alcotest.(check int) "three blocks" 3 (List.length blocks);
  Alcotest.(check int) "facts preserved" 5
    (List.fold_left (fun acc b -> acc + Block.size b) 0 blocks)

let test_block_make_rejects_mixed () =
  Alcotest.(check bool) "non-key-equal facts rejected" true
    (try
       ignore (Block.make schema_r2 [ fact [ 1; 1 ]; fact [ 2; 1 ] ]);
       false
     with Invalid_argument _ -> true)

let test_database_consistency () =
  Alcotest.(check bool) "consistent" true
    (Database.is_consistent (db2 [ [ 1; 1 ]; [ 2; 1 ] ]));
  Alcotest.(check bool) "inconsistent" false
    (Database.is_consistent (db2 [ [ 1; 1 ]; [ 1; 2 ] ]))

let test_database_add_remove () =
  let db = db2 [ [ 1; 1 ] ] in
  let db = Database.add db (fact [ 1; 1 ]) in
  Alcotest.(check int) "idempotent add" 1 (Database.size db);
  let db = Database.remove db (fact [ 1; 1 ]) in
  Alcotest.(check bool) "empty after remove" true (Database.is_empty db);
  Alcotest.(check int) "no blocks" 0 (List.length (Database.blocks db))

let test_database_rejects_unknown_relation () =
  let db = db2 [] in
  Alcotest.(check bool) "unknown relation" true
    (try
       ignore (Database.add db (Fact.make "S" [ vi 0 ]));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "wrong arity" true
    (try
       ignore (Database.add db (Fact.make "R" [ vi 0; vi 1; vi 2 ]));
       false
     with Invalid_argument _ -> true)

let test_database_union_conflict () =
  let s1 = Schema.make ~name:"R" ~arity:2 ~key_len:1 in
  let s2 = Schema.make ~name:"R" ~arity:2 ~key_len:2 in
  let d1 = Database.empty [ s1 ] and d2 = Database.empty [ s2 ] in
  Alcotest.(check bool) "conflicting schemas" true
    (try
       ignore (Database.union d1 d2);
       false
     with Invalid_argument _ -> true)

let test_siblings () =
  let db = db2 [ [ 1; 1 ]; [ 1; 2 ]; [ 1; 3 ]; [ 2; 1 ] ] in
  Alcotest.(check int) "two siblings" 2 (List.length (Database.siblings db (fact [ 1; 1 ])))

let test_block_count_and_fold () =
  let db = db2 [ [ 1; 1 ]; [ 1; 2 ]; [ 2; 1 ]; [ 3; 1 ] ] in
  Alcotest.(check int) "block_count" 3 (Database.block_count db);
  Alcotest.(check int)
    "block_count agrees with blocks" (List.length (Database.blocks db))
    (Database.block_count db);
  let folded =
    List.rev (Database.fold_blocks (fun acc b -> b :: acc) [] db)
  in
  Alcotest.(check int) "fold visits every block" 3 (List.length folded);
  List.iter2
    (fun (b : Block.t) (b' : Block.t) ->
      Alcotest.(check bool) "fold order matches blocks" true
        (List.for_all2 Fact.equal b.Block.facts b'.Block.facts))
    (Database.blocks db) folded

let test_filter_keeps_structure () =
  let db = db2 [ [ 1; 1 ]; [ 1; 2 ]; [ 2; 1 ]; [ 3; 1 ] ] in
  (* Drops the whole key-1 block, so an emptied bucket must disappear. *)
  let keep (f : Fact.t) = not (Value.equal f.Fact.tuple.(0) (vi 1)) in
  let filtered = Database.filter keep db in
  Alcotest.(check int) "facts filtered" 2 (Database.size filtered);
  Alcotest.(check int) "empty buckets dropped" 2 (Database.block_count filtered);
  Alcotest.(check bool) "equals the rebuilt database" true
    (Database.equal filtered
       (Database.of_facts (Database.schemas db)
          (List.filter keep (Database.facts db))));
  Alcotest.(check bool) "filter to empty" true
    (Database.is_empty (Database.filter (fun _ -> false) db));
  Alcotest.(check int) "no residual blocks" 0
    (Database.block_count (Database.filter (fun _ -> false) db))

let test_union_merges () =
  let d1 = db2 [ [ 1; 1 ]; [ 2; 1 ] ] and d2 = db2 [ [ 1; 2 ]; [ 3; 1 ] ] in
  let u = Database.union d1 d2 in
  Alcotest.(check int) "union size" 4 (Database.size u);
  Alcotest.(check int) "union blocks" 3 (Database.block_count u);
  Alcotest.(check bool) "equals the rebuilt database" true
    (Database.equal u
       (Database.of_facts (Database.schemas d1)
          (Database.facts d1 @ Database.facts d2)));
  Alcotest.(check bool) "idempotent" true (Database.equal u (Database.union u u))

(* ------------------------------------------------------------------ *)
(* Repair *)

let test_repair_count () =
  let db = db2 [ [ 1; 1 ]; [ 1; 2 ]; [ 2; 1 ]; [ 2; 2 ]; [ 2; 3 ]; [ 3; 9 ] ] in
  Alcotest.(check (option int)) "2*3*1 repairs" (Some 6) (Repair.count db);
  Alcotest.(check int) "enumeration agrees" 6 (List.length (List.of_seq (Repair.enumerate db)))

let test_repair_empty_db () =
  let db = db2 [] in
  Alcotest.(check (option int)) "one empty repair" (Some 1) (Repair.count db);
  Alcotest.(check int) "enumerates the empty repair" 1
    (List.length (List.of_seq (Repair.enumerate db)))

let test_repair_properties () =
  let db = db2 [ [ 1; 1 ]; [ 1; 2 ]; [ 2; 1 ]; [ 2; 2 ] ] in
  Seq.iter
    (fun r ->
      Alcotest.(check bool) "is_repair" true (Repair.is_repair db r);
      Alcotest.(check bool) "consistent" true
        (Database.is_consistent (Repair.to_database db r)))
    (Repair.enumerate db)

let test_repair_replace () =
  let db = db2 [ [ 1; 1 ]; [ 1; 2 ]; [ 2; 1 ] ] in
  let r = [ fact [ 1; 1 ]; fact [ 2; 1 ] ] in
  let r' = Repair.replace db r ~old_fact:(fact [ 1; 1 ]) ~new_fact:(fact [ 1; 2 ]) in
  Alcotest.(check bool) "still a repair" true (Repair.is_repair db r');
  Alcotest.(check bool) "contains replacement" true
    (List.exists (Fact.equal (fact [ 1; 2 ])) r');
  Alcotest.check_raises "not key-equal"
    (Invalid_argument "Repair.replace: facts are not key-equal") (fun () ->
      ignore (Repair.replace db r ~old_fact:(fact [ 2; 1 ]) ~new_fact:(fact [ 1; 2 ])))

let test_repair_sample_valid () =
  let rng = Random.State.make [| 7 |] in
  let db = db2 [ [ 1; 1 ]; [ 1; 2 ]; [ 2; 1 ]; [ 2; 2 ]; [ 3; 0 ] ] in
  for _ = 1 to 20 do
    Alcotest.(check bool) "sampled repair valid" true
      (Repair.is_repair db (Repair.sample rng db))
  done

let random_db_gen =
  QCheck2.Gen.(
    let* n = int_range 0 12 in
    let* keys = list_size (return n) (int_range 0 3) in
    let* vals = list_size (return n) (int_range 0 3) in
    return (db2 (List.map2 (fun k v -> [ k; v ]) keys vals)))

let prop_repair_count_product =
  QCheck2.Test.make ~name:"number of repairs = product of block sizes" ~count:200
    random_db_gen (fun db ->
      let expected =
        List.fold_left (fun acc b -> acc * Block.size b) 1 (Database.blocks db)
      in
      Repair.count db = Some expected
      && List.length (List.of_seq (Repair.enumerate db)) = expected)

let prop_repairs_maximal =
  QCheck2.Test.make ~name:"repairs are maximal consistent subsets" ~count:100
    random_db_gen (fun db ->
      Repair.for_all db (fun r ->
          Repair.is_repair db r
          && List.for_all
               (fun f ->
                 List.exists (Fact.equal f) r
                 || not
                      (Database.is_consistent
                         (Repair.to_database db (f :: r))))
               (Database.facts db)))

(* ------------------------------------------------------------------ *)
(* Compiled execution plane *)

module Compiled = Relational.Compiled

let test_compiled_structure () =
  let db = db2 [ [ 1; 1 ]; [ 1; 2 ]; [ 2; 1 ]; [ 3; 7 ] ] in
  let p = Compiled.compile db in
  Alcotest.(check int) "n_facts" (Database.size db) (Compiled.n_facts p);
  Alcotest.(check int) "n_blocks" (Database.block_count db) (Compiled.n_blocks p);
  Alcotest.(check int) "n_relations" 1 (Compiled.n_relations p);
  Alcotest.(check int)
    "n_values = |adom|"
    (Value.Set.cardinal (Database.adom db))
    (Compiled.n_values p);
  (* Fact order is Database.facts order; block partition mirrors
     Database.blocks in order and size. *)
  List.iteri
    (fun i f ->
      Alcotest.(check bool) "fact order" true (Fact.equal f (Compiled.fact p i)))
    (Database.facts db);
  List.iteri
    (fun bi (b : Block.t) ->
      Alcotest.(check int)
        "block sizes" (Block.size b)
        (Array.length p.Compiled.blocks.(bi));
      Array.iter
        (fun v ->
          Alcotest.(check int) "block_of inverts blocks" bi
            p.Compiled.block_of.(v))
        p.Compiled.blocks.(bi))
    (Database.blocks db);
  Alcotest.(check bool) "consistency agrees" (Database.is_consistent db)
    (Compiled.is_consistent p)

let test_compiled_tick_per_fact () =
  let db = db2 [ [ 1; 1 ]; [ 1; 2 ]; [ 2; 1 ] ] in
  let ticks = ref 0 in
  ignore (Compiled.compile ~tick:(fun () -> incr ticks) db);
  Alcotest.(check int) "one tick per fact" (Database.size db) !ticks

let prop_compile_round_trip =
  QCheck2.Test.make ~name:"decompile (compile db) = db" ~count:200 random_db_gen
    (fun db -> Database.equal (Compiled.decompile (Compiled.compile db)) db)

let prop_compile_round_trip_randdb =
  (* Same property over the benchmark workload generator, whose databases
     have multiple relations' worth of structure (planted query matches,
     larger domains) than the tiny hand-rolled generator above. *)
  QCheck2.Test.make ~name:"round trip over Workload.Randdb" ~count:50
    QCheck2.Gen.(
      let* seed = int_range 0 10_000 in
      let* n = int_range 0 60 in
      return (seed, n))
    (fun (seed, n) ->
      let rng = Random.State.make [| seed |] in
      let db =
        Workload.Randdb.random_for_query rng Workload.Catalog.q3 ~n_facts:n
          ~domain:5
      in
      Database.equal (Compiled.decompile (Compiled.compile db)) db)

(* ------------------------------------------------------------------ *)
(* Database.of_facts against its definition, the fold of [add]          *)

let schema_s = Schema.make ~name:"S" ~arity:3 ~key_len:2

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let outcome f = match f () with db -> Ok db | exception Invalid_argument m -> Error m

let same_db d1 d2 =
  List.equal Fact.equal (Database.facts d1) (Database.facts d2)
  && List.equal Block.equal (Database.blocks d1) (Database.blocks d2)
  && Database.block_count d1 = Database.block_count d2
  && Database.is_consistent d1 = Database.is_consistent d2
  && Database.size d1 = Database.size d2

(* Randdb facts of q3 (R[2,1]) and, with [two], of S[3,2], repeated in
   part and shuffled; [bad] undeclared-relation or wrong-arity facts are
   put at random places, so the first bad one in input order must raise. *)
let of_facts_input (seed, n, two, bad) =
  let rng = Random.State.make [| seed |] in
  let q3 = Workload.Catalog.q3 in
  let draw schema =
    Database.facts (Workload.Randdb.random rng schema ~n_facts:n ~domain:(1 + (n / 4)))
  in
  let r = Database.facts (Workload.Randdb.random_for_query rng q3 ~n_facts:n ~domain:(1 + (n / 3))) in
  let schemas, facts =
    if two then ([ q3.Qlang.Query.schema; schema_s ], r @ draw schema_s)
    else ([ q3.Qlang.Query.schema ], r)
  in
  let facts = facts @ List.filteri (fun i _ -> i mod 3 = 0) facts in
  let facts = if seed mod 4 = 0 then facts else shuffle rng facts in
  let wrong =
    [| Fact.make "T" [ vi 1 ]; Fact.make "R" [ vi 1; vi 2; vi 3 ]; Fact.make "S" [ vi 1 ] |]
  in
  let facts =
    List.fold_left
      (fun facts k ->
        let i = Random.State.int rng (List.length facts + 1) in
        List.filteri (fun j _ -> j < i) facts
        @ (wrong.(k mod Array.length wrong) :: List.filteri (fun j _ -> j >= i) facts))
      facts (List.init bad (fun k -> k + seed))
  in
  (schemas, facts)

let prop_of_facts_is_fold_add =
  QCheck2.Test.make ~name:"of_facts = fold of add" ~count:300
    ~print:(fun (seed, n, two, bad) -> Printf.sprintf "seed %d, %d facts, two %b, bad %d" seed n two bad)
    QCheck2.Gen.(
      quad (int_range 0 100_000) (int_range 0 80) bool
        (frequency [ (3, return 0); (1, int_range 1 2) ]))
    (fun input ->
      let schemas, facts = of_facts_input input in
      match
        ( outcome (fun () -> Database.of_facts schemas facts),
          outcome (fun () -> List.fold_left Database.add (Database.empty schemas) facts) )
      with
      | Ok d1, Ok d2 -> same_db d1 d2
      | Error m1, Error m2 -> String.equal m1 m2
      | Ok _, Error m | Error m, Ok _ -> QCheck2.Test.fail_reportf "only one side raised: %s" m)

(* ------------------------------------------------------------------ *)
(* Database.size is the kept count                                     *)

type db_op =
  | Add of int * int
  | Remove of int * int
  | Union of (int * int) list
  | Filter of int
  | Of_facts of (int * int) list

let db_op_gen =
  let open QCheck2.Gen in
  let pair = pair (int_range 0 3) (int_range 0 3) in
  frequency
    [
      (4, map (fun (k, v) -> Add (k, v)) pair);
      (3, map (fun (k, v) -> Remove (k, v)) pair);
      (1, map (fun l -> Union l) (list_size (int_range 0 6) pair));
      (1, map (fun k -> Filter k) (int_range 0 3));
      (1, map (fun l -> Of_facts l) (list_size (int_range 0 8) pair));
    ]

let prop_size_is_count =
  QCheck2.Test.make ~name:"size = length of facts" ~count:300
    QCheck2.Gen.(list_size (int_range 1 40) db_op_gen)
    (fun ops ->
      let facts l = List.map (fun (k, v) -> fact [ k; v ]) l in
      let step db = function
        | Add (k, v) -> Database.add db (fact [ k; v ])
        | Remove (k, v) -> Database.remove db (fact [ k; v ])
        | Union l -> Database.union db (Database.of_facts [ schema_r2 ] (facts l))
        | Filter k -> Database.filter (fun f -> not (Value.equal (Fact.nth f 1) (vi k))) db
        | Of_facts l -> Database.of_facts [ schema_r2 ] (facts (l @ l))
      in
      let rec go db = function
        | [] -> true
        | op :: ops ->
            let db = step db op in
            Database.size db = List.length (Database.facts db) && go db ops
      in
      go (Database.empty [ schema_r2 ]) ops)

(* ------------------------------------------------------------------ *)
(* Interner against a Hashtbl model                                    *)

module Interner = Relational.Interner

(* Values enough to cross several doublings of the table. *)
let interned_value_gen =
  let open QCheck2.Gen in
  frequency
    [
      (4, map Value.int (int_range (-50) 400));
      (1, map Value.str (string_size ~gen:(char_range 'a' 'c') (int_range 0 3)));
      (1, value_gen);
    ]

let prop_interner_model =
  QCheck2.Test.make ~name:"interner = Hashtbl model" ~count:200
    QCheck2.Gen.(list_size (int_range 0 700) (pair bool interned_value_gen))
    (fun ops ->
      let t = Interner.create () and model = Hashtbl.create 16 in
      List.for_all
        (fun (intern, v) ->
          let expected = Hashtbl.find_opt model v in
          let ok =
            if intern then begin
              let id = Interner.intern t v in
              if expected = None then Hashtbl.replace model v id;
              id = Option.value expected ~default:(Hashtbl.length model - 1)
            end
            else Interner.find t v = expected
          in
          ok
          && Interner.size t = Hashtbl.length model
          && Hashtbl.fold (fun v id ok -> ok && Value.equal (Interner.value t id) v) model true)
        ops)

let prop_interner_copy =
  QCheck2.Test.make ~name:"interning into a copy leaves the original" ~count:200
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 200) interned_value_gen)
        (list_size (int_range 1 200) interned_value_gen))
    (fun (before, after) ->
      let t = Interner.create () in
      List.iter (fun v -> ignore (Interner.intern t v)) before;
      let size = Interner.size t in
      let snapshot = List.init size (Interner.value t) in
      let finds = List.map (Interner.find t) after in
      let c = Interner.copy t in
      List.iter (fun v -> ignore (Interner.intern c v)) after;
      Interner.size t = size
      && List.equal Value.equal (List.init size (Interner.value t)) snapshot
      && List.equal ( = ) (List.map (Interner.find t) after) finds
      && List.for_all (fun v -> Interner.find c v <> None) after)

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "relational"
    [
      ( "value",
        [
          Alcotest.test_case "ordering" `Quick test_value_order;
          Alcotest.test_case "tag disjoint" `Quick test_value_tag_disjoint;
        ]
        @ qt [ prop_value_compare_total; prop_value_hash_equal ] );
      ( "schema",
        [
          Alcotest.test_case "validation" `Quick test_schema_validation;
          Alcotest.test_case "positions" `Quick test_schema_positions;
        ] );
      ( "fact",
        [
          Alcotest.test_case "key" `Quick test_fact_key;
          Alcotest.test_case "key_equal" `Quick test_fact_key_equal;
          Alcotest.test_case "schema mismatch" `Quick test_fact_schema_mismatch;
        ] );
      ( "blocks",
        [
          Alcotest.test_case "partition" `Quick test_blocks_partition;
          Alcotest.test_case "mixed keys rejected" `Quick test_block_make_rejects_mixed;
        ] );
      ( "database",
        [
          Alcotest.test_case "consistency" `Quick test_database_consistency;
          Alcotest.test_case "add/remove" `Quick test_database_add_remove;
          Alcotest.test_case "unknown relation" `Quick test_database_rejects_unknown_relation;
          Alcotest.test_case "union conflict" `Quick test_database_union_conflict;
          Alcotest.test_case "siblings" `Quick test_siblings;
          Alcotest.test_case "block_count and fold_blocks" `Quick
            test_block_count_and_fold;
          Alcotest.test_case "filter" `Quick test_filter_keeps_structure;
          Alcotest.test_case "union merges" `Quick test_union_merges;
        ] );
      ( "compiled",
        [
          Alcotest.test_case "structure mirrors the database" `Quick
            test_compiled_structure;
          Alcotest.test_case "one tick per fact" `Quick
            test_compiled_tick_per_fact;
        ]
        @ qt [ prop_compile_round_trip; prop_compile_round_trip_randdb ] );
      ("of_facts", qt [ prop_of_facts_is_fold_add; prop_size_is_count ]);
      ("interner", qt [ prop_interner_model; prop_interner_copy ]);
      ( "repair",
        [
          Alcotest.test_case "count" `Quick test_repair_count;
          Alcotest.test_case "empty db" `Quick test_repair_empty_db;
          Alcotest.test_case "properties" `Quick test_repair_properties;
          Alcotest.test_case "replace" `Quick test_repair_replace;
          Alcotest.test_case "sample" `Quick test_repair_sample_valid;
        ]
        @ qt [ prop_repair_count_product; prop_repairs_maximal ] );
    ]
