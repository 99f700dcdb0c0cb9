(* Tests for the bipartite graph and matching substrate: Hopcroft-Karp is
   checked against the naive augmenting-path oracle on random graphs. *)

module Bipartite = Graphs.Bipartite
module Matching = Graphs.Matching

let test_make_validates () =
  Alcotest.(check bool) "out of range" true
    (try
       ignore (Bipartite.make ~n_left:2 ~n_right:2 [ (2, 0) ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative size" true
    (try
       ignore (Bipartite.make ~n_left:(-1) ~n_right:0 []);
       false
     with Invalid_argument _ -> true)

let test_of_csr_validates () =
  let rejects name ~n_right offsets targets =
    Alcotest.(check bool) name true
      (try
         ignore (Bipartite.of_csr ~n_right ~offsets ~targets);
         false
       with Invalid_argument _ -> true)
  in
  rejects "no offsets" ~n_right:1 [||] [||];
  rejects "offsets past the targets" ~n_right:2 [| 0; 2 |] [| 0 |];
  rejects "descending row" ~n_right:2 [| 0; 2 |] [| 1; 0 |];
  rejects "repeated target" ~n_right:2 [| 0; 2 |] [| 1; 1 |];
  rejects "target out of range" ~n_right:2 [| 0; 1 |] [| 2 |];
  let g = Bipartite.of_csr ~n_right:3 ~offsets:[| 0; 2; 2; 3 |] ~targets:[| 0; 2; 1 |] in
  Alcotest.(check int) "left side" 3 g.Bipartite.n_left;
  Alcotest.(check int) "edges" 3 (Bipartite.n_edges g);
  Alcotest.(check bool) "an edge" true (Bipartite.mem_edge g 2 1);
  Alcotest.(check bool) "an empty row" false (Bipartite.mem_edge g 1 1)

(* [make] lays an edge list out as CSR rows, each ascending. *)
let test_make_rows () =
  let g = Bipartite.make ~n_left:3 ~n_right:4 [ (2, 1); (0, 3); (0, 1); (2, 0); (0, 3) ] in
  Alcotest.(check (array int)) "offsets" [| 0; 2; 2; 4 |] g.Bipartite.offsets;
  Alcotest.(check (array int)) "targets" [| 1; 3; 0; 1 |] g.Bipartite.targets

let test_duplicate_edges_collapse () =
  let g = Bipartite.make ~n_left:1 ~n_right:1 [ (0, 0); (0, 0) ] in
  Alcotest.(check int) "one edge" 1 (Bipartite.n_edges g)

let test_perfect_matching () =
  (* A 3x3 cycle-ish graph with a perfect matching. *)
  let g = Bipartite.make ~n_left:3 ~n_right:3 [ (0, 0); (0, 1); (1, 1); (1, 2); (2, 2); (2, 0) ] in
  let m = Matching.hopcroft_karp g in
  Alcotest.(check int) "size 3" 3 m.Matching.size;
  Alcotest.(check bool) "saturates" true (Matching.saturates_left g m);
  Alcotest.(check bool) "valid" true (Matching.is_valid g m)

let test_no_perfect_matching () =
  (* Two left vertices compete for a single right vertex. *)
  let g = Bipartite.make ~n_left:2 ~n_right:2 [ (0, 0); (1, 0) ] in
  let m = Matching.hopcroft_karp g in
  Alcotest.(check int) "size 1" 1 m.Matching.size;
  Alcotest.(check bool) "not saturating" false (Matching.saturates_left g m)

let test_empty_graph () =
  let g = Bipartite.make ~n_left:0 ~n_right:0 [] in
  let m = Matching.hopcroft_karp g in
  Alcotest.(check int) "empty matching" 0 m.Matching.size;
  Alcotest.(check bool) "vacuously saturating" true (Matching.saturates_left g m)

let test_isolated_left_vertex () =
  let g = Bipartite.make ~n_left:2 ~n_right:1 [ (0, 0) ] in
  let m = Matching.hopcroft_karp g in
  Alcotest.(check bool) "cannot saturate" false (Matching.saturates_left g m)

(* Hall's theorem witness: a K_{3,3} minus a perfect matching still has a
   perfect matching. *)
let test_k33_minus_diagonal () =
  let edges =
    List.concat_map (fun u -> List.filter_map (fun v -> if u = v then None else Some (u, v)) [ 0; 1; 2 ]) [ 0; 1; 2 ]
  in
  let g = Bipartite.make ~n_left:3 ~n_right:3 edges in
  Alcotest.(check int) "perfect" 3 (Matching.hopcroft_karp g).Matching.size

(* Both searches' tick counts and matchings on seeded random graphs,
   recorded before the graphs became CSR rows and the searches int-array
   walks: [(size, hk ticks, hk pair_left, hk pair_right, augmenting ticks,
   augmenting pair_left, augmenting pair_right)], each array folded to one
   int. Equal ticks and equal matchings hold both to their visit order. *)
let pinned_traces =
  [
    (9, 50, 942305226, 853054919, 23, 942305226, 853054919);
    (23, 93, 744945174, 890222048, 65, 336656653, 535693316);
    (6, 40, 642962854, 532695070, 17, 828606351, 1029583050);
    (15, 66, 566249362, 581527355, 73, 805805566, 1026648676);
    (2, 7, 506530, 1042616656, 3, 506530, 1042616656);
    (13, 61, 39155486, 1047269104, 95, 945998840, 19711034);
    (2, 7, 507470, 85653234, 3, 507470, 85653234);
    (2, 57, 731317842, 16555, 34, 731317842, 16555);
    (7, 37, 716908513, 1048405586, 17, 716908513, 1048405586);
    (2, 81, 988099662, 16370, 74, 844952048, 16400);
    (4, 87, 374590777, 172437883, 31, 374590777, 172437883);
    (18, 126, 727734550, 585752770, 42, 727734550, 585752770);
    (2, 28, 202016880, 656243058, 7, 202016880, 656243058);
    (12, 42, 885270021, 52272045, 53, 119008153, 693431306);
    (8, 23, 571743524, 492119909, 12, 571743524, 492119909);
    (13, 117, 1064825691, 785440976, 59, 460755723, 586337419);
    (16, 87, 723643326, 690612605, 29, 723643326, 690612605);
    (2, 4, 16400, 113358864, 2, 16400, 113358864);
    (10, 61, 182624970, 124774659, 19, 182624970, 124774659);
    (20, 75, 596153011, 482413989, 44, 944428492, 467960409);
    (24, 104, 181316163, 194654190, 57, 139011386, 1008101946);
    (11, 107, 417547098, 482493195, 30, 417547098, 482493195);
    (7, 27, 944310099, 260705422, 12, 944310099, 260705422);
    (1, 80, 896764832, 228877412, 27, 896764832, 228877412);
    (5, 13, 312900082, 135008494, 6, 312900082, 135008494);
    (10, 38, 622542765, 974682884, 16, 622542765, 974682884);
    (13, 67, 750167269, 650664668, 34, 1009906635, 498197062);
    (14, 80, 395562920, 872865873, 30, 395562920, 872865873);
    (11, 117, 235491734, 1059939043, 33, 235491734, 1059939043);
    (3, 6, 516557, 614474569, 3, 516557, 614474569);
  ]

let test_visit_order_pinned () =
  let fold a = Array.fold_left (fun h x -> ((h * 31) + x + 1) land 0x3FFFFFFF) 17 a in
  let rng = Random.State.make [| 0xB1B |] in
  List.iteri
    (fun i (size, hk_ticks, hk_left, hk_right, aug_ticks, aug_left, aug_right) ->
      let n_left = 1 + Random.State.int rng 30 and n_right = 1 + Random.State.int rng 30 in
      let n_edges = Random.State.int rng ((3 * n_left) + 1) in
      let edges =
        List.init n_edges (fun _ -> (Random.State.int rng n_left, Random.State.int rng n_right))
      in
      let g = Bipartite.make ~n_left ~n_right edges in
      let ticks = ref 0 in
      let tick () = incr ticks in
      let hk = Matching.hopcroft_karp ~tick g in
      let hk_ticks' = !ticks in
      ticks := 0;
      let aug = Matching.augmenting ~tick g in
      let name = Printf.sprintf "graph %d" i in
      Alcotest.(check (list int)) name
        [ size; hk_ticks; hk_left; hk_right; aug_ticks; aug_left; aug_right ]
        [
          hk.Matching.size; hk_ticks'; fold hk.Matching.pair_left; fold hk.Matching.pair_right;
          !ticks; fold aug.Matching.pair_left; fold aug.Matching.pair_right;
        ])
    pinned_traces

let random_graph_gen =
  QCheck2.Gen.(
    let* n_left = int_range 0 8 in
    let* n_right = int_range 1 8 in
    let* density = int_range 0 100 in
    let* bits = list_size (return (n_left * n_right)) (int_range 0 99) in
    let edges =
      List.concat
        (List.mapi
           (fun idx b ->
             if b < density then [ (idx / n_right, idx mod n_right) ] else [])
           bits)
    in
    return (Bipartite.make ~n_left ~n_right edges))

let prop_hk_equals_augmenting =
  QCheck2.Test.make ~name:"Hopcroft-Karp size = augmenting-path size" ~count:300
    random_graph_gen (fun g ->
      let m1 = Matching.hopcroft_karp g and m2 = Matching.augmenting g in
      m1.Matching.size = m2.Matching.size)

let prop_matchings_valid =
  QCheck2.Test.make ~name:"computed matchings are valid" ~count:300 random_graph_gen
    (fun g ->
      Matching.is_valid g (Matching.hopcroft_karp g)
      && Matching.is_valid g (Matching.augmenting g))

let prop_matching_bounded =
  QCheck2.Test.make ~name:"matching size bounded by both sides" ~count:300
    random_graph_gen (fun g ->
      let m = Matching.hopcroft_karp g in
      m.Matching.size <= g.Bipartite.n_left && m.Matching.size <= g.Bipartite.n_right)

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "graphs"
    [
      ( "bipartite",
        [
          Alcotest.test_case "validation" `Quick test_make_validates;
          Alcotest.test_case "duplicate edges" `Quick test_duplicate_edges_collapse;
          Alcotest.test_case "CSR rows" `Quick test_make_rows;
          Alcotest.test_case "of_csr validation" `Quick test_of_csr_validates;
        ] );
      ( "matching",
        [
          Alcotest.test_case "perfect matching" `Quick test_perfect_matching;
          Alcotest.test_case "no perfect matching" `Quick test_no_perfect_matching;
          Alcotest.test_case "empty graph" `Quick test_empty_graph;
          Alcotest.test_case "isolated vertex" `Quick test_isolated_left_vertex;
          Alcotest.test_case "K33 minus diagonal" `Quick test_k33_minus_diagonal;
          Alcotest.test_case "visit order pinned" `Quick test_visit_order_pinned;
        ]
        @ qt [ prop_hk_equals_augmenting; prop_matchings_valid; prop_matching_bounded ] );
    ]
