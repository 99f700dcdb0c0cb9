(* Prints one line per (query, k, database) case of Cert_k: the fact count,
   the verdict, the budget ticks the fixpoint spent, an MD5 of the printed
   minimal antichain and an MD5 of the certificate value (or "none"). The
   certificate digest is a Merkle hash of the value: a node's digest covers
   its set, its reason and its premises' digests, so two structurally equal
   certificates hash alike however their nodes are shared in memory. *)

module SG = Qlang.Solution_graph
module Certk = Cqa.Certk
module Catalog = Workload.Catalog

let render_set s = "[" ^ String.concat "," (List.map string_of_int s) ^ "]"

let render_reason = function
  | Certk.Initial (i, j) -> Printf.sprintf "I %d %d" i j
  | Certk.Via_block (b, choices) ->
      Printf.sprintf "B %d %s" b
        (String.concat ";"
           (List.map (fun (u, t) -> string_of_int u ^ ":" ^ render_set t) choices))

(* A certificate may be a DAG whose unfolded tree is exponential, so a
   node's digest is remembered per physical node: a node reached twice is
   hashed once. *)
let certificate_digest (c : Certk.certificate) =
  let seen : (int list, (Certk.certificate * string) list) Hashtbl.t = Hashtbl.create 64 in
  let rec digest (c : Certk.certificate) =
    let same = Option.value (Hashtbl.find_opt seen c.Certk.set) ~default:[] in
    match List.find_opt (fun (c', _) -> c' == c) same with
    | Some (_, d) -> d
    | None ->
        let d =
          Digest.string
            (String.concat "|"
               (render_set c.Certk.set :: render_reason c.Certk.why
               :: List.map digest c.Certk.premises))
        in
        Hashtbl.replace seen c.Certk.set ((c, d) :: same);
        d
  in
  Digest.to_hex (digest c)

let case ~name q ~k db =
  let g = SG.of_query q db in
  let budget = Harness.Budget.unlimited () in
  let verdict = Certk.run ~budget ~k g in
  let derived =
    String.concat ";" (List.map render_set (Certk.derived ~k g)) |> Digest.string |> Digest.to_hex
  in
  let cert =
    match Certk.certificate ~k g with None -> "none" | Some c -> certificate_digest c
  in
  Printf.printf "%s k=%d facts=%d %s steps=%d derived=%s cert=%s\n" name k (SG.n_facts g)
    (if verdict then "certain" else "not-certain")
    (Harness.Budget.steps budget) derived cert

(* Catalogue queries on random databases of 5 to 120 facts with planted
   solutions. The domain is a twelfth, a sixth or a quarter of the size,
   and every fifth database draws from two values so that the wide queries
   see solutions too. *)
let random_cases () =
  List.iteri
    (fun qi (name, q) ->
      for i = 0 to 19 do
        let n_facts = 5 + (115 * i / 19) in
        let rng = Random.State.make [| qi; i |] in
        let domain = if i mod 5 = 4 then 2 else max 2 (n_facts * (1 + (i mod 3)) / 12) in
        let db = Workload.Randdb.random_for_query rng q ~n_facts ~domain in
        for k = 1 to 3 do
          case ~name:(Printf.sprintf "%s#%d" name i) q ~k db
        done
      done)
    [
      ("q1", Catalog.q1); ("q2", Catalog.q2); ("q3", Catalog.q3); ("q4", Catalog.q4);
      ("q5", Catalog.q5); ("q6", Catalog.q6); ("q7", Catalog.q7);
    ]

(* q3 databases of disjoint random components, each 60 draws over its own 7
   values plus one escape fact per block whose value is no key, so the
   database is not certain and Cert_2 saturates. A frozen copy of
   [Workload.Randdb.q3_components]: the pinned inputs must not move if
   that generator does. *)
let q3_components rng ~components =
  let fact k v = Relational.Fact.make "R" [ Relational.Value.int k; Relational.Value.int v ] in
  let component c =
    let value () = (c * 1000) + Random.State.int rng 7 in
    let draws = List.init 60 (fun _ -> (value (), value ())) in
    let keys = List.sort_uniq compare (List.map fst draws) in
    List.map (fun (k, v) -> fact k v) draws @ List.map (fun k -> fact k (1_000_000 + k)) keys
  in
  Relational.Database.of_facts [ Catalog.q3.Qlang.Query.schema ]
    (List.concat (List.init components component))

let component_cases () =
  List.iter
    (fun components ->
      let rng = Random.State.make [| 17; components |] in
      let db = q3_components rng ~components in
      case ~name:(Printf.sprintf "q3-components-%d" components) Catalog.q3 ~k:2 db)
    [ 2; 4; 8; 16 ]

(* The [cqa explain] repro: 378 q3 facts, certain under Cert_2 through a
   large derivation whose premises are shared many times over. *)
let repro_case () =
  let db =
    Workload.Randdb.random_for_query (Random.State.make [| 42 |]) Catalog.q3 ~n_facts:600
      ~domain:25
  in
  case ~name:"q3-repro-600/25" Catalog.q3 ~k:2 db

let () =
  random_cases ();
  component_cases ();
  repro_case ()
