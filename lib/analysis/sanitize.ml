module Compiled = Relational.Compiled
module Interner = Relational.Interner
module Fact = Relational.Fact
module Value = Relational.Value
module Query = Qlang.Query
module Solutions = Qlang.Solutions
module Graph = Qlang.Solution_graph

let diag code message =
  { Lint.code; severity = Lint.Error; message; position = None }

(* Every check runs under a guard: a corrupt plane can crash the check
   itself (an out-of-range id pushed through the interner, a rel_of past the
   schema table, mismatched array lengths). The crash IS the finding — it is
   reported under the crashing check's code, and [run] never raises. *)
let guarded code f =
  try f ()
  with e ->
    [ diag code (Printf.sprintf "check crashed: %s" (Printexc.to_string e)) ]

(* Each check reports its first violation only: one corruption typically
   breaks an invariant at many sites, and the first site names the field. *)

(* PL100: id -> value -> id must be the identity. *)
let check_interner (c : Compiled.t) =
  let it = c.Compiled.interner in
  let n = Interner.size it in
  let rec go id =
    if id >= n then []
    else
      let v = Interner.value it id in
      match Interner.find it v with
      | Some id' when id' = id -> go (id + 1)
      | Some id' ->
          [
            diag "PL100"
              (Printf.sprintf
                 "interner is not a bijection: id %d holds value %s whose id \
                  is %d"
                 id (Value.to_string v) id');
          ]
      | None ->
          [
            diag "PL100"
              (Printf.sprintf
                 "interner is not a bijection: id %d holds value %s unknown \
                  to the reverse map"
                 id (Value.to_string v));
          ]
  in
  go 0

(* PL101: adom is exactly the dense id range [0 .. n_values - 1]. *)
let check_adom (c : Compiled.t) =
  let n = Interner.size c.Compiled.interner in
  if Array.length c.Compiled.adom <> n then
    [
      diag "PL101"
        (Printf.sprintf "adom has %d entries but the interner assigned %d ids"
           (Array.length c.Compiled.adom)
           n);
    ]
  else begin
    let rec go i =
      if i >= n then []
      else if c.Compiled.adom.(i) <> i then
        [
          diag "PL101"
            (Printf.sprintf "adom.(%d) = %d; expected the dense id %d" i
               c.Compiled.adom.(i) i);
        ]
      else go (i + 1)
    in
    go 0
  end

(* PL102: facts strictly sorted (sorted and duplicate-free in one test). *)
let check_facts_sorted (c : Compiled.t) =
  let facts = c.Compiled.facts in
  let rec go i =
    if i + 1 >= Array.length facts then []
    else
      let cmp = Fact.compare facts.(i) facts.(i + 1) in
      if cmp < 0 then go (i + 1)
      else
        [
          diag "PL102"
            (Printf.sprintf "facts.(%d) %s facts.(%d): %s vs %s" i
               (if cmp = 0 then "duplicates" else "is not below")
               (i + 1)
               (Fact.to_string facts.(i))
               (Fact.to_string facts.(i + 1)));
        ]
  in
  go 0

(* PL103: tuples.(i) is the interned image of facts.(i), cell by cell. *)
let check_tuples (c : Compiled.t) =
  let it = c.Compiled.interner in
  let n = Array.length c.Compiled.facts in
  if Array.length c.Compiled.tuples <> n then
    [
      diag "PL103"
        (Printf.sprintf "%d tuples for %d facts"
           (Array.length c.Compiled.tuples)
           n);
    ]
  else begin
    let rec go i =
      if i >= n then []
      else
        let f = c.Compiled.facts.(i) and tu = c.Compiled.tuples.(i) in
        if Array.length tu <> Fact.arity f then
          [
            diag "PL103"
              (Printf.sprintf "tuples.(%d) has %d cells but %s has arity %d" i
                 (Array.length tu) (Fact.to_string f) (Fact.arity f));
          ]
        else begin
          let rec cell p =
            if p >= Array.length tu then go (i + 1)
            else
              let v = Fact.nth f p in
              match Interner.find it v with
              | Some id when id = tu.(p) -> cell (p + 1)
              | Some id ->
                  [
                    diag "PL103"
                      (Printf.sprintf
                         "tuples.(%d).(%d) = %d but value %s interns to %d" i p
                         tu.(p) (Value.to_string v) id);
                  ]
              | None ->
                  [
                    diag "PL103"
                      (Printf.sprintf
                         "tuples.(%d).(%d) = %d but value %s was never \
                          interned"
                         i p tu.(p) (Value.to_string v));
                  ]
          in
          cell 0
        end
    in
    go 0
  end

(* PL104: schemas strictly sorted by name; rel_range a contiguous cover of
   the fact array; rel_of and relation symbols agreeing with the schemas. *)
let check_rels (c : Compiled.t) =
  let schemas = c.Compiled.schemas in
  let n = Array.length c.Compiled.facts in
  let n_rels = Array.length schemas in
  let bad = ref [] in
  let err fmt =
    Printf.ksprintf (fun m -> if !bad = [] then bad := [ diag "PL104" m ]) fmt
  in
  for r = 0 to n_rels - 2 do
    if
      String.compare schemas.(r).Relational.Schema.name
        schemas.(r + 1).Relational.Schema.name
      >= 0
    then
      err "schemas not strictly sorted: %s before %s"
        schemas.(r).Relational.Schema.name
        schemas.(r + 1).Relational.Schema.name
  done;
  if Array.length c.Compiled.rel_range <> n_rels then
    err "rel_range has %d entries for %d relations"
      (Array.length c.Compiled.rel_range)
      n_rels;
  if Array.length c.Compiled.rel_of <> n then
    err "rel_of has %d entries for %d facts" (Array.length c.Compiled.rel_of) n;
  if !bad = [] then begin
    let cursor = ref 0 in
    Array.iteri
      (fun r (s : Relational.Schema.t) ->
        let lo, hi = c.Compiled.rel_range.(r) in
        if lo <> !cursor || hi < lo || hi > n then
          err "rel_range.(%d) = [%d, %d) but the cursor is at %d of %d" r lo hi
            !cursor n
        else begin
          for i = lo to hi - 1 do
            if c.Compiled.rel_of.(i) <> r then
              err "rel_of.(%d) = %d inside the range of relation %d" i
                c.Compiled.rel_of.(i) r
            else if
              not
                (String.equal c.Compiled.facts.(i).Fact.rel
                   s.Relational.Schema.name)
            then
              err "facts.(%d) is %s inside the range of relation %s" i
                (Fact.to_string c.Compiled.facts.(i))
                s.Relational.Schema.name
          done;
          cursor := hi
        end)
      schemas;
    if !bad = [] && !cursor <> n then
      err "rel_range covers [0, %d) of %d facts" !cursor n
  end;
  !bad

(* PL105: blocks is a partition of the fact indices. *)
let check_partition (c : Compiled.t) =
  let n = Array.length c.Compiled.facts in
  let seen = Array.make n false in
  let bad = ref [] in
  let err fmt =
    Printf.ksprintf (fun m -> if !bad = [] then bad := [ diag "PL105" m ]) fmt
  in
  Array.iteri
    (fun b members ->
      if Array.length members = 0 then err "blocks.(%d) is empty" b;
      Array.iter
        (fun v ->
          if v < 0 || v >= n then
            err "blocks.(%d) contains fact index %d outside [0, %d)" b v n
          else if seen.(v) then
            err "fact index %d appears in more than one block" v
          else seen.(v) <- true)
        members)
    c.Compiled.blocks;
  if !bad = [] then
    Array.iteri
      (fun v covered ->
        if not covered then err "fact index %d belongs to no block" v)
      seen;
  !bad

(* PL106: block_of agrees with the partition. *)
let check_block_of (c : Compiled.t) =
  let n = Array.length c.Compiled.facts in
  let n_blocks = Array.length c.Compiled.blocks in
  let bad = ref [] in
  let err fmt =
    Printf.ksprintf (fun m -> if !bad = [] then bad := [ diag "PL106" m ]) fmt
  in
  if Array.length c.Compiled.block_of <> n then
    err "block_of has %d entries for %d facts"
      (Array.length c.Compiled.block_of)
      n;
  if !bad = [] then begin
    Array.iteri
      (fun i b ->
        if b < 0 || b >= n_blocks then
          err "block_of.(%d) = %d outside [0, %d)" i b n_blocks)
      c.Compiled.block_of;
    Array.iteri
      (fun b members ->
        Array.iter
          (fun v ->
            if c.Compiled.block_of.(v) <> b then
              err "blocks.(%d) contains fact %d but block_of.(%d) = %d" b v v
                c.Compiled.block_of.(v))
          members)
      c.Compiled.blocks
  end;
  !bad

(* Key equality of two facts on the interned plane: same relation and equal
   key prefix — all int comparisons. *)
let key_equal_int (c : Compiled.t) i j =
  c.Compiled.rel_of.(i) = c.Compiled.rel_of.(j)
  &&
  let l =
    c.Compiled.schemas.(c.Compiled.rel_of.(i)).Relational.Schema.key_len
  in
  let rec eq p =
    p >= l
    || (c.Compiled.tuples.(i).(p) = c.Compiled.tuples.(j).(p) && eq (p + 1))
  in
  eq 0

(* PL107: every block is key-homogeneous and blocks are exactly the maximal
   key-equal runs of the sorted fact array. *)
let check_grouping (c : Compiled.t) =
  let n = Array.length c.Compiled.facts in
  let bad = ref [] in
  let err fmt =
    Printf.ksprintf (fun m -> if !bad = [] then bad := [ diag "PL107" m ]) fmt
  in
  Array.iteri
    (fun b members ->
      if Array.length members > 0 then
        Array.iter
          (fun v ->
            if not (key_equal_int c members.(0) v) then
              err "blocks.(%d) mixes facts %d and %d with different keys" b
                members.(0) v)
          members)
    c.Compiled.blocks;
  if !bad = [] then
    for i = 0 to n - 2 do
      let same_block = c.Compiled.block_of.(i) = c.Compiled.block_of.(i + 1) in
      let same_key = key_equal_int c i (i + 1) in
      if same_key && not same_block then
        err "facts %d and %d are key-equal but blocks %d and %d split them" i
          (i + 1)
          c.Compiled.block_of.(i)
          c.Compiled.block_of.(i + 1)
      else if (not same_key) && same_block then
        err "facts %d and %d are not key-equal but share block %d" i (i + 1)
          c.Compiled.block_of.(i)
    done;
  !bad

module Fact_tbl = Hashtbl.Make (struct
  type t = Fact.t

  let equal = Fact.equal
  let hash = Fact.hash
end)

(* PL108: the solution graph against the independent substitution-based
   enumeration ([Solutions.pairs]) over the decompiled persistent
   database — a genuinely different code path from [Pattern.iter_pairs]. *)
let check_graph (c : Compiled.t) (q : Query.t) (g : Graph.t) =
  guarded "PL108" @@ fun () ->
  let n = Array.length c.Compiled.facts in
  if
    Array.length g.Graph.facts <> n
    || not (Array.for_all2 Fact.equal g.Graph.facts c.Compiled.facts)
  then
    [ diag "PL108" "graph vertex array differs from the plane's fact array" ]
  else if
    g.Graph.block_of <> c.Compiled.block_of
    || g.Graph.blocks <> c.Compiled.blocks
  then
    [ diag "PL108" "graph block structure differs from the plane's partition" ]
  else begin
    let db = Compiled.decompile c in
    let idx = Fact_tbl.create (max 16 (2 * n)) in
    Array.iteri (fun i f -> Fact_tbl.replace idx f i) c.Compiled.facts;
    let expected =
      Solutions.pairs q.Query.a q.Query.b db
      |> List.map (fun (f, f') -> (Fact_tbl.find idx f, Fact_tbl.find idx f'))
    in
    let sorted = List.sort compare in
    if sorted expected <> sorted g.Graph.directed then
      [
        diag "PL108"
          (Printf.sprintf
             "directed solution list disagrees with the independent \
              enumeration (%d solutions vs %d expected)"
             (List.length g.Graph.directed)
             (List.length expected));
      ]
    else begin
      let self = Array.make n false in
      let adj_sets = Array.make n [] in
      List.iter
        (fun (i, j) ->
          if i = j then self.(i) <- true
          else begin
            adj_sets.(i) <- j :: adj_sets.(i);
            adj_sets.(j) <- i :: adj_sets.(j)
          end)
        expected;
      let adj = Array.map (List.sort_uniq Int.compare) adj_sets in
      if g.Graph.self <> self then
        [ diag "PL108" "graph self-loops disagree with the enumeration" ]
      else if g.Graph.adj <> adj then
        [ diag "PL108" "graph adjacency disagrees with the enumeration" ]
      else []
    end
  end

(* PL109: an [apply_delta] result must be exactly the delta image of the
   plane it patched — same schemas, the fact array equal to the authoring
   plane's [Delta.apply], and an interner that preserved every pre-delta id
   (retractions never shrink it). Checked against the persistent plane
   through [decompile], the same independence discipline as PL108. *)
let check_delta ~before ~delta after =
  guarded "PL109" (fun () ->
      let module Database = Relational.Database in
      let module Delta = Relational.Delta in
      let module Schema = Relational.Schema in
      let sb = before.Compiled.schemas and sa = after.Compiled.schemas in
      if
        Array.length sb <> Array.length sa
        || not (Array.for_all2 (fun (x : Schema.t) y -> x = y) sb sa)
      then [ diag "PL109" "delta changed the schema set" ]
      else
        let expected =
          Database.facts (Delta.apply (Compiled.decompile before) delta)
        in
        if
          not
            (List.equal Fact.equal expected
               (Array.to_list after.Compiled.facts))
        then
          [
            diag "PL109"
              "patched fact array is not the delta image of the old plane";
          ]
        else
          let ib = before.Compiled.interner
          and ia = after.Compiled.interner in
          if Interner.size ia < Interner.size ib then
            [
              diag "PL109"
                (Printf.sprintf "interner shrank across the delta: %d -> %d"
                   (Interner.size ib) (Interner.size ia));
            ]
          else begin
            let bad = ref [] in
            Interner.iter
              (fun id v ->
                if
                  !bad = []
                  && not (Value.equal (Interner.value ia id) v)
                then
                  bad :=
                    [
                      diag "PL109"
                        (Printf.sprintf
                           "interned id %d remapped across the delta" id);
                    ])
              ib;
            !bad
          end)

let run ?query c =
  let base =
    guarded "PL100" (fun () -> check_interner c)
    @ guarded "PL101" (fun () -> check_adom c)
    @ guarded "PL102" (fun () -> check_facts_sorted c)
    @ guarded "PL103" (fun () -> check_tuples c)
    @ guarded "PL104" (fun () -> check_rels c)
    @ guarded "PL105" (fun () -> check_partition c)
    @ guarded "PL106" (fun () -> check_block_of c)
    @ guarded "PL107" (fun () -> check_grouping c)
  in
  match query with
  | None -> base
  | Some q ->
      let patterns =
        guarded "PL110" (fun () -> Verify_pattern.verify_query c q)
      in
      let graph =
        guarded "PL108" (fun () ->
            check_graph c q (Graph.of_query_compiled q c))
      in
      base @ patterns @ graph

let analyze ?opts ?block_threshold ?(sanitize = true) ?db ?plane parsed =
  let source = Lint.lint_spanned ?opts parsed in
  match parsed with
  | Error _ -> source (* nothing to compile; QL000/QL003 already said so *)
  | Ok (q, _) ->
      let planes =
        if not sanitize then []
        else
          run ~query:q
            (match (plane, db) with
            | Some plane, _ -> plane
            | None, Some db -> Compiled.compile db
            | None, None ->
                Compiled.compile
                  (Relational.Database.of_facts [ q.Query.schema ] []))
      in
      let instance =
        match db with
        | None -> []
        | Some db -> Lint.lint_database ?block_threshold ~query:q db
      in
      source @ planes @ instance

exception Gate of string

(* The gate runs on every plane-cache insert, so its loops are written for
   the instruction count, not for elegance: record fields hoisted into
   locals once, per-relation key lengths precomputed, and [unsafe_get] used
   only on indices a preceding check already validated (fact indices after
   the range cover, relation indices after the [rel_of] agreement, tuple
   cells after the arity check). Violations are cold paths — the [fail]
   formatting cost never shows up on healthy planes. *)
let gate (c : Compiled.t) =
  let fail code fmt =
    Printf.ksprintf (fun m -> raise (Gate (code ^ ": " ^ m))) fmt
  in
  try
    let tuples = c.Compiled.tuples in
    let rel_of = c.Compiled.rel_of in
    let rel_range = c.Compiled.rel_range in
    let schemas = c.Compiled.schemas in
    let blocks = c.Compiled.blocks in
    let block_of = c.Compiled.block_of in
    let adom = c.Compiled.adom in
    let n = Array.length c.Compiled.facts in
    let n_values = Interner.size c.Compiled.interner in
    let n_rels = Array.length schemas in
    (* PL101: dense adom. *)
    if Array.length adom <> n_values then
      fail "PL101" "adom has %d entries for %d interned ids"
        (Array.length adom) n_values;
    for i = 0 to n_values - 1 do
      if Array.unsafe_get adom i <> i then
        fail "PL101" "adom.(%d) = %d" i adom.(i)
    done;
    (* PL104 + PL103: ranges cover, rel_of agrees, arities match, every
       tuple cell inside the interner domain. *)
    if
      Array.length rel_range <> n_rels
      || Array.length rel_of <> n
      || Array.length tuples <> n
    then fail "PL104" "side-table lengths disagree with the fact count";
    let cursor = ref 0 in
    for r = 0 to n_rels - 1 do
      let lo, hi = rel_range.(r) in
      if lo <> !cursor || hi < lo || hi > n then
        fail "PL104" "rel_range.(%d) = [%d, %d) at cursor %d" r lo hi !cursor;
      let arity = schemas.(r).Relational.Schema.arity in
      for i = lo to hi - 1 do
        if Array.unsafe_get rel_of i <> r then
          fail "PL104" "rel_of.(%d) = %d in relation %d's range" i
            rel_of.(i) r;
        let tu = Array.unsafe_get tuples i in
        if Array.length tu <> arity then
          fail "PL103" "tuples.(%d) has %d cells for arity %d" i
            (Array.length tu) arity;
        for p = 0 to arity - 1 do
          let id = Array.unsafe_get tu p in
          if id < 0 || id >= n_values then
            fail "PL103"
              "tuples.(%d).(%d) = %d outside the interner domain [0, %d)" i p
              id n_values
        done
      done;
      cursor := hi
    done;
    if !cursor <> n then
      fail "PL104" "rel_range covers [0, %d) of %d facts" !cursor n;
    (* From here every fact index in [0, n) has a validated [rel_of] entry
       and a validated tuple, so the int-only key equality below may use
       unchecked accesses. *)
    let key_lens =
      Array.map (fun (s : Relational.Schema.t) -> s.Relational.Schema.key_len)
        schemas
    in
    let key_equal i j =
      let ri = Array.unsafe_get rel_of i in
      ri = Array.unsafe_get rel_of j
      &&
      let l = Array.unsafe_get key_lens ri in
      let ti = Array.unsafe_get tuples i and tj = Array.unsafe_get tuples j in
      let p = ref 0 in
      while !p < l && Array.unsafe_get ti !p = Array.unsafe_get tj !p do
        incr p
      done;
      !p >= l
    in
    (* PL105 + PL106 + PL107: partition, inverse, key homogeneity. *)
    if Array.length block_of <> n then
      fail "PL106" "block_of has %d entries for %d facts"
        (Array.length block_of) n;
    let seen = Array.make n false in
    for b = 0 to Array.length blocks - 1 do
      let members = Array.unsafe_get blocks b in
      let m = Array.length members in
      if m = 0 then fail "PL105" "blocks.(%d) is empty" b;
      let head = members.(0) in
      for k = 0 to m - 1 do
        let v = Array.unsafe_get members k in
        if v < 0 || v >= n then
          fail "PL105" "blocks.(%d) holds index %d outside [0, %d)" b v n;
        if Array.unsafe_get seen v then fail "PL105" "fact %d in two blocks" v;
        Array.unsafe_set seen v true;
        if Array.unsafe_get block_of v <> b then
          fail "PL106" "block_of.(%d) = %d but the fact sits in block %d" v
            block_of.(v) b;
        if not (key_equal head v) then
          fail "PL107" "blocks.(%d) mixes keys (facts %d and %d)" b head v
      done
    done;
    for v = 0 to n - 1 do
      if not (Array.unsafe_get seen v) then fail "PL105" "fact %d in no block" v
    done;
    (* PL107: blocks are exactly the maximal key-equal runs. *)
    for i = 0 to n - 2 do
      let same_block =
        Array.unsafe_get block_of i = Array.unsafe_get block_of (i + 1)
      in
      if key_equal i (i + 1) then begin
        if not same_block then
          fail "PL107" "key-equal facts %d and %d in different blocks" i (i + 1)
      end
      else if same_block then
        fail "PL107" "non-key-equal facts %d and %d share a block" i (i + 1)
    done;
    Ok ()
  with
  | Gate m -> Error m
  | e -> Error (Printf.sprintf "gate crashed: %s" (Printexc.to_string e))
