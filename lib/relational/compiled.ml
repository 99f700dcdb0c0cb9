type t = {
  interner : Interner.t;
  schemas : Schema.t array;
  facts : Fact.t array;
  tuples : int array array;
  rel_of : int array;
  rel_range : (int * int) array;
  blocks : int array array;
  block_of : int array;
  adom : int array;
}

(* Chaos-injection hook: applied to every compiled plane so tests can model
   a corruption arising anywhere downstream of compile. *)
let test_corruption : (t -> t) option ref = ref None
let set_test_corruption f = test_corruption := f

(* The relation ranges and the block partition of a sorted plane, shared by
   [compile] and [apply_delta]. Sorted fact order is (relation, tuple) order
   and keys are tuple prefixes, so both are consecutive runs of the fact
   array: one forward walk finds the ranges, another numbers the blocks in
   the (relation, key) order of [Database.blocks], and a third fills each
   block's array once their count is known. *)
let partition schemas tuples rel_of =
  let n = Array.length tuples in
  let rel_range = Array.make (Array.length schemas) (0, 0) in
  let cursor = ref 0 in
  for r = 0 to Array.length schemas - 1 do
    let start = !cursor in
    while !cursor < n && rel_of.(!cursor) = r do
      incr cursor
    done;
    rel_range.(r) <- (start, !cursor)
  done;
  let block_of = Array.make n (-1) in
  let n_blocks = ref 0 in
  for i = 0 to n - 1 do
    let same_block =
      i > 0
      && rel_of.(i) = rel_of.(i - 1)
      &&
      let l = schemas.(rel_of.(i)).Schema.key_len in
      let a = tuples.(i) and b = tuples.(i - 1) in
      let p = ref 0 in
      while !p < l && a.(!p) = b.(!p) do
        incr p
      done;
      !p >= l
    in
    if not same_block then incr n_blocks;
    block_of.(i) <- !n_blocks - 1
  done;
  let blocks = Array.make !n_blocks [||] in
  let i = ref 0 in
  while !i < n do
    let start = !i in
    while !i < n && block_of.(!i) = block_of.(start) do
      incr i
    done;
    let b = Array.make (!i - start) start in
    for d = 1 to !i - start - 1 do
      b.(d) <- start + d
    done;
    blocks.(block_of.(start)) <- b
  done;
  (rel_range, blocks, block_of)

(* [tuples.(i)] is [facts.(i)]'s values interned, one tick per fact. *)
let intern_tuples tick interner facts =
  Array.map
    (fun (f : Fact.t) ->
      tick ();
      let tuple = f.Fact.tuple in
      let ids = Array.make (Array.length tuple) 0 in
      for p = 0 to Array.length tuple - 1 do
        ids.(p) <- Interner.intern interner tuple.(p)
      done;
      ids)
    facts

let no_tick () = ()

let compile ?(tick = no_tick) db =
  let schemas = Array.of_list (Database.schemas db) in
  let n = Database.size db in
  let set = Database.fact_set db in
  let facts = if n = 0 then [||] else Array.make n (Fact.Set.min_elt set) in
  let w = ref 0 in
  Fact.Set.iter
    (fun f ->
      facts.(!w) <- f;
      incr w)
    set;
  let interner = Interner.create () in
  let tuples = intern_tuples tick interner facts in
  (* [schemas] is sorted by name, so one forward walk over the sorted facts
     assigns [rel_of]. *)
  let rel_of = Array.make n (-1) in
  let cursor = ref 0 in
  Array.iteri
    (fun r (s : Schema.t) ->
      while
        !cursor < n && String.equal facts.(!cursor).Fact.rel s.Schema.name
      do
        rel_of.(!cursor) <- r;
        incr cursor
      done)
    schemas;
  let rel_range, blocks, block_of = partition schemas tuples rel_of in
  let adom = Array.init (Interner.size interner) Fun.id in
  let c =
    { interner; schemas; facts; tuples; rel_of; rel_range; blocks; block_of;
      adom }
  in
  match !test_corruption with None -> c | Some f -> f c

let rel_index c name =
  (* [schemas] is sorted by name; binary search. *)
  let lo = ref 0 and hi = ref (Array.length c.schemas) in
  let found = ref None in
  while !found = None && !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let cmp = String.compare name c.schemas.(mid).Schema.name in
    if cmp = 0 then found := Some mid
    else if cmp < 0 then hi := mid
    else lo := mid + 1
  done;
  !found

(* ------------------------------------------------------------------ *)
(* Incremental maintenance                                             *)

(* Same structured errors as [Database.add], so the plane-side delta raises
   exactly when the authoring-plane [Delta.apply] would. *)
let check_insert c (f : Fact.t) =
  match rel_index c f.Fact.rel with
  | None ->
      invalid_arg (Printf.sprintf "Database: undeclared relation %s" f.Fact.rel)
  | Some r ->
      let s = c.schemas.(r) in
      if s.Schema.arity <> Fact.arity f then
        invalid_arg
          (Format.asprintf "Database: fact %a has wrong arity for schema %a"
             Fact.pp f Schema.pp s);
      r

(* Binary search in the sorted fact array. *)
let find_fact c f =
  let lo = ref 0 and hi = ref (Array.length c.facts) and found = ref (-1) in
  while !found < 0 && !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let cmp = Fact.compare f c.facts.(mid) in
    if cmp = 0 then found := mid else if cmp < 0 then hi := mid else lo := mid + 1
  done;
  if !found >= 0 then Some !found else None

let apply_delta ?tick c (ops : Delta.t) =
  let tick () = match tick with Some tick -> tick () | None -> () in
  (* Net effect of the trace (last op naming a fact wins — [add]/[remove]
     are idempotent and membership-driven), validating every insert op the
     way [Database.add] does, whether or not it ends up a no-op. *)
  let final =
    List.fold_left
      (fun acc op ->
        match op with
        | Delta.Insert f ->
            ignore (check_insert c f);
            Fact.Map.add f true acc
        | Delta.Retract f -> Fact.Map.add f false acc)
      Fact.Map.empty ops
  in
  let inserts = ref [] and retracts = ref [] in
  Fact.Map.iter
    (fun f present ->
      match (find_fact c f, present) with
      | None, true -> inserts := (f, check_insert c f) :: !inserts
      | Some i, false -> retracts := i :: !retracts
      | _ -> ())
    final;
  (* [Fact.Map.iter] is ascending, so after the reversal both arrays are in
     fact order — which for the retract indices is array order. *)
  let ins_arr = Array.of_list (List.rev !inserts) in
  let ret_arr = Array.of_list (List.rev !retracts) in
  let n_ins = Array.length ins_arr and n_ret = Array.length ret_arr in
  if n_ins = 0 && n_ret = 0 then c
  else begin
    let n_old = Array.length c.facts in
    let n_new = n_old - n_ret + n_ins in
    (* Copy-on-patch: every array below is fresh and the interner is copied
       before the first new id is minted, so the pre-delta plane stays fully
       valid — a fault anywhere in here leaves the old plane intact. *)
    let interner =
      if
        Array.exists
          (fun ((f : Fact.t), _) ->
            Array.exists (fun v -> Interner.find c.interner v = None) f.Fact.tuple)
          ins_arr
      then Interner.copy c.interner
      else c.interner
    in
    let dummy = if n_old > 0 then c.facts.(0) else fst ins_arr.(0) in
    let facts' = Array.make n_new dummy in
    let tuples' = Array.make n_new [||] in
    let rel_of' = Array.make n_new (-1) in
    (* Each insert's slot in the old order is found once by binary search;
       the merge below then advances on integer comparisons alone instead
       of a [Fact.compare] per surviving fact. Inserts are ascending (the
       net map iterates in fact order) so the positions are nondecreasing,
       and ties between inserts aimed at the same slot resolve in fact
       order too. *)
    let ins_pos =
      Array.map
        (fun (f, _) ->
          let lo = ref 0 and hi = ref n_old in
          while !lo < !hi do
            let mid = (!lo + !hi) / 2 in
            if Fact.compare c.facts.(mid) f < 0 then lo := mid + 1 else hi := mid
          done;
          !lo)
        ins_arr
    in
    let w = ref 0 and oi = ref 0 and ii = ref 0 and ri = ref 0 in
    while !oi < n_old || !ii < n_ins do
      if !ii < n_ins && ins_pos.(!ii) <= !oi then begin
        tick ();
        let f, r = ins_arr.(!ii) in
        facts'.(!w) <- f;
        tuples'.(!w) <- Array.map (Interner.intern interner) f.Fact.tuple;
        rel_of'.(!w) <- r;
        incr w;
        incr ii
      end
      else if !ri < n_ret && ret_arr.(!ri) = !oi then begin
        tick ();
        incr oi;
        incr ri
      end
      else begin
        (* Maximal run of consecutive survivors up to the next insert slot
           or retract: moved wholesale with [Array.blit] (one write-barrier
           check per segment instead of one per pointer write). *)
        let stop = ref n_old in
        if !ii < n_ins && ins_pos.(!ii) < !stop then stop := ins_pos.(!ii);
        if !ri < n_ret && ret_arr.(!ri) < !stop then stop := ret_arr.(!ri);
        let len = !stop - !oi in
        Array.blit c.facts !oi facts' !w len;
        Array.blit c.tuples !oi tuples' !w len;
        Array.blit c.rel_of !oi rel_of' !w len;
        w := !w + len;
        oi := !stop
      end
    done;
    (* The interner copy preserves ids, so prefix equality of interned
       tuples is value equality and [partition] finds the blocks a fresh
       compile would. *)
    let rel_range, blocks, block_of = partition c.schemas tuples' rel_of' in
    let plane =
      {
        interner;
        schemas = c.schemas;
        facts = facts';
        tuples = tuples';
        rel_of = rel_of';
        rel_range;
        blocks;
        block_of;
        (* An interner that was not copied minted no id, so the old active
           domain is still exact. *)
        adom =
          (if interner == c.interner then c.adom
           else Array.init (Interner.size interner) Fun.id);
      }
    in
    match !test_corruption with None -> plane | Some f -> f plane
  end

type patch = { plane : t }

let apply_delta_patch ?tick c ops = { plane = apply_delta ?tick c ops }

let decompile c =
  let fact_of_tuple i =
    let s = c.schemas.(c.rel_of.(i)) in
    Fact.of_array s.Schema.name (Array.map (Interner.value c.interner) c.tuples.(i))
  in
  Database.of_facts
    (Array.to_list c.schemas)
    (List.init (Array.length c.tuples) fact_of_tuple)

let n_facts c = Array.length c.facts
let n_blocks c = Array.length c.blocks
let n_values c = Interner.size c.interner
let n_relations c = Array.length c.schemas
let fact c i = c.facts.(i)
let value c id = Interner.value c.interner id
let find_value c v = Interner.find c.interner v

let is_consistent c = Array.for_all (fun b -> Array.length b = 1) c.blocks

let pp ppf c =
  Format.fprintf ppf "compiled plane: %d facts, %d blocks, %d values, %d relations"
    (n_facts c) (n_blocks c) (n_values c) (n_relations c)

module Unsafe = struct
  let of_parts ~interner ~schemas ~facts ~tuples ~rel_of ~rel_range ~blocks
      ~block_of ~adom =
    { interner; schemas; facts; tuples; rel_of; rel_range; blocks; block_of;
      adom }

  let corrupt_first_cell_out_of_domain c =
    if Array.length c.tuples = 0 || Array.length c.tuples.(0) = 0 then
      invalid_arg "Compiled.Unsafe.corrupt_first_cell_out_of_domain: empty plane";
    let tuples = Array.map Array.copy c.tuples in
    tuples.(0).(0) <- Interner.size c.interner;
    { c with tuples }
end
