module Query = Qlang.Query
module Fact = Relational.Fact
module Value = Relational.Value
module Database = Relational.Database
module Solutions = Qlang.Solutions

type options = { max_blocks : int; max_candidates : int }

let default_options = { max_blocks = 12; max_candidates = 200_000 }

exception Found_exn of Tripath.t * Tripath.kind

module Key_set = Set.Make (struct
  type t = Value.t list

  let compare = List.compare Value.compare
end)

let find ?(opts = default_options) ?want (q : Query.t) db =
  let schema = q.Query.schema in
  let key f = Fact.key schema f in
  let facts = Array.of_list (Database.facts db) in
  let n = Array.length facts in
  (* Directed and symmetric solution adjacency, by fact index. *)
  let index =
    let m = ref Fact.Map.empty in
    Array.iteri (fun i f -> m := Fact.Map.add f i !m) facts;
    !m
  in
  let out_edges = Array.make (max n 1) [] in
  let in_edges = Array.make (max n 1) [] in
  let sym_edges = Array.make (max n 1) [] in
  List.iter
    (fun (f, g) ->
      let i = Fact.Map.find f index and j = Fact.Map.find g index in
      if i <> j then begin
        out_edges.(i) <- j :: out_edges.(i);
        in_edges.(j) <- i :: in_edges.(j);
        sym_edges.(i) <- j :: sym_edges.(i);
        sym_edges.(j) <- i :: sym_edges.(j)
      end)
    (Solutions.query_pairs q db);
  Array.iteri (fun i l -> sym_edges.(i) <- List.sort_uniq Int.compare l) sym_edges;
  (* As in [Tripath_search.budget]: the tick that would start node
     [max_candidates + 1] raises, so exactly [max_candidates] nodes run. *)
  let budget = Harness.Budget.make ~max_steps:(max 0 opts.max_candidates + 1) () in
  let tick () = Harness.Budget.tick ~site:Harness.Sites.tripath budget in
  let siblings i =
    Database.siblings db facts.(i)
    |> List.filter_map (fun f -> Fact.Map.find_opt f index)
  in
  let try_candidate candidate =
    tick ();
    match Tripath.check candidate with
    | Error _ -> ()
    | Ok kind ->
        let kind_ok = match want with None -> true | Some k -> k = kind in
        if kind_ok then raise (Found_exn (candidate, kind))
  in
  (* Grow one arm downward from the fact [cur_b] (already placed as the b of
     the current block). *)
  let rec grow_arm g_set cur_b used blocks n_blocks on_done =
    tick ();
    if not (Value.Set.subset g_set (Fact.key_set schema facts.(cur_b)))
    then on_done used (List.rev blocks) cur_b n_blocks;
    if n_blocks < opts.max_blocks then
      List.iter
        (fun sib ->
          let block = { Tripath.fa = facts.(sib); fb = facts.(cur_b) } in
          List.iter
            (fun child ->
              let child_key = key facts.(child) in
              if not (Key_set.mem child_key used) then
                grow_arm g_set child
                  (Key_set.add child_key used)
                  (block :: blocks) (n_blocks + 1) on_done)
            sym_edges.(sib))
        (siblings cur_b)
  in
  (* Grow the spine upward from [cur_b] (the b-fact of the current top
     block). *)
  let rec grow_up g_set cur_b used blocks n_blocks on_done =
    tick ();
    List.iter
      (fun parent ->
        let parent_key = key facts.(parent) in
        if not (Key_set.mem parent_key used) then begin
          let used' = Key_set.add parent_key used in
          (* Stop: [parent] is the root. *)
          if not (Value.Set.subset g_set (Fact.key_set schema facts.(parent)))
          then on_done used' facts.(parent) blocks (n_blocks + 1);
          (* Continue: [parent] gets a block-mate and the spine goes on. *)
          if n_blocks + 1 < opts.max_blocks then
            List.iter
              (fun sib ->
                let block = { Tripath.fa = facts.(parent); fb = facts.(sib) } in
                grow_up g_set sib used' (block :: blocks) (n_blocks + 1) on_done)
              (siblings parent)
        end)
      sym_edges.(cur_b)
  in
  let run_center d e f =
    let dk = key facts.(d) and ek = key facts.(e) and fk = key facts.(f) in
    if
      (not (List.equal Value.equal dk ek))
      && (not (List.equal Value.equal dk fk))
      && not (List.equal Value.equal ek fk)
    then begin
      let g_set = Tripath.g_set q ~d:facts.(d) ~e:facts.(e) ~f:facts.(f) in
      let used = Key_set.of_list [ dk; ek; fk ] in
      List.iter
        (fun e_sib ->
          let center = { Tripath.fa = facts.(e); fb = facts.(e_sib) } in
          grow_up g_set e_sib used [] 3 (fun used root spine n_blocks ->
              grow_arm g_set d used [] n_blocks (fun used arm1 leaf1 n_blocks1 ->
                  grow_arm g_set f used [] n_blocks1 (fun _used arm2 leaf2 _nb ->
                      try_candidate
                        {
                          Tripath.query = q;
                          root;
                          spine;
                          center;
                          arm1;
                          leaf1 = facts.(leaf1);
                          arm2;
                          leaf2 = facts.(leaf2);
                        }))))
        (siblings e)
    end
  in
  match
    for e = 0 to n - 1 do
      List.iter
        (fun d -> List.iter (fun f -> if d <> f then run_center d e f) out_edges.(e))
        in_edges.(e)
    done
  with
  | () -> (None, `Complete)
  | exception Found_exn (tp, kind) -> (Some (tp, kind), `Complete)
  | exception Harness.Budget.Budget_exceeded _ -> (None, `Exhausted)
