module Solution_graph = Qlang.Solution_graph

module Int_list_set = Set.Make (struct
  type t = int list

  let compare = List.compare Int.compare
end)

module Int_list_map = Map.Make (struct
  type t = int list

  let compare = List.compare Int.compare
end)

type reason =
  | Initial of int * int
  | Via_block of int * (int * int list) list

(* Sorted-list utilities for k-sets. *)

let rec union_sorted xs ys =
  match (xs, ys) with
  | [], l | l, [] -> l
  | x :: xs', y :: ys' ->
      if x = y then x :: union_sorted xs' ys'
      else if x < y then x :: union_sorted xs' ys
      else y :: union_sorted xs ys'

let rec is_subset xs ys =
  match (xs, ys) with
  | [], _ -> true
  | _, [] -> false
  | x :: xs', y :: ys' ->
      if x = y then is_subset xs' ys'
      else if x > y then is_subset xs ys'
      else false

let remove x l = List.filter (fun y -> y <> x) l

let is_kset (g : Solution_graph.t) ~k s =
  List.length s <= k
  &&
  let blocks = List.map (fun v -> g.Solution_graph.block_of.(v)) s in
  List.length (List.sort_uniq Int.compare blocks) = List.length s

type state = {
  mutable minimal : Int_list_set.t;
  by_vertex : Int_list_set.t array;
  mutable empty_derived : bool;
  mutable provenance : reason Int_list_map.t;
}

let subsumed state s =
  state.empty_derived
  || Int_list_set.exists (fun t -> is_subset t s) state.minimal

let add_set state s reason =
  if not (subsumed state s) then begin
    let supersets = Int_list_set.filter (fun t -> is_subset s t) state.minimal in
    state.minimal <- Int_list_set.diff state.minimal supersets;
    Int_list_set.iter
      (fun t ->
        List.iter
          (fun v -> state.by_vertex.(v) <- Int_list_set.remove t state.by_vertex.(v))
          t)
      supersets;
    state.minimal <- Int_list_set.add s state.minimal;
    List.iter (fun v -> state.by_vertex.(v) <- Int_list_set.add s state.by_vertex.(v)) s;
    if not (Int_list_map.mem s state.provenance) then
      state.provenance <- Int_list_map.add s reason state.provenance;
    if s = [] then state.empty_derived <- true;
    true
  end
  else false

let derive_for_block (g : Solution_graph.t) ~k ~budget state block =
  let members = Array.to_list g.Solution_graph.blocks.(block) in
  let changed = ref false in
  let visited = Hashtbl.create 64 in
  let rec choose acc chosen = function
    | [] ->
        if add_set state acc (Via_block (block, List.rev chosen)) then changed := true
    | u :: rest as remaining ->
        Harness.Budget.tick ~site:Harness.Sites.certk_rounds budget;
        let key = (List.length remaining, acc) in
        if not (Hashtbl.mem visited key) then begin
          Hashtbl.add visited key ();
          Int_list_set.iter
            (fun t ->
              let acc' = union_sorted acc (remove u t) in
              if is_kset g ~k acc' && not (subsumed state acc') then
                choose acc' ((u, t) :: chosen) rest)
            state.by_vertex.(u)
        end
  in
  choose [] [] members;
  !changed

let fixpoint ?(budget = Harness.Budget.unlimited ()) (g : Solution_graph.t) ~k =
  if k < 1 then invalid_arg "Certk_rounds: k must be >= 1";
  let n = Solution_graph.n_facts g in
  let state =
    {
      minimal = Int_list_set.empty;
      by_vertex = Array.make (max n 1) Int_list_set.empty;
      empty_derived = false;
      provenance = Int_list_map.empty;
    }
  in
  List.iter
    (fun (i, j) ->
      let s =
        if i = j then Some [ i ]
        else if g.Solution_graph.block_of.(i) <> g.Solution_graph.block_of.(j) then
          Some (List.sort_uniq Int.compare [ i; j ])
        else None
      in
      match s with
      | Some s when is_kset g ~k s -> ignore (add_set state s (Initial (i, j)))
      | Some _ | None -> ())
    g.Solution_graph.directed;
  let n_blocks = Solution_graph.n_blocks g in
  let continue = ref true in
  while !continue && not state.empty_derived do
    continue := false;
    for b = 0 to n_blocks - 1 do
      if not state.empty_derived then
        if derive_for_block g ~k ~budget state b then continue := true
    done
  done;
  state

let run ?budget ~k g = (fixpoint ?budget g ~k).empty_derived
let derived ~k g = Int_list_set.elements (fixpoint g ~k).minimal
