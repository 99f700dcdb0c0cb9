module Solution_graph = Qlang.Solution_graph

module Set_set = Set.Make (struct
  type t = int list

  let compare = List.compare Int.compare
end)

(* Enumerate every k-set: choose at most one vertex from each block, at most
   k vertices in total. *)
let all_ksets ~budget (g : Solution_graph.t) ~k =
  let blocks = Array.to_list g.Solution_graph.blocks in
  let limit = 1_000_000 in
  let count = ref 0 in
  let rec go acc size = function
    | [] -> [ acc ]
    | block :: rest ->
        let without = go acc size rest in
        if size >= k then without
        else
          List.fold_left
            (fun sets v ->
              Harness.Budget.tick ~site:Harness.Sites.certk_naive budget;
              incr count;
              if !count > limit then
                invalid_arg "Certk_naive: too many k-sets (use Certk instead)";
              List.rev_append (go (v :: acc) (size + 1) rest) sets)
            without (Array.to_list block)
  in
  List.map (List.sort Int.compare) (go [] 0 blocks)

let satisfies (g : Solution_graph.t) s =
  List.exists (fun v -> g.Solution_graph.self.(v)) s
  || List.exists
       (fun v -> List.exists (fun w -> w <> v && List.mem w g.Solution_graph.adj.(v)) s)
       s

let rec is_subset xs ys =
  match (xs, ys) with
  | [], _ -> true
  | _, [] -> false
  | x :: xs', y :: ys' ->
      if x = y then is_subset xs' ys'
      else if x > y then is_subset xs ys'
      else false

let fixpoint ?(budget = Harness.Budget.unlimited ()) (g : Solution_graph.t) ~k =
  if k < 1 then invalid_arg "Certk_naive: k must be >= 1";
  let ksets = all_ksets ~budget g ~k in
  let delta = ref Set_set.empty in
  List.iter (fun s -> if satisfies g s then delta := Set_set.add s !delta) ksets;
  let member_subset_of s =
    Set_set.exists (fun t -> is_subset t s) !delta
  in
  let blocks = Array.to_list g.Solution_graph.blocks in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun s ->
        Harness.Budget.tick ~site:Harness.Sites.certk_naive budget;
        if not (Set_set.mem s !delta) then
          let derivable =
            List.exists
              (fun block ->
                Array.for_all
                  (fun u -> member_subset_of (List.sort_uniq Int.compare (u :: s)))
                  block)
              blocks
          in
          if derivable then begin
            delta := Set_set.add s !delta;
            changed := true
          end)
      ksets
  done;
  !delta

let run ?budget ~k g = Set_set.mem [] (fixpoint ?budget g ~k)
let delta ?budget ~k g = Set_set.elements (fixpoint ?budget g ~k)
