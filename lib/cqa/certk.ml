module Solution_graph = Qlang.Solution_graph
module Int_set = Set.Make (Int)

type reason =
  | Initial of int * int
  | Via_block of int * (int * int list) list

type certificate = { set : int list; why : reason; premises : certificate list }

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

(* A set of vertices is a k-set iff it has at most k elements and at most one
   vertex per block (so it extends to a repair). *)
let is_kset (g : Solution_graph.t) ~k s =
  List.length s <= k
  &&
  let blocks = List.map (fun v -> g.Solution_graph.block_of.(v)) s in
  List.length (List.sort_uniq Int.compare blocks) = List.length s

(* The fixpoint state. k-sets are interned: the sorted vertex list is the
   canonical form, [ids]/[sets] map it to a dense integer id and back, and
   all antichain bookkeeping ([minimal], [by_vertex], the [visited] memo in
   [derive_for_block]) compares ids instead of lists. The worklist [queue]
   holds the dirty blocks: a block re-derives only when a new minimal set
   touching one of its vertices was admitted since its last run. *)
type state = {
  ids : (int list, int) Hashtbl.t;  (* canonical sorted list -> id *)
  mutable sets : int list array;  (* id -> canonical sorted list *)
  mutable n_sets : int;
  mutable minimal : Int_set.t;  (* antichain of minimal derived sets *)
  by_vertex : Int_set.t array;  (* minimal members containing a vertex *)
  mutable empty_derived : bool;
  provenance : (int, reason) Hashtbl.t;
      (* how each set ever added was derived; never shrinks, so certificates
         survive antichain pruning *)
  block_of : int array;
  queue : int Queue.t;  (* dirty blocks, FIFO *)
  queued : bool array;
}

let intern st s =
  match Hashtbl.find_opt st.ids s with
  | Some id -> id
  | None ->
      let id = st.n_sets in
      if id = Array.length st.sets then begin
        let bigger = Array.make (max 64 (2 * id)) [] in
        Array.blit st.sets 0 bigger 0 id;
        st.sets <- bigger
      end;
      st.sets.(id) <- s;
      Hashtbl.add st.ids s id;
      st.n_sets <- id + 1;
      id

exception Found_subset

(* Any nonempty subset of [s] in the antichain contains some vertex of [s],
   so only the (small) [by_vertex] buckets of [s]'s own vertices need
   scanning — never the whole antichain. The empty set is covered by the
   [empty_derived] flag. *)
let subsumed st s =
  st.empty_derived
  ||
  try
    List.iter
      (fun v ->
        Int_set.iter
          (fun tid -> if is_subset st.sets.(tid) s then raise Found_subset)
          st.by_vertex.(v))
      s;
    false
  with Found_subset -> true

(* A freshly admitted set can only enable new derivations at blocks holding
   one of its vertices (a useful premise [T_u] must contain [u]). *)
let mark_dirty st s =
  List.iter
    (fun v ->
      let b = st.block_of.(v) in
      if not st.queued.(b) then begin
        st.queued.(b) <- true;
        Queue.add b st.queue
      end)
    s

let add_set st s reason =
  if subsumed st s then false
  else begin
    let id = intern st s in
    (match s with
    | [] ->
        (* ∅ subsumes everything: collapse the antichain and stop. *)
        st.minimal <- Int_set.singleton id;
        Array.fill st.by_vertex 0 (Array.length st.by_vertex) Int_set.empty;
        st.empty_derived <- true
    | v0 :: _ ->
        (* Remove supersets of the new minimal set from the antichain (their
           provenance is kept for certificate reconstruction). Every superset
           contains [v0], so its [by_vertex] bucket lists all candidates. *)
        let supersets =
          Int_set.filter (fun tid -> is_subset s st.sets.(tid)) st.by_vertex.(v0)
        in
        Int_set.iter
          (fun tid ->
            List.iter
              (fun v -> st.by_vertex.(v) <- Int_set.remove tid st.by_vertex.(v))
              st.sets.(tid))
          supersets;
        st.minimal <- Int_set.diff st.minimal supersets;
        st.minimal <- Int_set.add id st.minimal;
        List.iter (fun v -> st.by_vertex.(v) <- Int_set.add id st.by_vertex.(v)) s);
    if not (Hashtbl.mem st.provenance id) then Hashtbl.add st.provenance id reason;
    mark_dirty st s;
    true
  end

(* The inductive step for one block: derive S = union over u in B of
   (T_u \ {u}) for each choice of T_u in Delta containing u. Choices where
   T_u does not contain u are redundant: T_u ⊆ S then, so S is subsumed by
   the member T_u and yields no new minimal set. Partial unions that are
   already subsumed are pruned for the same reason: every extension of a
   subsumed union is subsumed. *)
let derive_for_block (g : Solution_graph.t) ~k ~budget st block =
  let members = Array.to_list g.Solution_graph.blocks.(block) in
  let changed = ref false in
  (* Distinct choice sequences frequently produce the same partial union;
     memoising on (remaining facts, partial union id) keeps the exploration
     polynomial in the size of the antichain instead of exponential in the
     block size. *)
  let visited = Hashtbl.create 64 in
  let rec choose acc acc_id chosen rem_n = function
    | [] ->
        if add_set st acc (Via_block (block, List.rev chosen)) then changed := true
    | u :: rest ->
        Harness.Budget.tick ~site:Harness.Sites.certk budget;
        let key = (rem_n, acc_id) in
        if not (Hashtbl.mem visited key) then begin
          Hashtbl.add visited key ();
          Int_set.iter
            (fun tid ->
              let t = st.sets.(tid) in
              let acc' = union_sorted acc (remove u t) in
              if is_kset g ~k acc' && not (subsumed st acc') then
                choose acc' (intern st acc') ((u, t) :: chosen) (rem_n - 1) rest)
            st.by_vertex.(u)
        end
  in
  choose [] (intern st []) [] (List.length members) members;
  !changed

let init_state (g : Solution_graph.t) =
  let n = Solution_graph.n_facts g in
  let n_blocks = Solution_graph.n_blocks g in
  {
    ids = Hashtbl.create 256;
    sets = Array.make 64 [];
    n_sets = 0;
    minimal = Int_set.empty;
    by_vertex = Array.make (max n 1) Int_set.empty;
    empty_derived = false;
    provenance = Hashtbl.create 64;
    block_of = g.Solution_graph.block_of;
    queue = Queue.create ();
    queued = Array.make (max n_blocks 1) false;
  }

(* Initial sets: minimal k-sets satisfying q — solution pairs across
   distinct blocks, and singletons for self-loop solutions. Each admission
   seeds the worklist with the blocks it touches. *)
let seed_initial (g : Solution_graph.t) ~k st =
  List.iter
    (fun (i, j) ->
      let s =
        if i = j then Some [ i ]
        else if g.Solution_graph.block_of.(i) <> g.Solution_graph.block_of.(j) then
          Some (List.sort_uniq Int.compare [ i; j ])
        else None
      in
      match s with
      | Some s when is_kset g ~k s -> ignore (add_set st s (Initial (i, j)))
      | Some _ | None -> ())
    g.Solution_graph.directed

(* Drain the worklist. Untouched blocks stay untouched: a block whose
   members all have empty [by_vertex] buckets can derive nothing, and it
   only becomes derivable once a set touching it is admitted — which
   enqueues it. *)
let drain ?(budget = Harness.Budget.unlimited ()) (g : Solution_graph.t) ~k st =
  while (not st.empty_derived) && not (Queue.is_empty st.queue) do
    let b = Queue.pop st.queue in
    st.queued.(b) <- false;
    ignore (derive_for_block g ~k ~budget st b)
  done

let fixpoint ?budget (g : Solution_graph.t) ~k =
  if k < 1 then invalid_arg "Certk: k must be >= 1";
  let st = init_state g in
  seed_initial g ~k st;
  drain ?budget g ~k st;
  st

let run ?budget ~k g = (fixpoint ?budget g ~k).empty_derived

let derived ~k g =
  let st = fixpoint g ~k in
  Int_set.elements st.minimal
  |> List.map (fun id -> st.sets.(id))
  |> List.sort (List.compare Int.compare)

(* Certificates: unfold provenance from the target set down to the initial
   solutions. Derivations are acyclic by construction (every premise was
   added strictly before the conclusion, and a pruned set is never
   re-admitted), so the recursion terminates. *)
let certificate ~k g =
  let st = fixpoint g ~k in
  if not st.empty_derived then None
  else
    let reason_of set =
      match Hashtbl.find_opt st.ids set with
      | None -> None
      | Some id -> Hashtbl.find_opt st.provenance id
    in
    let rec build set =
      match reason_of set with
      | None -> None
      | Some (Initial _ as why) -> Some { set; why; premises = [] }
      | Some (Via_block (_, choices) as why) ->
          let premises =
            List.filter_map (fun (_, t) -> build t) choices
          in
          if List.length premises = List.length choices then Some { set; why; premises }
          else None
    in
    build []

let rec pp_certificate_aux g indent ppf cert =
  let pp_set ppf s =
    if s = [] then Format.pp_print_string ppf "{}"
    else
      Format.fprintf ppf "{%s}"
        (String.concat ", "
           (List.map
              (fun v -> Relational.Fact.to_string g.Solution_graph.facts.(v))
              s))
  in
  (match cert.why with
  | Initial (i, j) ->
      Format.fprintf ppf "%s%a satisfies q: solution (%s, %s)@," indent pp_set cert.set
        (Relational.Fact.to_string g.Solution_graph.facts.(i))
        (Relational.Fact.to_string g.Solution_graph.facts.(j))
  | Via_block (b, choices) ->
      Format.fprintf ppf "%s%a derived via block %d using:@," indent pp_set cert.set b;
      List.iter
        (fun (u, t) ->
          Format.fprintf ppf "%s  fact %s with premise %a@," indent
            (Relational.Fact.to_string g.Solution_graph.facts.(u))
            pp_set t)
        choices);
  List.iter (pp_certificate_aux g (indent ^ "  ") ppf) cert.premises

let pp_certificate g ppf cert =
  Format.fprintf ppf "@[<v>";
  pp_certificate_aux g "" ppf cert;
  Format.fprintf ppf "@]"

let kappa (q : Qlang.Query.t) =
  let l = q.Qlang.Query.schema.Relational.Schema.key_len in
  let rec pow acc i = if i = 0 then acc else pow (acc * l) (i - 1) in
  if l = 0 then 1 else pow 1 l

let paper_k q =
  let kap = kappa q in
  if kap >= 30 then max_int
  else (1 lsl ((2 * kap) + 1)) + kap - 1
