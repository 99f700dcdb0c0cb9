module Query = Qlang.Query
module Atom = Qlang.Atom
module Term = Qlang.Term
module Subst = Qlang.Subst
module Unify = Qlang.Unify
module Fact = Relational.Fact
module Value = Relational.Value
module Budget = Harness.Budget

type options = {
  max_spine : int;
  max_arm : int;
  max_merges : int;
  max_candidates : int;
}

let default_options =
  { max_spine = 3; max_arm = 3; max_merges = 2; max_candidates = 200_000 }

type outcome = Found of Tripath.t * Tripath.kind | Not_found

(* Symbolic facts are atoms; a symbolic inner block pairs two of them. *)
type sym_inner = { sa : Atom.t; sb : Atom.t }

type candidate = {
  subst : Subst.t;
  root : Atom.t;
  spine : sym_inner list;
  center : sym_inner;
  arm1 : sym_inner list;
  leaf1 : Atom.t;
  arm2 : sym_inner list;
  leaf2 : Atom.t;
}

exception Found_exn of Tripath.t * Tripath.kind * Tripath.nice_witness option

(* ------------------------------------------------------------------ *)
(* Fresh copies and siblings                                           *)

let copy_query gen (q : Query.t) =
  let mapping = Hashtbl.create 8 in
  let rename v =
    match Hashtbl.find_opt mapping v with
    | Some v' -> v'
    | None ->
        let v' = Unify.Fresh.name gen in
        Hashtbl.add mapping v v';
        v'
  in
  (Atom.rename rename q.Query.a, Atom.rename rename q.Query.b)

(* Sibling of a symbolic fact: same key terms, fresh non-key variables.
   Returns [None] when the relation has no non-key position (blocks of size
   two are then impossible). *)
let sibling gen (q : Query.t) subst atom =
  let schema = q.Query.schema in
  let l = schema.Relational.Schema.key_len in
  let arity = schema.Relational.Schema.arity in
  if l = arity then None
  else
    let atom = Subst.apply_atom subst atom in
    let args =
      Array.init arity (fun i ->
          if i < l then Atom.nth atom i else Unify.Fresh.var gen)
    in
    Some (Atom.of_array atom.Atom.rel args)

(* ------------------------------------------------------------------ *)
(* Symbolic endpoint pruning                                           *)

let term_key_set (q : Query.t) subst atom =
  List.fold_left
    (fun acc t -> Term.Set.add (Subst.apply_term subst t) acc)
    Term.Set.empty
    (Atom.key_tuple q.Query.schema (Subst.apply_atom subst atom))

(* Symbolic g(e): under the final distinct-constant instantiation, two terms
   denote the same element iff they are syntactically equal, so the concrete
   five-case definition can be evaluated on term sets. Subsethood can only
   grow under later unifications, so pruning a stop point whose endpoint key
   already includes g(e) is safe. *)
let g_sym (q : Query.t) subst ~d ~e ~f =
  let kd = term_key_set q subst d
  and ke = term_key_set q subst e
  and kf = term_key_set q subst f in
  let sub = Term.Set.subset in
  if sub kd ke && not (sub kf ke) then kd
  else if (not (sub kd ke)) && sub kf ke then kf
  else if sub kd kf && sub kf ke then kd
  else if sub kf kd && sub kd ke then kf
  else ke

let endpoint_not_pruned (q : Query.t) subst ~d ~e ~f endpoint =
  not (Term.Set.subset (g_sym q subst ~d ~e ~f) (term_key_set q subst endpoint))

(* [placed] holds one atom per tree block placed so far: the center's
   [d], [e] and [f], each spine parent and the root, each arm's b fact and
   the leaves. The blocks of a tripath have pairwise distinct keys, and a
   unifier only ever identifies terms, so two key tuples that are equal
   under [subst] stay equal in every extension of it, and every completion
   fails {!Tripath.check} with "two tree blocks share a key". *)
let keys_distinct (q : Query.t) subst placed =
  let keys =
    List.map (fun atom -> Atom.key_tuple q.Query.schema (Subst.apply_atom subst atom)) placed
  in
  List.length (List.sort_uniq (List.compare Term.compare) keys) = List.length keys

(* ------------------------------------------------------------------ *)
(* Instantiation and verification                                      *)

(* Grounds atoms under [subst], mapping each variable to a fresh constant
   θi in order of first occurrence. The map is injective and no query
   mentions a θ constant, so two terms denote the same element iff they are
   syntactically equal, whichever grounder produced them. *)
let grounder subst =
  let counter = ref 0 in
  let assignment = Hashtbl.create 32 in
  let value_of v =
    match Hashtbl.find_opt assignment v with
    | Some value -> value
    | None ->
        let value = Value.tag "\u{03B8}" (Value.int !counter) in
        incr counter;
        Hashtbl.add assignment v value;
        value
  in
  fun atom ->
    let atom = Subst.apply_atom subst atom in
    Fact.of_array atom.Atom.rel
      (Array.map
         (function Term.Cst value -> value | Term.Var v -> value_of v)
         atom.Atom.args)

let instantiate (q : Query.t) candidate =
  let ground = grounder candidate.subst in
  let ground_inner blk = { Tripath.fa = ground blk.sa; fb = ground blk.sb } in
  {
    Tripath.query = q;
    root = ground candidate.root;
    spine = List.map ground_inner candidate.spine;
    center = ground_inner candidate.center;
    arm1 = List.map ground_inner candidate.arm1;
    leaf1 = ground candidate.leaf1;
    arm2 = List.map ground_inner candidate.arm2;
    leaf2 = ground candidate.leaf2;
  }

(* The kind of the center facts [d] and [f] under [subst], exactly as
   {!Tripath.check} decides it on the instantiated tripath: the solution
   q(f d) exists iff it exists on any injective grounding. A unifier only
   identifies terms, so a solution q(f d) found here stays one in every
   extension of [subst]: a triangle stays a triangle. *)
let kind_at (q : Query.t) subst ~d ~f =
  let ground = grounder subst in
  if Qlang.Solutions.query_solution_pair q (ground f) (ground d) then Tripath.Triangle
  else Tripath.Fork

(* A candidate's [d] and [f] are the b facts of its arms' first blocks, or
   its leaves. *)
let kind_of (q : Query.t) candidate =
  let first_b arm leaf = match arm with blk :: _ -> blk.sb | [] -> leaf in
  kind_at q candidate.subst
    ~d:(first_b candidate.arm1 candidate.leaf1)
    ~f:(first_b candidate.arm2 candidate.leaf2)

(* ------------------------------------------------------------------ *)
(* Search                                                              *)

(* Negative depths or merges would silently shrink the search (no center
   variant at all for [max_merges < 0]), and a budget below one runs no
   node at all; either way [Not_found] would read as "no tripath". *)
let validate opts =
  List.iter
    (fun (name, value, least) ->
      if value < least then
        invalid_arg (Printf.sprintf "Tripath_search: %s must be >= %d" name least))
    [
      ("max_spine", opts.max_spine, 0);
      ("max_arm", opts.max_arm, 0);
      ("max_merges", opts.max_merges, 0);
      ("max_candidates", opts.max_candidates, 1);
    ]

(* [Budget.tick] raises on the tick that brings its count up to
   [max_steps], so the [max_candidates]-th node still runs and the next one
   stops the search. *)
let budget ?timeout opts =
  Budget.make ?timeout ~max_steps:(opts.max_candidates + 1) ()

let search_internal ?(opts = default_options) ?budget:shared ?want ~require_nice
    (q : Query.t) =
  validate opts;
  let budget = match shared with Some b -> b | None -> budget opts in
  let tick () = Budget.tick ~site:Harness.Sites.tripath budget in
  let gen = Unify.Fresh.create ~prefix:"\u{03C3}" () in
  let wanted kind = match want with None -> true | Some k -> k = kind in
  (* The kind is decided first, so a candidate of the wrong kind is skipped
     without being instantiated or verified. *)
  let try_candidate candidate =
    tick ();
    if want = None || wanted (kind_of q candidate) then
      let tripath = instantiate q candidate in
      match Tripath.check tripath with
      | Ok kind when wanted kind ->
          if require_nice then
            match Tripath.niceness tripath with
            | Ok (kind, witness) -> raise (Found_exn (tripath, kind, Some witness))
            | Error _ -> ()
          else raise (Found_exn (tripath, kind, None))
      | Ok _ | Error _ -> ()
  in
  (* Grow one arm downward from [cur_b], which [placed] already holds.
     [on_done] receives (subst, placed, blocks, leaf). *)
  let rec grow_arm subst ~d ~e ~f placed cur_b blocks depth on_done =
    tick ();
    (* Stop: the current block is the leaf, containing only [cur_b]. *)
    if endpoint_not_pruned q subst ~d ~e ~f cur_b then
      on_done subst placed (List.rev blocks) cur_b;
    if depth < opts.max_arm then
      match sibling gen q subst cur_b with
      | None -> ()
      | Some sib ->
          let block = { sa = sib; sb = Subst.apply_atom subst cur_b } in
          List.iter
            (fun orientation ->
              let a_copy, b_copy = copy_query gen q in
              let pattern, child =
                match orientation with
                | `AB -> (a_copy, b_copy) (* q(sib, child) *)
                | `BA -> (b_copy, a_copy) (* q(child, sib) *)
              in
              match Unify.atoms subst pattern sib with
              | None -> ()
              | Some subst' ->
                  let child_b = Subst.apply_atom subst' child in
                  let placed = child_b :: placed in
                  if keys_distinct q subst' placed then
                    grow_arm subst' ~d ~e ~f placed child_b (block :: blocks) (depth + 1)
                      on_done)
            [ `AB; `BA ]
  in
  (* Grow the spine upward from the center sibling. [on_done] receives
     (subst, placed, root, spine_top_down). *)
  let rec grow_up subst ~d ~e ~f placed cur_b blocks depth on_done =
    tick ();
    List.iter
      (fun orientation ->
        let a_copy, b_copy = copy_query gen q in
        let pattern, parent =
          match orientation with
          | `AB -> (b_copy, a_copy) (* q(parent, cur_b) *)
          | `BA -> (a_copy, b_copy) (* q(cur_b, parent) *)
        in
        match Unify.atoms subst pattern cur_b with
        | None -> ()
        | Some subst' ->
            let parent_a = Subst.apply_atom subst' parent in
            (* The parent's block is the root or a spine block: either way
               its key is placed. *)
            let placed = parent_a :: placed in
            if keys_distinct q subst' placed then begin
              (* Stop: parent is the root. *)
              if endpoint_not_pruned q subst' ~d ~e ~f parent_a then
                on_done subst' placed parent_a blocks;
              (* Continue: the parent is an internal block. *)
              if depth < opts.max_spine then
                match sibling gen q subst' parent_a with
                | None -> ()
                | Some sib ->
                    let block = { sa = Subst.apply_atom subst' parent_a; sb = sib } in
                    grow_up subst' ~d ~e ~f placed sib (block :: blocks) (depth + 1) on_done
            end)
      [ `AB; `BA ]
  in
  (* Center variants: the mgu of the branching pattern, optionally with the
     triangle constraint and/or extra variable identifications. *)
  let base_center () =
    let a1, b1 = copy_query gen q in
    let a2, b2 = copy_query gen q in
    match Unify.atoms Subst.empty b1 a2 with
    | None -> None
    | Some subst -> Some (subst, a1, b1, b2)
    (* d = a1, e = b1 (= a2), f = b2 *)
  in
  let center_vars subst atoms =
    List.fold_left
      (fun acc atom -> Term.Var_set.union acc (Atom.vars (Subst.apply_atom subst atom)))
      Term.Var_set.empty atoms
    |> Term.Var_set.elements
  in
  let merge_choices subst d e f =
    let vars = center_vars subst [ d; e; f ] in
    let pairs =
      List.concat_map
        (fun v1 ->
          List.filter_map
            (fun v2 -> if String.compare v1 v2 < 0 then Some (v1, v2) else None)
            vars)
        vars
    in
    (* Merge sets of size 0, 1, ..., max_merges, in that order. *)
    let rec subsets_of_size k lst =
      if k = 0 then [ [] ]
      else
        match lst with
        | [] -> []
        | x :: rest ->
            List.map (fun s -> x :: s) (subsets_of_size (k - 1) rest)
            @ subsets_of_size k rest
    in
    List.concat_map (fun k -> subsets_of_size k pairs)
      (List.init (opts.max_merges + 1) (fun i -> i))
  in
  let apply_merges subst merges =
    List.fold_left
      (fun acc (v1, v2) ->
        match acc with
        | None -> None
        | Some s -> Unify.terms s (Term.Var v1) (Term.Var v2))
      (Some subst) merges
  in
  let run_center subst d e f =
    (* [d] and [f] sit in the arms' first blocks (or are the leaves), so
       their keys are placed with the center's. A fork search skips a
       center whose q(f d) already holds: every completion is a triangle. *)
    let placed = [ e; d; f ] in
    if keys_distinct q subst placed
       && not (want = Some Tripath.Fork && kind_at q subst ~d ~f = Tripath.Triangle)
    then
      match sibling gen q subst e with
      | None -> () (* the center block needs two facts *)
      | Some e_sib ->
          let center = { sa = Subst.apply_atom subst e; sb = e_sib } in
          grow_up subst ~d ~e ~f placed e_sib [] 0 (fun subst placed root spine ->
              grow_arm subst ~d ~e ~f placed (Subst.apply_atom subst d) [] 0
                (fun subst placed arm1 leaf1 ->
                  grow_arm subst ~d ~e ~f placed (Subst.apply_atom subst f) [] 0
                    (fun subst _ arm2 leaf2 ->
                      try_candidate
                        { subst; root; spine; center; arm1; leaf1; arm2; leaf2 })))
  in
  try
    (match base_center () with
    | None -> ()
    | Some (subst0, d, e, f) ->
        let variants =
          (* The plain mgu center, all merge variants, and — when searching
             for triangles — the center with q(fd) enforced by unification. *)
          let merged =
            List.filter_map
              (fun merges -> apply_merges subst0 merges)
              (merge_choices subst0 d e f)
          in
          let triangle_enforced =
            if want = Some Tripath.Triangle || want = None then
              List.filter_map
                (fun subst ->
                  let a3, b3 = copy_query gen q in
                  match Unify.atoms subst a3 (Subst.apply_atom subst f) with
                  | None -> None
                  | Some s -> Unify.atoms s b3 (Subst.apply_atom s d))
                merged
            else []
          in
          merged @ triangle_enforced
        in
        List.iter (fun subst -> run_center subst d e f) variants);
    None
  with Found_exn (tripath, kind, witness) -> Some (tripath, kind, witness)

let search ?opts ?budget ?want q =
  match search_internal ?opts ?budget ?want ~require_nice:false q with
  | Some (tripath, kind, _) -> Found (tripath, kind)
  | None -> Not_found

let find_any ?opts q = search ?opts q
let find_fork ?opts ?budget q = search ?opts ?budget ~want:Tripath.Fork q
let find_triangle ?opts ?budget q = search ?opts ?budget ~want:Tripath.Triangle q

let find_nice ?(opts = default_options) ~want q =
  validate opts;
  (* Nice tripaths tend to need slightly longer arms; widen the bounds. *)
  let opts = { opts with max_spine = max 3 opts.max_spine; max_arm = max 4 opts.max_arm } in
  match search_internal ~opts ~want ~require_nice:true q with
  | Some (tripath, _, Some witness) -> Some (tripath, witness)
  | Some (_, _, None) | None -> None
