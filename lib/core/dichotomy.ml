module Query = Qlang.Query

type ptime_method =
  | Trivial of Query.triviality
  | Cert2
  | Certk_no_tripath
  | Combined_triangle of Tripath.t

type hardness = Sjf_hard | Fork_tripath of Tripath.t

type verdict = Ptime of ptime_method | Conp_complete of hardness

type report = {
  query : Query.t;
  verdict : verdict;
  certificate : Certificate.t;
  two_way_determined : bool;
  bounded_search : bool;
}

let classify ?(opts = Tripath_search.default_options) ?timeout q =
  match Query.triviality q with
  | Some t ->
      {
        query = q;
        verdict = Ptime (Trivial t);
        certificate = Certificate.Trivial t;
        two_way_determined = false;
        bounded_search = false;
      }
  | None ->
      let inc = Certificate.inclusions_of q in
      if Syntactic.thm3_conp_hard q then
        {
          query = q;
          verdict = Conp_complete Sjf_hard;
          certificate = Certificate.Thm3_hard inc;
          two_way_determined = false;
          bounded_search = false;
        }
      else if Syntactic.thm4_ptime q then
        let orientation =
          match Certificate.thm4_orientation_of inc with
          | Some o -> o
          | None -> assert false (* thm4_ptime means condition (1) fails *)
        in
        {
          query = q;
          verdict = Ptime Cert2;
          certificate = Certificate.Thm4_ptime (inc, orientation);
          two_way_determined = false;
          bounded_search = false;
        }
      else begin
        (* 2way-determined: tripaths decide. *)
        assert (Syntactic.two_way_determined q);
        let bounds = Certificate.bounds_of_options opts in
        (* One budget for both searches: a classification runs at most
           [max_candidates] nodes in all. *)
        let budget = Tripath_search.budget ?timeout opts in
        match Tripath_search.find_fork ~opts ~budget q with
        | Tripath_search.Found (tp, _) ->
            {
              query = q;
              verdict = Conp_complete (Fork_tripath tp);
              certificate = Certificate.Fork_hard (inc, tp);
              two_way_determined = true;
              bounded_search = false;
            }
        | Tripath_search.Not_found -> (
            match Tripath_search.find_triangle ~opts ~budget q with
            | Tripath_search.Found (tp, _) ->
                {
                  query = q;
                  verdict = Ptime (Combined_triangle tp);
                  certificate = Certificate.Triangle_ptime (inc, tp, bounds);
                  two_way_determined = true;
                  bounded_search = true;
                }
            | Tripath_search.Not_found ->
                {
                  query = q;
                  verdict = Ptime Certk_no_tripath;
                  certificate = Certificate.No_tripath_ptime (inc, bounds);
                  two_way_determined = true;
                  bounded_search = true;
                })
      end

let verdict_summary = function
  | Ptime (Trivial _) -> "PTIME (equivalent to a one-atom query)"
  | Ptime Cert2 -> "PTIME (Theorem 4: Cert_2 exact)"
  | Ptime Certk_no_tripath -> "PTIME (Theorem 9: no tripath, Cert_k exact)"
  | Ptime (Combined_triangle _) ->
      "PTIME (Theorem 18: triangle-tripath only, Cert_k \u{2228} \u{00AC}Matching)"
  | Conp_complete Sjf_hard -> "coNP-complete (Theorem 3: self-join-free reduction)"
  | Conp_complete (Fork_tripath _) -> "coNP-complete (Theorem 12: fork-tripath)"

let pp_verdict ppf v = Format.pp_print_string ppf (verdict_summary v)

let explain ppf r =
  let q = r.query in
  let set_to_string s = "{" ^ String.concat ", " (Qlang.Term.Var_set.elements s) ^ "}" in
  Format.fprintf ppf "@[<v>query: %a@," Query.pp q;
  Format.fprintf ppf "vars(A) = %s, key(A) = %s@,"
    (set_to_string (Query.vars_a q))
    (set_to_string (Query.key_a q));
  Format.fprintf ppf "vars(B) = %s, key(B) = %s@,"
    (set_to_string (Query.vars_b q))
    (set_to_string (Query.key_b q));
  Format.fprintf ppf "shared variables = %s@," (set_to_string (Query.shared_vars q));
  (match Query.triviality q with
  | Some Query.Hom_a_to_b ->
      Format.fprintf ppf "triviality: a homomorphism maps A onto B fixing shared variables, so q \u{2261} B@,"
  | Some Query.Hom_b_to_a ->
      Format.fprintf ppf "triviality: a homomorphism maps B onto A fixing shared variables, so q \u{2261} A@,"
  | Some Query.Equal_key_tuples ->
      Format.fprintf ppf "triviality: key-bar(A) = key-bar(B), so over consistent databases q is a one-atom query@,"
  | None ->
      Format.fprintf ppf "not equivalent to a one-atom query@,";
      Format.fprintf ppf "Theorem 3 condition (1) [shared \u{2284} key(A), shared \u{2284} key(B), keys incomparable]: %b@,"
        (Syntactic.thm3_condition1 q);
      Format.fprintf ppf "Theorem 3 condition (2) [key(A) \u{2284} vars(B) or key(B) \u{2284} vars(A)]: %b@,"
        (Syntactic.thm3_condition2 q);
      if Syntactic.thm3_conp_hard q then
        Format.fprintf ppf "both hold: coNP-complete by the self-join-free reduction (Prop. 2 + Kolaitis\u{2013}Pema)@,"
      else if Syntactic.thm4_ptime q then
        Format.fprintf ppf "condition (1) fails: Theorem 4 applies, Cert_2 is exact@,"
      else begin
        Format.fprintf ppf "2way-determined: key(A) and key(B) incomparable, each inside the other atom's variables@,";
        match r.verdict with
        | Conp_complete (Fork_tripath tp) ->
            Format.fprintf ppf "fork-tripath found (%d blocks) \u{21D2} coNP-complete (Theorem 12):@,%a@,"
              (Tripath.n_blocks tp) Tripath.pp tp
        | Ptime (Combined_triangle tp) ->
            Format.fprintf ppf
              "no fork-tripath within bounds; triangle-tripath found (%d blocks) \u{21D2} PTIME via Cert_k \u{2228} \u{00AC}Matching (Theorems 14/18):@,%a@,"
              (Tripath.n_blocks tp) Tripath.pp tp
        | Ptime Certk_no_tripath ->
            Format.fprintf ppf "no tripath within the search bounds \u{21D2} PTIME via Cert_k (Theorem 9)@,"
        | Ptime (Trivial _) | Ptime Cert2 | Conp_complete Sjf_hard -> ()
      end);
  (* A verdict conditional on tripath non-existence states the bounds it was
     established under (satisfying audits that the claim is bounded). *)
  (match Certificate.search_bounds r.certificate with
  | Some b ->
      Format.fprintf ppf "tripath search bounds: %a@," Certificate.pp_bounds b
  | None -> ());
  Format.fprintf ppf "verdict: %a@]" pp_verdict r.verdict

let pp_report ppf r =
  Format.fprintf ppf "@[<v>query: %a@,verdict: %a@,2way-determined: %b%s@]"
    Query.pp r.query pp_verdict r.verdict r.two_way_determined
    (match Certificate.search_bounds r.certificate with
    | Some b when r.bounded_search ->
        Format.asprintf " (tripath non-existence within search bounds: %a)"
          Certificate.pp_bounds b
    | Some _ | None ->
        if r.bounded_search then " (tripath non-existence within search bounds)"
        else "")
