type t = { n_left : int; n_right : int; offsets : int array; targets : int array }

let compare_edge (u1, v1) (u2, v2) =
  match Int.compare u1 u2 with 0 -> Int.compare v1 v2 | c -> c

(* Sorting the edges by (left, right) and dropping repeats lays them out
   row after row, each row ascending, which is the CSR order itself. *)
let make ~n_left ~n_right edges =
  if n_left < 0 || n_right < 0 then invalid_arg "Bipartite.make: negative size";
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= n_left || v < 0 || v >= n_right then
        invalid_arg
          (Printf.sprintf "Bipartite.make: edge (%d,%d) out of range" u v))
    edges;
  let edges = List.sort_uniq compare_edge edges in
  let offsets = Array.make (n_left + 1) 0 in
  List.iter (fun (u, _) -> offsets.(u + 1) <- offsets.(u + 1) + 1) edges;
  for u = 1 to n_left do
    offsets.(u) <- offsets.(u) + offsets.(u - 1)
  done;
  { n_left; n_right; offsets; targets = Array.of_list (List.map snd edges) }

let of_csr ~n_right ~offsets ~targets =
  let n_left = Array.length offsets - 1 in
  if n_left < 0 || n_right < 0 then invalid_arg "Bipartite.of_csr: negative size";
  if offsets.(0) <> 0 || offsets.(n_left) <> Array.length targets then
    invalid_arg "Bipartite.of_csr: offsets do not span the targets";
  for u = 0 to n_left - 1 do
    let lo = offsets.(u) and hi = offsets.(u + 1) in
    if hi < lo then invalid_arg "Bipartite.of_csr: offsets decrease";
    for k = lo to hi - 1 do
      let v = targets.(k) in
      if v < 0 || v >= n_right || (k > lo && v <= targets.(k - 1)) then
        invalid_arg
          (Printf.sprintf "Bipartite.of_csr: row %d is not ascending within 0..%d" u
             (n_right - 1))
    done
  done;
  { n_left; n_right; offsets; targets }

let n_edges g = Array.length g.targets

let rec mem_row targets v k hi = k < hi && (targets.(k) = v || mem_row targets v (k + 1) hi)

let mem_edge g u v =
  u >= 0 && u < g.n_left && mem_row g.targets v g.offsets.(u) g.offsets.(u + 1)

let pp ppf g =
  Format.fprintf ppf "@[<v>bipartite %dx%d@," g.n_left g.n_right;
  for u = 0 to g.n_left - 1 do
    Format.fprintf ppf "%d -> [%s]@," u
      (String.concat ","
         (List.init (g.offsets.(u + 1) - g.offsets.(u)) (fun k ->
              string_of_int g.targets.(g.offsets.(u) + k))))
  done;
  Format.fprintf ppf "@]"
