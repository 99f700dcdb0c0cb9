type histogram = {
  h_bounds : float array;  (* strictly increasing inclusive upper bounds *)
  h_counts : int array;  (* length = length bounds + 1; last is overflow *)
  mutable h_count : int;
  mutable h_sum : float;
}

type t = {
  counters : (string, int ref) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
}

let debug = ref false
let set_debug b = debug := b
let create () = { counters = Hashtbl.create 16; histograms = Hashtbl.create 16 }

let counter_ref t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add t.counters name r;
      r

let incr ?(by = 1) t name =
  let r = counter_ref t name in
  r := !r + by

let counter_value t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let default_bounds = [ 0.01; 0.1; 1.; 10.; 100.; 1_000.; 10_000.; 100_000. ]

let validate_bounds bounds =
  if bounds = [] then invalid_arg "Metrics.observe: bounds must be non-empty";
  let rec strictly_increasing = function
    | a :: (b :: _ as rest) ->
        if a >= b then
          invalid_arg "Metrics.observe: bounds must be strictly increasing"
        else strictly_increasing rest
    | _ -> ()
  in
  strictly_increasing bounds

(* The first observation fixes a histogram's shape; silently accepting
   disagreeing [~bounds] afterwards was a footgun (the caller thinks it
   changed the buckets, the registry ignored it). Meter the mismatch so it
   is visible in every snapshot, warn once per name, and raise when the
   debug flag is set so tests can assert the contract. *)
let warned = Hashtbl.create 4

let bounds_mismatch t name =
  incr t "obs.bounds_mismatch";
  if !debug then
    invalid_arg
      (Printf.sprintf
         "Metrics.observe: histogram %s already exists with different bounds \
          (the first observation fixes the shape)"
         name)
  else if not (Hashtbl.mem warned name) then begin
    Hashtbl.add warned name ();
    Printf.eprintf
      "obs: warning: histogram %s observed with different bounds; the first \
       observation fixed the shape\n\
       %!"
      name
  end

let observe ?bounds t name x =
  let h =
    match Hashtbl.find_opt t.histograms name with
    | Some h ->
        (match bounds with
        | Some b when b <> Array.to_list h.h_bounds -> bounds_mismatch t name
        | _ -> ());
        h
    | None ->
        let bounds = Option.value ~default:default_bounds bounds in
        validate_bounds bounds;
        let h_bounds = Array.of_list bounds in
        let h =
          {
            h_bounds;
            h_counts = Array.make (Array.length h_bounds + 1) 0;
            h_count = 0;
            h_sum = 0.;
          }
        in
        Hashtbl.add t.histograms name h;
        h
  in
  let n = Array.length h.h_bounds in
  let rec bucket i = if i >= n || x <= h.h_bounds.(i) then i else bucket (i + 1) in
  let i = bucket 0 in
  h.h_counts.(i) <- h.h_counts.(i) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. x

let record_ticks t budget =
  List.iter
    (fun (site, n) ->
      incr ~by:n t ("budget.tick." ^ if site = "" then "unnamed" else site))
    (Harness.Budget.steps_by_site budget)

type histogram_snapshot = {
  bounds : float list;
  counts : int list;
  count : int;
  sum : float;
}

type snapshot = {
  counters : (string * int) list;
  histograms : (string * histogram_snapshot) list;
}

let by_name (a, _) (b, _) = compare (a : string) b

let snapshot (t : t) =
  {
    counters =
      Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.counters []
      |> List.sort by_name;
    histograms =
      Hashtbl.fold
        (fun name h acc ->
          ( name,
            {
              bounds = Array.to_list h.h_bounds;
              counts = Array.to_list h.h_counts;
              count = h.h_count;
              sum = h.h_sum;
            } )
          :: acc)
        t.histograms []
      |> List.sort by_name;
  }

let empty_snapshot = { counters = []; histograms = [] }

let quantile (h : histogram_snapshot) q =
  if h.count <= 0 then None
  else
    let q = Float.max 0. (Float.min 1. q) in
    let target = q *. float_of_int h.count in
    let bounds = Array.of_list h.bounds in
    let counts = Array.of_list h.counts in
    let n = Array.length bounds in
    let rec go i cum =
      if i >= Array.length counts then Some bounds.(n - 1)
      else
        let cum' = cum + counts.(i) in
        if counts.(i) > 0 && float_of_int cum' >= target then
          if i >= n then
            (* Overflow bucket has no upper edge; the last bound is the
               tightest claim the histogram can back. *)
            Some bounds.(n - 1)
          else
            let lower = if i = 0 then 0. else bounds.(i - 1) in
            let frac =
              (target -. float_of_int cum) /. float_of_int counts.(i)
            in
            Some (lower +. (Float.max 0. frac *. (bounds.(i) -. lower)))
        else go (i + 1) cum'
    in
    go 0 0
