type histogram = {
  h_bounds : float array;  (* strictly increasing inclusive upper bounds *)
  h_counts : int array;  (* length = length bounds + 1; last is overflow *)
  mutable h_count : int;
  mutable h_sum : float;
}

(* One shard = one writer. The hot path (bumping an existing counter ref or
   histogram bucket) takes no lock: under the single-writer-per-shard
   contract the only concurrent accesses are read-side (snapshot/merge from
   another domain), and word-sized loads/stores do not tear under the OCaml
   5 memory model — a reader may observe a slightly stale count, never a
   torn one. The shard mutex serializes only *structural* changes (adding a
   new table entry) against those readers, so a reader never folds over a
   hashtable mid-resize. *)
type shard = {
  s_counters : (string, int ref) Hashtbl.t;
  s_histograms : (string, histogram) Hashtbl.t;
  s_lock : Mutex.t;
}

type t = {
  default : shard;
  reg_lock : Mutex.t;  (* guards [extra] *)
  mutable extra : shard list;  (* newest first *)
}

let debug = ref false
let set_debug b = debug := b

let make_shard () =
  {
    s_counters = Hashtbl.create 16;
    s_histograms = Hashtbl.create 16;
    s_lock = Mutex.create ();
  }

let create () =
  { default = make_shard (); reg_lock = Mutex.create (); extra = [] }

let shard t =
  let s = make_shard () in
  Mutex.lock t.reg_lock;
  t.extra <- s :: t.extra;
  Mutex.unlock t.reg_lock;
  s

let shard_count t =
  Mutex.lock t.reg_lock;
  let n = 1 + List.length t.extra in
  Mutex.unlock t.reg_lock;
  n

(* All shards, default first, registration order after. *)
let all_shards t =
  Mutex.lock t.reg_lock;
  let ss = t.default :: List.rev t.extra in
  Mutex.unlock t.reg_lock;
  ss

let counter_ref s name =
  match Hashtbl.find_opt s.s_counters name with
  | Some r -> r
  | None ->
      Mutex.lock s.s_lock;
      let r = ref 0 in
      Hashtbl.add s.s_counters name r;
      Mutex.unlock s.s_lock;
      r

let shard_incr ?(by = 1) s name =
  let r = counter_ref s name in
  r := !r + by

let incr ?by t name = shard_incr ?by t.default name

let counter_value t name =
  List.fold_left
    (fun acc s ->
      match Hashtbl.find_opt s.s_counters name with
      | Some r -> acc + !r
      | None -> acc)
    0 (all_shards t)

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
let warned_lock = Mutex.create ()

let bounds_mismatch s name =
  shard_incr s "obs.bounds_mismatch";
  if !debug then
    invalid_arg
      (Printf.sprintf
         "Metrics.observe: histogram %s already exists with different bounds \
          (the first observation fixes the shape)"
         name)
  else begin
    Mutex.lock warned_lock;
    let fresh = not (Hashtbl.mem warned name) in
    if fresh then Hashtbl.add warned name ();
    Mutex.unlock warned_lock;
    if fresh then
      Printf.eprintf
        "obs: warning: histogram %s observed with different bounds; the \
         first observation fixed the shape\n\
         %!"
        name
  end

let shard_observe ?bounds s name x =
  let h =
    match Hashtbl.find_opt s.s_histograms name with
    | Some h ->
        (match bounds with
        | Some b when b <> Array.to_list h.h_bounds -> bounds_mismatch s name
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
        Mutex.lock s.s_lock;
        Hashtbl.add s.s_histograms name h;
        Mutex.unlock s.s_lock;
        h
  in
  let n = Array.length h.h_bounds in
  let rec bucket i = if i >= n || x <= h.h_bounds.(i) then i else bucket (i + 1) in
  let i = bucket 0 in
  h.h_counts.(i) <- h.h_counts.(i) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. x

let observe ?bounds t name x = shard_observe ?bounds t.default name x

(* Budget ticks are the hottest call site in the tree, and most runs tick
   one site in long runs — memoize the last (site, counter) pair so the
   steady state is a pointer compare and a ref bump, no string concat, no
   hash. The counter is still created lazily on first tick so registries
   that never tick stay empty. *)
let shard_tick_sink s =
  let last = ref None in
  fun site ->
    match !last with
    | Some (cached_site, r) when cached_site == site || String.equal cached_site site ->
        Stdlib.incr r
    | _ ->
        let name = "budget.tick." ^ if site = "" then "unnamed" else site in
        let r = counter_ref s name in
        last := Some (site, r);
        Stdlib.incr r

let tick_sink t = shard_tick_sink t.default

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

(* Read-side merge: fold every shard's tables into accumulators under the
   shard lock, then sort by name. A single-shard registry therefore
   snapshots to exactly what the pre-shard implementation produced. *)
let snapshot (t : t) =
  let counters = Hashtbl.create 32 in
  let histograms = Hashtbl.create 16 in
  List.iter
    (fun s ->
      Mutex.lock s.s_lock;
      Hashtbl.iter
        (fun name r ->
          match Hashtbl.find_opt counters name with
          | Some acc -> acc := !acc + !r
          | None -> Hashtbl.add counters name (ref !r))
        s.s_counters;
      Hashtbl.iter
        (fun name h ->
          (* The writer may bump a bucket between any two of our reads, so
             the buckets are read once and the count is their sum: a
             mid-run snapshot is stale but coherent, never count <> sum. *)
          let counts = Array.copy h.h_counts in
          let count = Array.fold_left ( + ) 0 counts in
          match Hashtbl.find_opt histograms name with
          | None ->
              Hashtbl.add histograms name
                {
                  h_bounds = h.h_bounds;
                  h_counts = counts;
                  h_count = count;
                  h_sum = h.h_sum;
                }
          | Some acc ->
              if acc.h_bounds <> h.h_bounds then
                invalid_arg
                  (Printf.sprintf
                     "Metrics.snapshot: histogram %s has different bounds \
                      across shards"
                     name);
              Array.iteri
                (fun i n -> acc.h_counts.(i) <- acc.h_counts.(i) + n)
                counts;
              acc.h_count <- acc.h_count + count;
              acc.h_sum <- acc.h_sum +. h.h_sum)
        s.s_histograms;
      Mutex.unlock s.s_lock)
    (all_shards t);
  {
    counters =
      Hashtbl.fold (fun name r acc -> (name, !r) :: acc) counters []
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
        histograms []
      |> List.sort by_name;
  }

let empty_snapshot = { counters = []; histograms = [] }

(* Fold a snapshot into a shard. Structural adds lock; in-place bumps rely
   on the caller being the shard's writer. *)
let merge_into_shard s (snap : snapshot) =
  List.iter (fun (name, n) -> shard_incr ~by:n s name) snap.counters;
  List.iter
    (fun (name, (hs : histogram_snapshot)) ->
      match Hashtbl.find_opt s.s_histograms name with
      | None ->
          validate_bounds hs.bounds;
          let counts = Array.of_list hs.counts in
          if Array.length counts <> List.length hs.bounds + 1 then
            invalid_arg "Metrics.merge: counts/bounds length mismatch";
          let h =
            {
              h_bounds = Array.of_list hs.bounds;
              h_counts = counts;
              h_count = hs.count;
              h_sum = hs.sum;
            }
          in
          Mutex.lock s.s_lock;
          Hashtbl.add s.s_histograms name h;
          Mutex.unlock s.s_lock
      | Some h ->
          if Array.to_list h.h_bounds <> hs.bounds then
            invalid_arg
              (Printf.sprintf "Metrics.merge: histogram %s has different bounds"
                 name);
          List.iteri (fun i n -> h.h_counts.(i) <- h.h_counts.(i) + n) hs.counts;
          h.h_count <- h.h_count + hs.count;
          h.h_sum <- h.h_sum +. hs.sum)
    snap.histograms

let merge t (s : snapshot) = merge_into_shard t.default s

let shard_snapshot s =
  let one = { default = s; reg_lock = Mutex.create (); extra = [] } in
  snapshot one

(* Fold every extra shard into the default one and drop them. Call after the
   shard writers have been joined — "merged at join" — so the totals read
   from the plain single-shard API are exact and later snapshots touch one
   table. *)
let merge_shards t =
  Mutex.lock t.reg_lock;
  let shards = List.rev t.extra in
  t.extra <- [];
  Mutex.unlock t.reg_lock;
  List.iter (fun s -> merge_into_shard t.default (shard_snapshot s)) shards

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
