(* Prints one line per query: its name, the classifier's verdict and an MD5
   of the printed certificate, which holds the witness tripath or the
   search bounds of a non-existence claim. The catalogue is classified at
   the default search bounds, every canonical query of the signatures
   [2,1], [3,1], [2,2] and [3,2] at the reduced bounds [small] (the file
   was generated at them, and a non-existence certificate prints its
   bounds), and every canonical query of [4,1] and [4,2] whose
   classification searches for tripaths (the 2way-determined ones) at the
   default bounds, so the file pins every verdict and every witness the
   tripath search returns. *)

module Dichotomy = Core.Dichotomy
module Atlas = Core.Atlas
module Catalog = Workload.Catalog

let line name (r : Dichotomy.report) =
  Printf.printf "%s | %s | %s\n" name
    (Dichotomy.verdict_summary r.Dichotomy.verdict)
    (Digest.to_hex
       (Digest.string (Format.asprintf "%a" Core.Certificate.pp r.Dichotomy.certificate)))

let atlas ?opts ~only_searched (arity, key_len) =
  List.iter
    (fun { Atlas.query; report } ->
      if report.Dichotomy.two_way_determined || not only_searched then
        line (Printf.sprintf "[%d,%d] %s" arity key_len (Qlang.Query.to_string query)) report)
    (Atlas.classify_all ?opts (Atlas.enumerate ~arity ~key_len))

let small =
  {
    Core.Tripath_search.max_spine = 2;
    max_arm = 2;
    max_merges = 1;
    max_candidates = 50_000;
  }

let () =
  List.iter
    (fun (e : Catalog.entry) -> line e.Catalog.name (Dichotomy.classify e.Catalog.query))
    Catalog.all;
  List.iter (atlas ~opts:small ~only_searched:false) [ (2, 1); (3, 1); (2, 2); (3, 2) ];
  List.iter (atlas ~only_searched:true) [ (4, 1); (4, 2) ]
