(* Prints one line per query: its name, the classifier's verdict and an MD5
   of the printed certificate, which holds the witness tripath or the
   search bounds of a non-existence claim. The catalogue is classified at
   the default search bounds, and every canonical query of the signatures
   [2,1], [3,1], [2,2] and [3,2] at the atlas's bulk bounds, so the file
   pins every verdict and every witness the tripath search returns. *)

module Dichotomy = Core.Dichotomy
module Atlas = Core.Atlas
module Catalog = Workload.Catalog

let line name (r : Dichotomy.report) =
  Printf.printf "%s | %s | %s\n" name
    (Dichotomy.verdict_summary r.Dichotomy.verdict)
    (Digest.to_hex
       (Digest.string (Format.asprintf "%a" Core.Certificate.pp r.Dichotomy.certificate)))

let () =
  List.iter
    (fun (e : Catalog.entry) -> line e.Catalog.name (Dichotomy.classify e.Catalog.query))
    Catalog.all;
  List.iter
    (fun (arity, key_len) ->
      List.iter
        (fun { Atlas.query; report } ->
          line (Printf.sprintf "[%d,%d] %s" arity key_len (Qlang.Query.to_string query)) report)
        (Atlas.classify_all (Atlas.enumerate ~arity ~key_len)))
    [ (2, 1); (3, 1); (2, 2); (3, 2) ]
