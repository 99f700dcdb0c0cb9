module F = Folog.Formula
module S = Folog.Structure
module E = Folog.Eval
module Solution_graph = Qlang.Solution_graph

(* covered_S(u): some subset of S ∪ {u} is in Δ. The disjuncts enumerate the
   subsets by size; Delta0 covers the empty set. *)
let covered0 u = F.disj [ F.Atom ("Delta0", []); F.Atom ("Delta1", [ u ]) ]

let covered1 x u =
  F.disj
    [
      F.Atom ("Delta0", []);
      F.Atom ("Delta1", [ x ]);
      F.Atom ("Delta1", [ u ]);
      F.Atom ("Delta2", [ x; u ]);
    ]

let covered2 x y u =
  F.disj
    [
      F.Atom ("Delta0", []);
      F.Atom ("Delta1", [ x ]);
      F.Atom ("Delta1", [ y ]);
      F.Atom ("Delta1", [ u ]);
      F.Atom ("Delta2", [ x; y ]);
      F.Atom ("Delta2", [ x; u ]);
      F.Atom ("Delta2", [ y; u ]);
    ]

(* "There is a block B such that every fact u of B satisfies covered(u)":
   blocks are represented by any of their members w. *)
let exists_block covered =
  F.Exists
    ( "w",
      F.Forall ("u", F.Implies (F.Atom ("SameBlock", [ "u"; "w" ]), covered "u")) )

let formulas () =
  let step0 = exists_block (fun u -> covered0 u) in
  let step1 = exists_block (fun u -> covered1 "x" u) in
  let step2 =
    F.conj
      [
        F.Not (F.Eq ("x", "y"));
        F.Not (F.Atom ("SameBlock", [ "x"; "y" ]));
        exists_block (fun u -> covered2 "x" "y" u);
      ]
  in
  (step0, step1, step2)

let structure (g : Solution_graph.t) =
  let n = Solution_graph.n_facts g in
  let s = S.create ~size:n in
  S.declare s "Sol" 2;
  S.declare s "SameBlock" 2;
  S.declare s "Delta0" 0;
  S.declare s "Delta1" 1;
  S.declare s "Delta2" 2;
  List.iter (fun (i, j) -> S.add s "Sol" [ i; j ]) g.Solution_graph.directed;
  Array.iter
    (fun block ->
      Array.iter
        (fun i -> Array.iter (fun j -> S.add s "SameBlock" [ i; j ]) block)
        block)
    g.Solution_graph.blocks;
  s

let run (g : Solution_graph.t) =
  let s = structure g in
  let n = S.size s in
  (* Initial stage: solution pairs across blocks and self-solutions. *)
  for i = 0 to n - 1 do
    if S.mem s "Sol" [ i; i ] then S.add s "Delta1" [ i ]
  done;
  List.iter
    (fun (i, j) ->
      if i <> j && not (S.mem s "SameBlock" [ i; j ])
      then begin
        S.add s "Delta2" [ i; j ];
        S.add s "Delta2" [ j; i ]
      end)
    g.Solution_graph.directed;
  let step0, step1, step2 = formulas () in
  let changed = ref true in
  while (not (S.mem s "Delta0" [])) && !changed do
    changed := false;
    if E.holds s step0 then begin
      S.add s "Delta0" [];
      changed := true
    end;
    for x = 0 to n - 1 do
      if (not (S.mem s "Delta1" [ x ])) && E.eval s [ ("x", x) ] step1 then begin
        S.add s "Delta1" [ x ];
        changed := true
      end
    done;
    for x = 0 to n - 1 do
      for y = 0 to n - 1 do
        if
          (not (S.mem s "Delta2" [ x; y ]))
          && E.eval s [ ("x", x); ("y", y) ] step2
        then begin
          S.add s "Delta2" [ x; y ];
          S.add s "Delta2" [ y; x ];
          changed := true
        end
      done
    done
  done;
  S.mem s "Delta0" []
