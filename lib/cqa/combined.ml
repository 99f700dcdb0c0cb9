type witness = Via_certk | Via_matching | Neither

let explain ?budget ~k g =
  if Certk.run ?budget ~k g then Via_certk
  else if not (Matching_alg.run ?budget g) then Via_matching
  else Neither

let run ?budget ~k g =
  match explain ?budget ~k g with Via_certk | Via_matching -> true | Neither -> false
