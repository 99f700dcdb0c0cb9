let run ?budget ~k g = Certk.run ?budget ~k g || not (Matching_alg.run ?budget g)
