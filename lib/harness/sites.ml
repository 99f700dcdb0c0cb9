let tripath = "tripath"
let compile = "compile"
let certk = "certk"
let certk_rounds = "certk-rounds"
let certk_naive = "certk-naive"
let matching = "matching"
let dpll = "dpll"
let brute = "brute"
let exact = "exact"
let montecarlo = "montecarlo"
let serve = "serve"

let all =
  [
    serve;
    tripath;
    compile;
    certk;
    certk_rounds;
    certk_naive;
    matching;
    dpll;
    brute;
    exact;
    montecarlo;
  ]
