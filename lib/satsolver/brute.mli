(** Exhaustive SAT baseline.

    Tries all [2^n] assignments; used as an independent oracle to validate
    {!Dpll} in tests. Guarded against accidental blow-ups. *)

(** [is_sat f] decides satisfiability by enumeration. One budget tick (site
    ["brute"]) is spent per assignment.
    @raise Invalid_argument if [f] has more than 25 variables.
    @raise Harness.Budget.Budget_exceeded when [budget] runs out. *)
val is_sat : ?budget:Harness.Budget.t -> Cnf.t -> bool

(** [count_models f] counts the satisfying assignments. Same guards. *)
val count_models : ?budget:Harness.Budget.t -> Cnf.t -> int
