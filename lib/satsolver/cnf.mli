(** CNF formulas.

    Variables are the integers [1 .. n_vars]; a literal is a non-zero integer
    whose sign is its polarity (DIMACS convention); a clause is a list of
    literals. This substrate drives the coNP-hardness experiment of
    Theorem 12: 3-SAT formulas with at most three occurrences per variable
    are compiled into databases. *)

type clause = int list

type t = private { n_vars : int; clauses : clause list }

(** [make ~n_vars clauses] validates that every literal mentions a variable
    in [1 .. n_vars].
    @raise Invalid_argument otherwise, or if a clause is empty — represent an
    unsatisfiable formula with [falsum]. *)
val make : n_vars:int -> clause list -> t

(** The canonical unsatisfiable formula (a single empty clause is not
    representable; this is [x ∧ ¬x]). *)
val falsum : t

(** The empty (valid) formula. *)
val verum : t

val n_clauses : t -> int

(** [eval f assignment] evaluates under [assignment.(v)] for [v] in
    [1 .. n_vars] (index 0 unused).
    @raise Invalid_argument if the array is too short. *)
val eval : t -> bool array -> bool

(** [occurrences f] maps each variable to its number of literal occurrences
    (array of size [n_vars + 1]). *)
val occurrences : t -> int array

(** [polarities f] maps each variable [v] to [(pos, neg)] occurrence counts. *)
val polarities : t -> (int * int) array

(** Clause lists per variable are handy for gadget construction:
    [clauses_of_var f v] lists the 0-based indices of clauses containing [v]
    (either polarity), in order. *)
val clauses_of_var : t -> int -> int list

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** DIMACS-like parser: [p cnf n m] header optional; clauses are
    whitespace-separated literals terminated by [0]. *)
val parse : string -> (t, string) result
