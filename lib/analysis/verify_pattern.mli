(** Static verification of compiled pattern programs.

    {!Qlang.Pattern} lowers atoms to [Const]/[Bind]/[Check] slot programs
    executed by a flat int-array interpreter. The matcher's safety rests on
    three properties the compiler is supposed to guarantee: every
    environment slot index is in bounds, no slot is read ([Check]) before
    some earlier op binds it, and every [Const] operand is an id the plane's
    interner actually assigned. This module proves them by abstract
    interpretation — a single pass tracking the set of bound slots — and is
    the static licence for replacing the interpreter's bounds-checked array
    accesses with unsafe ones (ROADMAP item 4).

    Violations are reported as {!Lint.diagnostic}s with stable codes:

    - [PL110] {e error} — an environment slot index is out of bounds.
    - [PL111] {e error} — a slot is read ([Check]) before any op binds it.
    - [PL112] {e error} — a [Const] operand is outside the interner domain.
    - [PL113] {e error} — a program's relation index or arity disagrees with
      the plane's schema table.

    [PL114]–[PL119] are retired (a removed bytecode verifier used them) and
    must never be reused.

    Programs marked unsatisfiable ([ok = false]) are skipped: the matcher
    never executes them, so a [Const (-1)] placeholder in one is not a
    violation. *)

(** [verify_programs plane ~n_vars progs] verifies the programs in pattern
    order (they share one environment of [n_vars] slots: a slot bound by an
    earlier program is readable by a later one). *)
val verify_programs :
  Relational.Compiled.t ->
  n_vars:int ->
  Qlang.Pattern.program list ->
  Lint.diagnostic list

(** [verify_query plane q] compiles [q]'s atom pair against [plane] and
    verifies the result — the form {!Sanitize.run} and the solver hooks
    use. *)
val verify_query :
  Relational.Compiled.t -> Qlang.Query.t -> Lint.diagnostic list
