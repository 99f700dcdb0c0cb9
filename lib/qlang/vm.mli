(** The register-based evaluation VM: compiled scan programs over the
    structure-of-arrays plane.

    {!Pattern} lowers atoms to Const/Bind/Check slot programs; this module
    compiles those one step further, into a flat int-array bytecode executed
    by a single interpreter loop over {!Relational.Compiled.soa} — the
    column-major fact view. The hot path has no closures (beyond the
    caller's [emit]/[tick] callbacks), no intermediate lists, no allocation,
    and no bounds checks: every array access is [Array.unsafe_get], licensed
    by a static check that runs before the first instruction executes.

    Two scan shapes cover the whole pipeline:

    - a {e pair scan} ({!assemble_query}/{!assemble_atoms}) is the nested
      enumeration of solution pairs of a two-atom query, emitting [(i, j)]
      fact-index pairs in exactly the lexicographic order (and with exactly
      the tick cadence — once per outer candidate row) of
      {!Pattern.iter_pairs}. It checks every outer row against the whole
      inner range, so it is quadratic where the pattern's keyed join is
      linear; it stays as the nested-loop oracle the join is tested
      against;
    - a {e block scan} ({!assemble_single}) is the trivial-tier loop:
      emitting every block of the plane all of whose members match a single
      atom (the CERTAIN answer for one-atom queries).

    The safety story is layered, and both layers run before any unsafe
    access:

    + {!sanity} (internal, always on): operand bounds plus a cursor-validity
      dataflow, strong enough to make every unsafe access provably in
      bounds. {!exec} refuses programs that fail it with
      [Invalid_argument] — a corrupted program can never execute unsafely,
      even if the analysis layer is bypassed.
    + [Analysis.Verify_pattern.verify_vm] (the engine-selection licence):
      re-derives the structural facts independently under stable PL114+
      codes and adds the semantic ones (no read-before-bind, constants
      interned, scan extents matching the plane). [Core.Solver] only runs
      the VM when this verifier accepts; a rejection falls back to the
      checked {!Pattern} plane.

    Equivalence with the checked plane (graphs, pair enumeration, verdicts,
    certificates, seeded Monte-Carlo) is pinned by the [@vm-smoke]
    differential suite and the [vm-speedup] bench gate. *)

type t
(** An assembled program: flat bytecode plus its register-file size. A
    program is tied to the plane it was assembled against (scan extents and
    interned constants are baked in); executing it against another plane is
    safe (the licence re-checks) but will typically be rejected. *)

type kind = Pair_scan | Block_scan

val kind : t -> kind

(** Number of registers (environment slots for variable bindings). *)
val n_regs : t -> int

(** Number of instructions (the bytecode is 4 ints per instruction). *)
val n_instrs : t -> int

(** {2 Assembly} *)

(** [assemble_atoms plane a b] compiles the two-atom pattern [a ∧ b] to a
    pair-scan program. An unsatisfiable or ill-sorted pattern (unknown
    relation, uninterned constant, arity mismatch) assembles to the
    canonical empty scan — a lone HALT — preserving the matcher's
    "emits nothing" semantics. *)
val assemble_atoms : Relational.Compiled.t -> Atom.t -> Atom.t -> t

val assemble_query : Relational.Compiled.t -> Query.t -> t

(** [assemble_single plane a] compiles a one-atom pattern to a block-scan
    program. *)
val assemble_single : Relational.Compiled.t -> Atom.t -> t

(** Assemble from explicit {!Pattern} program views (the entry points the
    analyzer-facing tooling uses; the atom-level functions above are
    wrappers). *)
val assemble_pair_programs :
  Relational.Compiled.t -> Pattern.program -> Pattern.program -> int -> t

val assemble_single_program :
  Relational.Compiled.t -> Pattern.program -> int -> t

(** {2 Execution} *)

(** [iter_pairs ?tick plane p f] runs a pair-scan program, applying [f i j]
    to every solution pair in lexicographic fact-index order. [tick] fires
    once per outer candidate row, exactly like {!Pattern.iter_pairs} — the
    degradation chain points it at its budget under [Harness.Sites.vm].
    @raise Invalid_argument if [p] is a block-scan program, or if [p] fails
    the internal safety check against [plane]. *)
val iter_pairs :
  ?tick:(unit -> unit) -> Relational.Compiled.t -> t -> (int -> int -> unit) -> unit

(** [iter_matching_blocks ?tick plane p f] runs a block-scan program,
    applying [f b] to every block whose members all match the atom, in
    block order. [tick] fires once per member row examined. *)
val iter_matching_blocks :
  ?tick:(unit -> unit) -> Relational.Compiled.t -> t -> (int -> unit) -> unit

(** [exists_matching_block ?tick plane p] stops at the first emitted
    block. *)
val exists_matching_block :
  ?tick:(unit -> unit) -> Relational.Compiled.t -> t -> bool

(** {2 Safety} *)

(** [sanity plane p] is the internal memory-safety licence: decoded-operand
    bounds (opcodes known, jump targets and scan extents and column/register
    indices in range, no fallthrough off the code end, block counts matching
    the plane) plus a cursor-validity dataflow (a column/relation/extent
    read only executes where the cursor passed a loop guard on every path).
    [Ok ()] means every unsafe access in {!exec} is in bounds. This is
    deliberately independent of the richer [Analysis.Verify_pattern]
    licence; {!iter_pairs}/{!iter_matching_blocks} run it (memoized per
    plane) before the first instruction, always. *)
val sanity : Relational.Compiled.t -> t -> (unit, string) result

(** {2 Decoded view and disassembly} *)

(** One decoded instruction. Cursor [a] scans facts for the first atom (and
    for block members), cursor [b] for the second atom; [blk] walks the
    block partition. Jump operands are instruction indices. *)
type instr =
  | Halt
  | Init_a of { lo : int }
  | Next_a of { hi : int; tick : bool; exit : int }
  | Init_b of { lo : int }
  | Next_b of { hi : int; exit : int }
  | Const_a of { col : int; id : int; fail : int }
  | Const_b of { col : int; id : int; fail : int }
  | Bind_a of { col : int; reg : int }
  | Bind_b of { col : int; reg : int }
  | Check_a of { col : int; reg : int; fail : int }
  | Check_b of { col : int; reg : int; fail : int }
  | Emit of { next : int }
  | Blk_next of { count : int; exit : int }
  | Mem_next of { tick : bool; matched : int }
  | Emit_blk of { next : int }
  | Rel_a of { rel : int; fail : int }
  | Jmp of { target : int }
  | Unknown of int

(** [decode p] is the instruction array (a fresh copy; mutating it cannot
    corrupt the program).
    @raise Invalid_argument if the raw code length is not a nonzero
    multiple of 4. *)
val decode : t -> instr array

(** Stable textual disassembly (the [cqa analyze --dump-vm] format; the
    cram suite pins it). *)
val pp : Format.formatter -> t -> unit

val disassemble : t -> string

(** {2 Unsafe construction}

    For the mutation suites only: build programs that violate the bytecode
    invariants and assert that both licence layers reject them. Programs
    built here lose the trusted-shape flag, so {!exec} additionally runs
    them on a fuel bound (a corrupted jump graph that passes the
    memory-safety dataflow could still spin forever). *)
module Unsafe : sig
  (** [with_code p code] is [p] with its bytecode replaced verbatim. *)
  val with_code : t -> int array -> t

  (** [patch p ~pc ~field v] overwrites one operand cell ([field] 0 is the
      opcode, 1–3 the operands) of instruction [pc]. *)
  val patch : t -> pc:int -> field:int -> v:int -> t
end
