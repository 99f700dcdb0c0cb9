(** The wire protocol of the [cqa serve] daemon: newline-framed JSON.

    One request per line, one response per line, always in order. A frame is
    a single JSON object (encoded with {!Analysis.Json}, which never emits a
    raw newline) terminated by ['\n']:

    {v
    {"op": "classify", "query": "R(x | y) R(y | x)"}
    {"op": "load", "name": "db1", "facts": "R(1 | 2)\nR(1 | 3)"}
    {"op": "certain", "query": "R(x | y) R(y | x)", "db": "db1", "id": 7}
    {"op": "update", "db": "db1", "insert": "R(2 | 1)", "retract": "R(1 | 3)"}
    {"op": "stats"}
    v}

    Every response carries [op], a [status] ([ok] / [degraded] / [timeout] /
    [error]), a stable [code] string, and the [exit] value of the CLI
    exit-code contract the code mirrors (0 certain / ok, 1 not certain,
    2 usage or input error, 3 degraded, 124 timeout) — so a shell pipeline
    and a daemon client read the same failure taxonomy. An [id] field in the
    request is echoed verbatim in the response whenever the frame parsed far
    enough to recover it.

    Decoding is total: malformed frames, oversized frames, unknown ops and
    missing fields all come back as structured {!error} values — the daemon
    turns them into error responses, never into a dead loop. *)

(** Stable response codes. The constructor order groups by exit value. *)
type code =
  | Ok_code  (** The request succeeded; for [certain], the answer is yes. *)
  | Not_certain  (** [certain] decided no (exit 1, mirroring the CLI). *)
  | Diagnostics
      (** [lint] or [analyze] produced warnings or errors (exit 1, mirroring
          [cqa lint]'s and [cqa analyze]'s exit contract; infos alone are
          [Ok_code]). *)
  | Bad_frame  (** Not JSON, not an object, or over the frame size cap. *)
  | Bad_request  (** Unknown op, or a missing / ill-typed field. *)
  | Bad_query  (** The query source failed to parse. *)
  | Bad_db  (** Malformed facts or a schema violation (shared with the CLI
                 ingestion path — see {!Ingest}). *)
  | Db_too_large  (** The database exceeds the daemon's fact cap. *)
  | Unknown_db  (** A named database that was never loaded. *)
  | Solver_error  (** Tiers disagreed or every tier failed for real. *)
  | Overloaded  (** Admission control shed the request. *)
  | Degraded_estimate
      (** A Monte-Carlo estimate, not a decision: either admission
          downgraded a coNP-tier request, or the solver chain fell back. *)
  | Budget_exhausted  (** The per-request step budget ran out. *)
  | Fault_injected
      (** A transient (chaos-injected) fault survived every retry; the
          response names the faulting site. *)
  | Timeout  (** The per-request deadline passed (exit 124). *)
  | Corrupt_plane
      (** The sanitize-on-insert gate rejected a compiled plane (exit 2):
          the database compiled, but the plane violated a layout invariant
          and was refused rather than cached. *)

(** ["ok"], ["not-certain"], ["bad-frame"], ... — the wire spelling. *)
val code_name : code -> string

(** The CLI exit-code contract value the code mirrors. *)
val exit_of_code : code -> int

(** The code of a finished solver chain: [Ok_code] or [Not_certain] for a
    decision, [Degraded_estimate], [Timeout], [Budget_exhausted] or
    [Solver_error] otherwise. The daemon's [certain] responses and
    [cqa certain]'s exit status both read it. *)
val code_of_outcome : Core.Solver.outcome -> code

(** The code of a diagnostics list: [Diagnostics] when one is a warning or
    an error, [Ok_code] otherwise (infos only, or none). The daemon's
    [lint] and [analyze] responses and the exit status of [cqa lint] and
    [cqa analyze] all read it. *)
val code_of_diagnostics : Analysis.Lint.diagnostic list -> code

(** ["ok"] for exits 0/1, ["degraded"] for 3, ["timeout"] for 124,
    ["error"] for 2. *)
val status_of_code : code -> string

(** A decode failure: the stable code plus a human-readable message. *)
type error = { code : code; message : string }

(** How a [certain] request names its database. *)
type db_ref =
  | Named of string  (** A database previously [load]ed under this name. *)
  | Inline of string  (** Facts text carried in the frame itself. *)

type request =
  | Ping
  | Load of { name : string; text : string }
  | Classify of { query : string }
  | Certain of {
      query : string;
      db : db_ref;
      trials : int option;
      explain : bool;  (** Include the degradation-chain attempt log. *)
    }
  | Lint of { query : string }
  | Analyze of { query : string; db : db_ref option }
      (** Static analysis: query lints, pattern-program verification and —
          with a database — plane sanitization and the database-aware
          lints, one shared diagnostics document with the CLI. *)
  | Update of { db : string; insert : string; retract : string }
      (** Apply a fact delta to a [load]ed database: [insert] / [retract]
          are facts text (one fact per line, [#] comments tolerated, no
          schema declarations — facts are validated against the named
          database's schema). At least one of the two must be non-empty.
          The daemon patches the cached plane
          ({!Relational.Compiled.apply_delta}) and re-keys it under the
          rolling fingerprint instead of evicting and recompiling; the
          next read rebuilds the solution graph and re-solves. *)
  | Stats
  | Trace of { last : int }
      (** Return the last [last] (default 10, must be positive) request
          traces recorded by the daemon's bounded span ring, each as a full
          [Obs_codec] trace document, plus the recorder's drop count. Empty
          (with [enabled: false]) when the daemon runs with tracing off. *)
  | Shutdown

(** The op spelling of a request (["ping"], ["certain"], ...). *)
val op_name : request -> string

(** [decode ~max_bytes line] parses one frame. On success: the echoed [id]
    (if any) and the request. On failure: the recovered [id] (when the frame
    parsed far enough to carry one) and the structured error. *)
val decode :
  max_bytes:int ->
  string ->
  (Analysis.Json.t option * request, Analysis.Json.t option * error) result

(** [response ?id ~op code fields] assembles a response object: [id] (when
    echoed), [op], [status], [code], [exit], then [fields] in order. *)
val response :
  ?id:Analysis.Json.t ->
  op:string ->
  code ->
  (string * Analysis.Json.t) list ->
  Analysis.Json.t

(** One newline-terminated frame ({!Analysis.Json.to_string} + ["\n"]). *)
val to_frame : Analysis.Json.t -> string
