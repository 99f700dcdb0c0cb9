(** Structured trace spans: the machine-readable explanation of a solver
    run.

    A recorder collects a tree of {e spans} — named intervals with parent
    links, timestamps, and key/value attributes. [Core.Solver]'s
    degradation chain opens one span per tier attempt (plus a root [solve]
    span), so a single traced run yields which tier ran, why it fell back,
    how long it took, and how many budget steps it burned at which sites.
    Serialization lives in [Analysis.Obs_codec]; this module is
    dependency-light on purpose so that [core] can emit spans without
    dragging in the JSON layer.

    Timestamps are seconds relative to the recorder's creation, read from
    an injectable clock (default {!Harness.Clock.now}, the monotonic clock,
    so spans never run backwards). Relative timestamps keep the schema free
    of absolute times; the deterministic tests inject a counter. *)

(** An attribute value. The four carriers mirror what [Analysis.Json] can
    round-trip losslessly. *)
type value =
  | Bool of bool
  | Int of int
  | Float of float
  | String of string

(** A closed span. [id]s are assigned in start order, starting at 0;
    [parent] is the id of the enclosing span ([None] for roots). *)
type span = {
  id : int;
  parent : int option;
  name : string;
  start_s : float;  (** Seconds since the recorder epoch. *)
  duration_s : float;
  attrs : (string * value) list;  (** In attachment order. *)
}

type t

(** Closed spans a recorder retains by default when no explicit [capacity]
    is given: 65536. *)
val default_capacity : int

(** [create ()] is a fresh recorder whose epoch is "now" on [clock]
    (default {!Harness.Clock.now}). Inject a deterministic clock for
    reproducible spans in tests. Closed spans are kept in a ring of at most
    [capacity] entries (default {!default_capacity}, must be >= 1): once
    full, closing a span evicts the oldest-closed one and bumps {!dropped}
    — a long-lived recorder is O(capacity), and truncation is never silent
    because the codec reports the drop count.
    @raise Invalid_argument when [capacity < 1]. *)
val create : ?clock:(unit -> float) -> ?capacity:int -> unit -> t

(** The ring capacity this recorder was created with. *)
val capacity : t -> int

(** Number of closed spans evicted from the ring so far (0 until the
    recorder has closed more than [capacity] spans). *)
val dropped : t -> int

(** [with_span t name f] runs [f] inside a new span: the span opens before
    [f], becomes the parent of any span opened by [f], and closes when [f]
    returns {e or raises} (an escaping exception is recorded as a [raised]
    attribute carrying [Printexc.to_string], then re-raised — spans are
    always well-nested). [attrs] seed the span's attributes. *)
val with_span : t -> ?attrs:(string * value) list -> string -> (unit -> 'a) -> 'a

(** [add_attr t key v] attaches an attribute to the innermost open span;
    dropped silently when no span is open (so instrumentation can be
    unconditional). *)
val add_attr : t -> string -> value -> unit

(** All retained closed spans, in start (= id) order. Spans still open —
    [with_span] calls currently on the stack — are not included, and neither
    are spans evicted from the ring (see {!dropped}). *)
val spans : t -> span list

(** Number of currently open spans (the [with_span] nesting depth). *)
val open_spans : t -> int
