(** An append-only, size-rotated JSONL event journal.

    Where {!Trace} answers "what did {e this} run do" and {!Metrics} answers
    "how much, in aggregate", the journal answers "what happened an hour
    ago": a long-lived [cqa serve] daemon (or a one-shot [cqa certain] run)
    appends one schema-versioned event per line, and [cqa obs report] reads
    the file back offline. Events carry a monotonically increasing sequence
    number, seconds since the journal was opened, a {e kind} from the closed
    vocabulary {!kinds}, and flat key/value fields reusing
    {!Trace.value} as the carrier.

    This module is dependency-light like the rest of [obs]: it knows nothing
    about JSON. The line syntax is injected as [render] — in-tree that is
    [Analysis.Obs_codec.event_to_string], whose strict [event_of_string]
    decoder is the other half of the contract.

    Rotation is size-based: when appending an event would push the file past
    [max_bytes], the current file is renamed to [<path>.1] (replacing any
    previous one) and a fresh file is started with a [journal.rotated] event
    as its first line, so a reader of the live file knows history moved.
    At most [2 * max_bytes] bytes ever live on disk.

    Like a metrics registry, a journal has a single writer; events are
    flushed per line so a crash loses at most the event being written. *)

type event = {
  seq : int;  (** 0-based, monotonically increasing, survives rotation. *)
  t_s : float;  (** Seconds since the journal was opened. *)
  kind : string;  (** One of {!kinds}. *)
  fields : (string * Trace.value) list;
}

(** The closed event vocabulary:
    [request.admitted]/[request.downgraded]/[request.shed] (one admission
    verdict per request), [request.completed] (op, code, latency, tier, and
    per-site step fields), [plane.compiled]/[plane.patched]/[plane.rejected]
    (execution-plane lifecycle), [tier.fallback] (a solver tier gave up and
    the chain moved on), [budget.exhausted] (a request ran out of budget,
    with the hottest tick site), and [journal.rotated]. *)
val kinds : string list

val known_kind : string -> bool

type t

(** Default rotation threshold: 8 MiB. *)
val default_max_bytes : int

(** [create ~render path] opens [path] for appending (creating it when
    absent), with [render] producing one line (no trailing newline) per
    event. [clock] (default {!Harness.Clock.now}, the monotonic clock)
    stamps events relative to the journal's opening. Rotation triggers when an append would exceed
    [max_bytes] (default {!default_max_bytes}).
    @raise Invalid_argument when [max_bytes < 1024]. *)
val create :
  ?clock:(unit -> float) ->
  ?max_bytes:int ->
  render:(event -> string) ->
  string ->
  t

(** [log t kind fields] appends one event and flushes it.
    @raise Invalid_argument when [kind] is not in {!kinds} or the journal
    has been closed. *)
val log : t -> string -> (string * Trace.value) list -> unit

val path : t -> string

(** The sequence number the next event will carry (= events logged so far,
    counting rotation markers). *)
val seq : t -> int

(** Number of rotations performed. *)
val rotations : t -> int

(** Flush and close the underlying channel. Idempotent. *)
val close : t -> unit
