(** JSON serialization of [Obs] traces and metrics snapshots.

    Every document is schema-versioned and round-trip parsed: each
    [*_of_string] is the strict inverse of its [*_to_string], and every
    [cqa certain --trace / --metrics] emission is validated by the
    [@obs-smoke] alias. The codec lives in [analysis] (not [obs]) so that
    [obs] stays dependency-light enough for [core] to emit spans.

    Trace schema (version 1, one object per file):
    {v
    { "schema_version": 1, "kind": "trace",
      "query": <string> | null,
      "spans": [
        { "id": <int>, "parent": <int> | null, "name": <string>,
          "start_s": <float>, "duration_s": <float>,
          "attrs": { <key>: <bool|int|float|string>, ... } } ] }
    v}

    Metrics schema (version 1):
    {v
    { "schema_version": 1, "kind": "metrics",
      "counters": { <name>: <int>, ... },
      "histograms": {
        <name>: { "bounds": [<float>...], "counts": [<int>...],
                  "count": <int>, "sum": <float> }, ... } }
    v} *)

val schema_version : int

(** A trace document: the closed spans of one recorder, optionally tagged
    with the query they explain. [dropped] counts spans evicted from the
    recorder's bounded ring; it is encoded (as a [dropped] field between
    [query] and [spans]) only when positive, so complete traces keep their
    pre-ring byte layout, and decodes to 0 when absent — truncation is
    visible exactly when it happened. *)
type trace = {
  query : string option;
  dropped : int;
  spans : Obs.Trace.span list;
}

val encode_trace : trace -> Json.t
val trace_to_string : trace -> string
val trace_of_string : string -> (trace, string) result

(** [validate_trace t] checks structural well-formedness beyond what the
    decoder enforces: ids strictly increasing from 0, every parent id
    refers to an earlier span, non-negative durations, and well-nested
    intervals (a child starts no earlier than its parent and ends no later,
    up to a float-printing epsilon). *)
val validate_trace : trace -> (unit, string) result

(** {2 Journal events}

    One compact object per JSONL line in an {!Obs.Journal} file:
    {v
    { "v": 1, "seq": <int>, "t_s": <float>, "kind": <kind>,
      "fields": { <key>: <bool|int|float|string>, ... } }
    v}
    The decoder is strict: unknown versions, unknown kinds (the vocabulary
    is {!Obs.Journal.kinds}), negative sequence numbers, and structured
    field values are all errors. [Obs.Journal.create ~render:event_to_string]
    is the writing half of the contract. *)

val event_to_string : Obs.Journal.event -> string
val event_of_string : string -> (Obs.Journal.event, string) result

val metrics_to_string : Obs.Metrics.snapshot -> string
val metrics_of_string : string -> (Obs.Metrics.snapshot, string) result

(** [write path to_string doc] writes the compact document plus a final
    newline; [path = "-"] writes to stdout. *)
val write : string -> ('a -> string) -> 'a -> unit
