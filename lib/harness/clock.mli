(** The one clock the library reads.

    Budget deadlines, attempt times, trace spans, journal stamps, admission
    refills and the daemon's latencies all read {!now}. It is the kernel's
    CLOCK_MONOTONIC (through [bechamel.monotonic_clock], the clock the
    end-to-end benchmark reads too): nanosecond resolution, and it never
    steps, so neither an NTP jump nor a manual reset can exhaust, extend or
    rewind a timer. Its origin is arbitrary; only differences mean
    anything. Modules that take a [?clock] argument default to it. *)

(** Seconds on the monotonic clock. Never decreases. *)
val now : unit -> float
