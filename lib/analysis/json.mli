(** A minimal JSON value type, printer, and parser.

    The tool-facing surfaces ([cqa lint --json], [cqa classify --json],
    the serve protocol, traces and journals) emit JSON so editors and CI
    scripts can consume diagnostics, certificates and frames without
    scraping pretty-printed text. The project deliberately carries no JSON
    dependency; this module covers exactly what the encoders in {!Encode},
    {!Obs_codec} and the serve protocol need. Strings are assumed to be UTF-8: bytes [>= 0x20] other
    than the double quote and backslash pass through verbatim, everything
    else is escaped. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
      (** Printed as the shortest decimal that reads back to the same float
          (always with a ['.'] or exponent, so it stays a [Float] across a
          round-trip). Non-finite values print as [null] — JSON has no
          literal for them. *)
  | String of string
  | List of t list
  | Obj of (string * t) list

(** Compact one-line rendering (no insignificant whitespace beyond a single
    space after [,] and [:]), suitable both for humans and [jq]. *)
val pp : Format.formatter -> t -> unit

val to_string : t -> string

(** [of_string s] parses one RFC 8259 JSON document (with nothing but
    whitespace around it). Numbers carrying a fraction or exponent — or too
    large for a native [int] — parse as [Float], everything else as [Int];
    [\uXXXX] escapes (including surrogate pairs) decode to UTF-8. The error
    string carries a byte offset. Every value {!pp} prints is parsed back
    structurally unchanged, except non-finite floats (printed as [null]). *)
val of_string : string -> (t, string) result

(** {2 Accessors}

    Schema-reading helpers for parsed documents; each returns [None] on a
    shape mismatch. *)

(** [member key j] is the value of field [key] if [j] is an object. *)
val member : string -> t -> t option

val to_list_opt : t -> t list option
val to_int_opt : t -> int option

(** [to_float_opt] also accepts [Int] (JSON does not distinguish [1] from
    [1.0] semantically). *)
val to_float_opt : t -> float option

val to_string_opt : t -> string option
