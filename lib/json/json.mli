(** Minimal JSON: a value type, a hardened recursive-descent parser and
    a single-line writer.

    The repo's one JSON implementation, in a stdlib-only leaf library
    ([nanodec_json]) so that every layer can use it: the serve protocol
    reads and writes requests with it, the telemetry export and the
    bench's [BENCH_*.json] files are built as {!t} values and rendered
    by {!to_string}.  [Nanodec_serve.Json] is the same module.
    The parser is written for a network boundary: it never raises on
    malformed input (it returns [Error] with a position-carrying
    message), bounds nesting depth so adversarial [[[[…] input cannot
    blow the stack, rejects trailing garbage, and accepts only what RFC
    8259 grammar allows — in particular [NaN]/[Infinity] literals are
    parse errors, so non-finite numbers cannot enter the protocol
    except as out-of-range field {e values}, which the protocol layer
    validates. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val max_depth : int
(** 64 — nesting beyond this is a parse error, not a stack overflow. *)

val parse : string -> (t, string) result
(** Parse one complete JSON document.  Error messages name the byte
    offset and what was expected — they end up verbatim in the
    protocol's [invalid-input] hint. *)

val to_string : t -> string
(** Canonical single-line rendering: no spaces after separators,
    strings escaped per RFC 8259 (control characters as [\u00XX]),
    object fields in the order given.  Never contains a newline, so a
    rendered value is always one protocol line.

    A finite float renders as [%.15g] when that reads back as the same
    float, else as [%.17g], so its value always survives {!parse} — but
    not always its constructor: an integral float prints with no
    decimal point or exponent, so [Float 2.] renders as [2] and parses
    back as [Int 2] ([Float 0.5] and [Float 1e20], rendered [0.5] and
    [1e+20], stay [Float]).  Readers of a float field should therefore
    use {!to_float_opt}, which accepts both.  Non-finite floats render
    as [null]. *)

(** {1 Accessors} — total, [option]-returning *)

val member : string -> t -> t option
(** Object field lookup; [None] on missing field or non-object. *)

val to_int_opt : t -> int option
(** [Int n] and integral [Float]s within [int] range. *)

val to_float_opt : t -> float option
(** [Float f] and [Int n] (as [float_of_int n]) — the reader for float
    fields, whose integral values render as integers. *)

val to_string_opt : t -> string option
val to_bool_opt : t -> bool option
val to_list_opt : t -> t list option
