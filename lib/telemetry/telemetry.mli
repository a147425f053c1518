(** Observability with no dependency beyond the repo's {!Nanodec_json}:
    monotonic-clock spans, counters and log-scale latency histograms
    behind one {!sink}, exported as one {!Nanodec_json.Json.t}.

    The library instruments its hot paths through optional sinks — a
    [None] sink short-circuits to the bare computation, so the cost of
    shipping instrumentation is one branch per probe.  All probes are
    domain-safe: counters and histograms are atomics, spans land in
    per-domain buffers (each written by exactly one domain) that the
    export functions merge.  Export must happen after the parallel work
    has joined; every pool join in this code base provides exactly that.

    The recorded numbers never feed back into any computation: a
    telemetry-on run is bit-for-bit identical to a telemetry-off run —
    a contract enforced by [nanodec check] oracles and
    [test/test_telemetry.ml]. *)

type sink

val create : ?clock:(unit -> float) -> unit -> sink
(** A fresh, empty sink.  [clock] (seconds; defaults to
    CLOCK_MONOTONIC, which no wall-clock step can move) is clamped to
    never run backwards per recording domain, so exported span trees
    are always well-formed.  Injectable for tests. *)

val now : sink -> float
(** Seconds since the sink was created, by the sink's clock. *)

external monotonic_s : unit -> (float[@unboxed])
  = "nanodec_telemetry_monotonic_s_byte" "nanodec_telemetry_monotonic_s"
[@@noalloc]
(** Seconds on CLOCK_MONOTONIC, from an arbitrary origin: the clock for
    every deadline and duration (pool job deadlines, the daemon's
    request, idle and snapshot timers, client timeouts).  No wall-clock
    step (NTP, a manual reset) moves it; only differences of two
    readings mean anything. *)

(** {1 Spans}

    Nestable regions of wall-clock time.  Nesting is tracked per domain:
    a span opened inside a pool chunk body becomes a root (or child) of
    {e that worker domain's} tree, so recording never synchronises
    between domains. *)

val with_span : sink option -> string -> (unit -> 'a) -> 'a
(** [with_span sink name f] times [f ()] as a span named [name]; the
    span closes on normal return and on exception.  [with_span None]
    is [f ()]. *)

(** {1 Counters} *)

type counter

val counter : sink -> string -> counter
(** Find-or-create the named counter (handle is cheap to reuse on hot
    paths; creation takes the sink mutex once). *)

val add : counter -> int -> unit
val incr : counter -> unit
val counter_name : counter -> string
val counter_value : counter -> int

val count : sink option -> string -> int -> unit
(** One-shot convenience: [count sink name n] adds [n] to the named
    counter; no-op on [None].  Looks the counter up each call — prefer
    a {!counter} handle inside loops. *)

(** {1 Histograms}

    Log-scale latency histograms: 64 power-of-two buckets over
    nanoseconds (bucket [b] counts durations in [2^b, 2^(b+1)) ns),
    plus exact count, sum, min and max. *)

type histogram

val histogram : sink -> string -> histogram
val observe : histogram -> float -> unit
(** [observe h seconds] records one duration (negative values clamp
    to 0). *)

val record : sink option -> string -> float -> unit
(** One-shot convenience, as {!count} is for counters. *)

(** {1 Export}

    Call after the instrumented work has joined. *)

type span = {
  span_name : string;
  domain : int;  (** the recording domain's id *)
  start_s : float;  (** seconds since the sink epoch *)
  stop_s : float;
  children : span list;  (** sorted by start time *)
}

val span_trees : sink -> span list
(** Every domain's span forest, merged; roots sorted by domain then
    start time. *)

val span_totals : sink -> (string * (int * float)) list
(** Aggregate (count, total seconds) per span name, sorted by name. *)

val well_formed : sink -> bool
(** Every child interval lies inside its parent and no span has a
    negative duration.  True by construction; exposed for the proptest
    oracle. *)

val dropped_spans : sink -> int
(** Spans discarded past the per-domain buffer cap (200k). *)

val counters : sink -> (string * int) list

type hist_stats = {
  hs_name : string;
  hs_count : int;
  hs_sum_s : float;
  hs_min_s : float;
  hs_max_s : float;
  hs_buckets : (float * int) list;
      (** non-empty buckets only, as (upper bound in seconds, count) *)
}

val histograms : sink -> hist_stats list

val to_json : sink -> Nanodec_json.Json.t
(** The whole sink as one JSON value:
    [{"version":1,"dropped_spans":n,"spans":[...],"counters":{...},
      "histograms":{...}}].  Each span is
    [{"name","domain","start_s","dur_s","children":[...]}], counters map
    name to value, and each histogram is
    [{"count","sum_s","min_s","max_s","buckets":[{"le_s","count"}]}]
    (seconds; non-empty buckets only). *)

val write_json : sink -> path:string -> unit
(** [Json.to_string (to_json sink)] and a newline: one line per file. *)

val pp_summary : Format.formatter -> sink -> unit
(** The human-readable profile behind the CLI's [--profile]: spans
    aggregated by name with %-of-wall, counters, histogram
    count/mean/min/max. *)
