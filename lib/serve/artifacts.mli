(** The daemon's typed artifact layer over {!Artifact_cache}.

    One LRU cache holds every artifact kind behind a closed variant, so
    capacity is a single budget across kinds and the capacity-1
    eviction oracle exercises cross-kind eviction too.  Each accessor
    derives its canonical key from the cache-keyed constructors of the
    owning library ({!Nanodec_crossbar.Cave.config_key},
    {!Nanodec_mspt.Pattern.cache_key},
    {!Nanodec_codes.Codebook.cache_key}) and returns the artifact plus
    a hit flag — the [cached] bit of the protocol's responses.

    Every builder is a pure function of its key (Monte-Carlo estimates
    included: the per-sample stream discipline makes them a pure
    function of (config, seed, samples)), so a hit is bit-for-bit
    identical to a rebuild — the invariant the [cache_hit ≡ cache_miss]
    oracle enforces over arbitrary request sequences. *)

open Nanodec_codes
open Nanodec_numerics
open Nanodec_crossbar
open Nanodec

(** The artifact kinds the daemon amortizes.

    Two sorts.  The intermediate kinds ([Nu], [Analysis], [Kernel])
    are typed values that other builders consume.  The final kinds
    ([Report], [Estimate], [Sweep], [Words]) are consumed only by
    responses, so they hold the response's rendered [result] fragment:
    the canonical {!Json.to_string} bytes of one JSON object, rendered
    once inside the builder.  A hit splices those bytes into the
    response instead of rendering again.  The fragment contract: a
    fragment is exactly the bytes [Json.to_string] gives for its
    object (so it re-renders to itself after [Json.parse]), contains no
    newline, and is a pure function of its key. *)
type value =
  | Nu of Imatrix.t  (** ν matrix of a pattern *)
  | Analysis of Cave.analysis
  | Kernel of Kernel.t  (** compiled Monte-Carlo pass program *)
  | Report of string  (** {!report_json} of the full closed-form report *)
  | Estimate of string
      (** {!estimate_json} of the MC window-yield estimate of (config,
          seed, samples or spec); the seed and the method tag are part
          of the key *)
  | Sweep of string
      (** [{"rows":[…]}], one {!sweep_row_json} per candidate of the
          spec's platform grid *)
  | Words of string
      (** the [codes] result: [{"code":…,"omega":…,"words":[…]}] *)

type t = value Artifact_cache.t

val snapshot_schema : string
(** The {!Snapshot} schema tag for {!snapshot} entries — bumped
    whenever a fragment kind's key or bytes change shape, so stale
    snapshot files load as cold caches rather than as misread bytes. *)

val create : ?enabled:bool -> capacity:int -> unit -> t

(** {1 Fragment rendering} *)

val report_json : Design.report -> Json.t
val sweep_row_json : Design.report -> Json.t

val estimate_json :
  seed:int -> ?spec:Montecarlo.spec -> Montecarlo.estimate -> Json.t
(** [?spec] appends the sampling-method tag; requests that picked no
    method get the legacy shape without it. *)

(** {1 Accessors} *)

val words :
  t -> radix:int -> length:int -> count:int -> Codebook.t -> string * bool
(** The whole [codes] result fragment. *)

val nu : t -> Nanodec_mspt.Pattern.t -> Imatrix.t * bool

val analysis : t -> Cave.config -> Cave.analysis * bool
(** Builds through the {!nu} cache ([Cave.analyze ?nu]). *)

val kernel : t -> Cave.config -> Kernel.t * bool
(** Builds through the {!analysis} cache
    ([Cave.kernel_of_analysis]). *)

val report : t -> Design.spec -> string * bool
(** The {!report_json} fragment of [Design.evaluate spec]. *)

val estimate :
  t ->
  ctx:Nanodec_parallel.Run_ctx.t ->
  seed:int ->
  samples:int ->
  ?spec:Montecarlo.spec ->
  Cave.config ->
  string * bool
(** The {!estimate_json} fragment of [Cave.mc_yield_window_par] through
    the {!analysis} and {!kernel} caches — legitimate because the
    estimator is bit-for-bit invariant in pool, chunking and domain
    count.  Concurrent requests for one cold estimate share a single
    build ({!Artifact_cache.find_or_build} is single-flight).

    Without [spec] the estimate is plain with [samples] draws, keyed by
    (config, seed, samples), and its fragment has no method tag.  With
    [spec] (a request that picked a sampling strategy or an adaptive
    stopping rule) the spec wins over [samples], the key is (config,
    seed, {!Montecarlo.spec_key}) — injective, so disjoint from the
    plain keys — and the fragment carries the method tag. *)

val build_estimate :
  t ->
  ctx:Nanodec_parallel.Run_ctx.t ->
  seed:int ->
  samples:int ->
  ?spec:Montecarlo.spec ->
  Cave.config ->
  string
(** What {!estimate} stores on a miss, built without looking up or
    storing the estimate itself: the path of requests that must not
    share cached results (fault plans, [no_degrade]). *)

val estimate_spec :
  t ->
  ctx:Nanodec_parallel.Run_ctx.t ->
  seed:int ->
  spec:Montecarlo.spec ->
  Cave.config ->
  string * bool
(** [estimate ~spec] with [samples] read off the spec's stopping rule.
    Kept for the benchmark's in-process replay, which names it. *)

val sweep : t -> Design.spec -> string * bool
(** [Optimizer.sweep] of the default candidate grid on the spec's
    platform (sequential — rows are cheap closed forms; the cache, not
    the pool, is the serve path's amortizer here). *)

(** {1 Snapshots} *)

val snapshot : t -> (string * float * string) list
(** The fragment entries of {!Artifact_cache.dump} — [(key, build-cost
    seconds, bytes)], least recently used first — for {!Snapshot.save}.
    Intermediate kinds are left out; after a restart they rebuild on
    demand. *)

val restore : t -> (string * float * string) list -> (unit, string) result
(** Warm the cache from {!Snapshot.load} entries.  Every entry must
    carry a fragment kind's key and a canonical JSON object; otherwise
    nothing is restored and [Error] names the first offending key. *)
