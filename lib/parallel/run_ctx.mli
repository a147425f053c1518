(** The execution context every expensive entry point takes.

    [Run_ctx.t] bundles what used to travel as scattered optional
    arguments — the domain pool, the Monte-Carlo seed and sample count,
    the telemetry sink, and the supervision policy (fault engine,
    degrade and warn flags, job deadline) — into one value built once
    (usually from the CLI flags) and threaded through sweeps, figures,
    scaling, ablations and Monte-Carlo estimators alike:

    {[
      Run_ctx.with_ctx ~domains:4 ~telemetry:sink (fun ctx ->
          Nanodec.Optimizer.sweep ~ctx ())
    ]}

    The context never influences numeric results except through the
    seed and sample count it explicitly carries: pool size, telemetry,
    deadlines and fault plans are observability/robustness knobs only,
    and every consumer is bit-for-bit invariant in them for runs that
    complete successfully.

    Every job goes through {!parallel_for}: the context hands its
    supervision policy to the pool with each job (never installs it on
    the pool), and a context without a pool runs the job on the
    submitting domain through the same executor ({!Pool.sequential_for}),
    so deadlines, retries and the degrade policy act the same with or
    without a pool.  A context's pool is one it spawned itself
    ([~domains]); contexts never borrow or reconfigure a pool, except
    that {!with_request} hands the base context's pool to the request.

    {2 Chaos boundary}

    {!make} is the single place where the [NANODEC_FAULT_PLAN]
    environment variable activates: an explicit [~fault] argument wins,
    otherwise the environment plan (if any) is parsed and installed.
    Code that builds a bare {!Pool.t} directly never sees the
    environment plan — so the chaos CI job can export a plan and rerun
    the whole test suite while pool-level unit tests stay
    injection-free.  When the context also carries a telemetry sink,
    the engine is attached to it so every injected fault is recorded
    ([fault.fired.<site>], [fault.injected.<action>]). *)

type t

type chunking =
  | Auto
      (** [min samples (max 64 (8 * domains))] chunks claimed
          [max 1 (chunks / (4 * domains))] at a time — a pure function
          of (samples, domains) *)
  | Fixed of int
      (** exactly this many scheduling chunks, claimed one at a time
          (the CLI's [--chunks N]); must be >= 1 *)
(** How the Monte-Carlo estimator cuts a job into pool chunks.  A pure
    scheduling policy: estimates are bit-for-bit identical under every
    [chunking] and domain count — the per-sample stream discipline
    guarantees it. *)

(** The Monte-Carlo sampling strategy the context's estimators should
    use.  The datatype lives here (not in [Nanodec_numerics]) because
    the context is the value that travels from the CLI flags and the
    serve protocol down to every estimator; {!Nanodec_numerics}'s
    [Montecarlo.strategy] re-exports it by equation, so the two are the
    same type.  Unlike {!chunking}, the method {e is} part of the
    numeric result: each strategy is a different (equally unbiased)
    estimator with its own draw stream. *)
type mc_method =
  | Plain  (** independent draws — the exact reference estimator *)
  | Antithetic
      (** evaluate each draw and its sign-mirrored twin as one pair *)
  | Stratified of int
      (** stratify the dominant noise axis into this many strata
          (>= 2) *)
  | Importance of float
      (** shift the dominant-region Gaussian toward the failure
          boundary by this fraction of the window (> 0, finite) and
          reweight exactly *)

val default_seed : int
(** 2009 — the paper year, the seed used throughout the reproduction. *)

val default_mc_samples : int
(** 4000 — the full-resolution Monte-Carlo workload of the bench. *)

val parse_chunking : ?what:string -> string -> chunking
(** The CLI's [--chunks] and the protocol's [chunks]: ["auto"] or a
    positive decimal integer, by {!Nanodec_error.parse_chunks} (which
    names [what] in the [Invalid_input] it raises otherwise). *)

val parse_mc_method : ?what:string -> string -> mc_method
(** The CLI's [--mc-method] and the protocol's [method], by
    {!Nanodec_error.parse_mc_method}. *)

val make :
  ?domains:int ->
  ?seed:int ->
  ?mc_samples:int ->
  ?telemetry:Nanodec_telemetry.Telemetry.sink ->
  ?fault:Nanodec_fault.Fault.t ->
  ?timeout_s:float ->
  ?chunking:chunking ->
  ?mc_method:mc_method ->
  ?rel_error:float ->
  ?degrade:bool ->
  ?warn:bool ->
  unit ->
  t
(** Builder-style constructor.  [~domains] spawns a pool owned by the
    context ({!shutdown} joins it); without it the context is
    sequential.  A [telemetry] sink is the pool's sink too, so
    scheduler probes land in it.  [fault] defaults to the
    [NANODEC_FAULT_PLAN] environment plan when that is set (raising
    [Nanodec_error.Error (Invalid_input _)] on a malformed value).
    [fault], [timeout_s] (strictly positive), [degrade] (default
    [true]) and [warn] (default [true]) are handed to every job run
    through this context (see {!Pool.parallel_for}).
    [chunking] (default [Auto]) selects the estimator's scheduling
    policy; [Fixed n] with [n < 1] raises [Invalid_argument].  [mc_method] (default {!Plain}) and
    [rel_error] select the estimators' sampling strategy and, when
    [rel_error] is set (must lie in (0, 0.5]), CI-driven adaptive
    stopping — the context carries them exactly as it carries [seed]
    and [mc_samples], and consumers build their [Montecarlo.spec] from
    them.  [seed] defaults to {!default_seed}, [mc_samples] to
    {!default_mc_samples} (raises [Invalid_argument] when negative). *)

val with_ctx :
  ?domains:int ->
  ?seed:int ->
  ?mc_samples:int ->
  ?telemetry:Nanodec_telemetry.Telemetry.sink ->
  ?fault:Nanodec_fault.Fault.t ->
  ?timeout_s:float ->
  ?chunking:chunking ->
  ?mc_method:mc_method ->
  ?rel_error:float ->
  ?degrade:bool ->
  ?warn:bool ->
  (t -> 'a) ->
  'a
(** [make] + [f] + {!shutdown}, exception-safe. *)

val shutdown : t -> unit
(** Join the pool iff this context spawned it ([make ~domains]). *)

val pool : t -> Pool.t option
val seed : t -> int
val mc_samples : t -> int
val telemetry : t -> Nanodec_telemetry.Telemetry.sink option
val fault : t -> Nanodec_fault.Fault.t option
val timeout_s : t -> float option
val chunking : t -> chunking
val mc_method : t -> mc_method
val rel_error : t -> float option

val parallel_for : ?batch:int -> t -> chunks:int -> (int -> unit) -> unit
(** [parallel_for ctx ~chunks body] is {!Pool.parallel_for} on the
    context's pool, or {!Pool.sequential_for} without one, with the
    context's fault engine, degrade and warn flags and deadline as the
    job's supervision policy. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map_list ctx f xs] is [List.map f xs] run as one {!parallel_for}
    job.  The one-liner the sweep, figure, scaling and ablation
    pipelines use. *)

val with_request :
  base:t ->
  ?seed:int ->
  ?mc_samples:int ->
  ?timeout_s:float ->
  ?fault:Nanodec_fault.Fault.t ->
  ?chunking:chunking ->
  ?mc_method:mc_method ->
  ?rel_error:float ->
  ?degrade:bool ->
  ?warn:bool ->
  (t -> 'a) ->
  'a
(** Per-request context derivation — the serve daemon's workhorse.
    [with_request ~base ?seed ... f] runs [f] under a context that
    overrides the given knobs and inherits everything else (pool,
    telemetry sink) from [base].  [fault], [degrade] and
    [warn] default to the base context's.  The derived context always
    borrows the base pool and changes nothing on it — the fault engine
    and the degrade policy are per-job arguments — so any number of
    requests, with or without their own fault plans, can derive from
    one base concurrently, and no request spawns domains.  A request
    [fault] engine is attached to the base context's telemetry sink,
    like {!make} does.

    Unlike {!make}, the [NANODEC_FAULT_PLAN] environment boundary is
    not re-read: the base context already resolved it.  Validates the
    knobs exactly like {!make} (one shared check), raising
    [Invalid_argument] on a non-positive [timeout_s], negative
    [mc_samples], [Fixed n < 1] or an out-of-range [mc_method] or
    [rel_error]. *)

val resolve : ?ctx:t -> unit -> t
(** [resolve ?ctx ()] is [ctx], or a default pool-less context without
    one — the spelling used by [?ctx] consumers.  The environment fault
    plan does {e not} activate here — only {!make} reads it. *)
