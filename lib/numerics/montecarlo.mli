(** Monte-Carlo estimation with confidence intervals.

    One engine, one entry point: {!run} executes a {!spec} — a sampling
    {!strategy} crossed with a {!stopping} rule — against a {!target}.
    The other exported estimators serve existing call sites:
    {ul
    {- {!estimate} and {!estimate_par} — thin wrappers over [run] with
       the plain/fixed spec, proven equivalent by the proptest oracle
       suite;}
    {- {!estimate_proportion} and {!estimate_proportion_par} — the
       Bernoulli specialisation with the p(1-p)/n standard error.}}

    {2 Determinism contract}

    Every estimate is a {e pure function of (seed, spec, target)}:
    sample [s] owns its own stream — the [s]-th {!Rng.split} of the
    caller's generator, as in {!Rng.split_n}, derived in place per
    sample ({!Rng.split_into}) from a snapshot taken at its chunk's
    start — and its own result slot, and the slots fold sequentially in
    sample order once the fan-out joins.  Chunk count, batch size, domain count and
    scheduling order — including per-machine autotuned plans — move
    wall-clock time only, never a result bit.  Adaptive stopping keeps
    the property round by round: round [r]'s streams derive from one
    sequential {!Rng.split} of the caller's generator, so the
    stop/continue decision after each round is itself bit-stable across
    every schedule. *)

type estimate = {
  samples : int;
  mean : float;
  std_error : float;
  ci95_low : float;
  ci95_high : float;
}
(** Sample mean with its standard error and normal-approximation 95 %
    confidence interval.  For stratified runs the standard error is the
    proper stratified one ((1/K{^2}) Σ{_k} var{_k}/n{_k} under the
    balanced equal-weight allocation the engine enforces), not the
    pooled variance — pooling would re-include the between-strata
    spread the strategy removed. *)

val z95 : float
(** 1.959963984540054 — the two-sided 95 % normal quantile behind
    every [ci95] bound and the adaptive stopping test; exposed so
    benches and callers converting variances to samples-to-CI use the
    engine's own constant. *)

(** {1 Specs: strategy × stopping rule} *)

type strategy = Nanodec_parallel.Run_ctx.mc_method =
  | Plain  (** independent draws — the exact reference estimator *)
  | Antithetic
      (** evaluate each draw and its sign-mirrored twin as one pair;
          unbiased always, a variance win only when the integrand has
          an odd component (window yield is even in the noise vector,
          where the pair is a draw-cost optimisation instead) *)
  | Stratified of int
      (** stratify the dominant noise axis into this many strata
          (>= 2); sample totals are aligned up to multiples of the
          stratum count so the allocation stays exactly balanced *)
  | Importance of float
      (** shift the failure-dominating Gaussians toward the failure
          boundary by this fraction of the decision window (> 0,
          finite) and reweight with the exact likelihood ratio *)
(** Re-export (by type equation) of
    {!Nanodec_parallel.Run_ctx.mc_method}: the datatype lives in the
    context so it can travel from the CLI flags and the serve protocol
    down to every estimator without a dependency cycle.  Unlike
    scheduling knobs, the strategy {e is} part of the numeric result:
    each is a different (equally unbiased) estimator with its own draw
    stream. *)

type stopping =
  | Fixed_samples of int  (** exactly this many samples (>= 2) *)
  | Until_rel_error of {
      rel_error : float;  (** target: z95·SE <= rel_error·|mean| *)
      min_samples : int;
      max_samples : int;
    }
      (** CI-driven adaptive stopping by deterministic batch-doubling
          rounds: run [min_samples], then double the running total each
          round (capped at [max_samples]), stopping at the first round
          whose estimate meets the target.  The round schedule depends
          only on (min, max), never on observed values' timing, so the
          result is bit-stable across domains/chunks/batch like every
          other estimate. *)

type spec = { strategy : strategy; stopping : stopping }

val fixed : int -> stopping

val until_rel_error : ?min_samples:int -> ?max_samples:int -> float -> stopping
(** [until_rel_error rel_error] with [min_samples] defaulting to
    {!default_min_samples} and [max_samples] to
    {!default_max_samples}. *)

val spec : ?strategy:strategy -> stopping -> spec
(** [strategy] defaults to {!Plain}. *)

val spec_of_ctx :
  ?ctx:Nanodec_parallel.Run_ctx.t -> samples:int -> unit -> spec
(** The spec a context implies for a [samples]-sized job: the context's
    [mc_method] crossed with [Fixed_samples samples] — or, when the
    context carries a [rel_error], adaptive stopping with [samples] as
    the cap (and [min(256, samples)] as the floor).  This is how the
    CLI's [--mc-method]/[--rel-error] and the serve protocol's
    [method]/[rel_error] fields reach the estimators. *)

val default_min_samples : int
(** 256 *)

val default_max_samples : int
(** 2{^22} *)

val spec_key : spec -> string
(** Canonical injective serialization ["mc/v1|..."] — the spec
    component of serve artifact-cache keys.  Floats render as [%h], so
    distinct specs never collide and keys are platform-stable. *)

val strategy_name : strategy -> string
(** Human-readable tag ([plain], [antithetic], [stratified:K],
    [importance:S]) matching the CLI's [--mc-method] syntax. *)

(** {1 Targets} *)

type target
(** An integrand bundled with its optional strategy-specific
    evaluators.  Each evaluator reduces one sample to one float whose
    {e expectation equals the plain mean} — antithetic returns the pair
    average, importance the already-reweighted value — so the engine
    stays strategy-agnostic.  Running a spec whose strategy the target
    does not implement raises
    [Nanodec_error.Error (Invalid_input _)]. *)

val target :
  ?antithetic:(Rng.t -> float) ->
  ?stratified:(strata:int -> stratum:int -> Rng.t -> float) ->
  ?importance:(shift:float -> Rng.t -> float) ->
  (Rng.t -> float) ->
  target
(** [target plain] supports {!Plain} only; each optional evaluator
    unlocks the matching strategy.  [Nanodec_crossbar.Kernel.target]
    builds the fully-equipped target for the compiled yield path. *)

(** {1 The unified estimator} *)

val run :
  ?ctx:Nanodec_parallel.Run_ctx.t -> spec -> Rng.t -> target -> estimate
(** [run ?ctx spec rng target] — the single entry point every sampling
    configuration goes through.  The context supplies the pool, the
    scheduling policy (chunking/batch — wall-clock only) and the
    telemetry sink (span [mc.estimate_par], per-chunk histogram
    [mc.chunk_s], counter [mc.samples], rate [mc.samples_per_sec]);
    the spec supplies everything numeric.

    [run ?ctx (spec (fixed n)) rng (target f)] is bit-for-bit
    [estimate_par ?ctx rng ~samples:n f].

    Raises [Invalid_argument] on a malformed spec (fewer than 2
    samples, strata < 2, non-positive importance shift, rel_error
    outside (0, 0.5], [max_samples < min_samples]). *)

(** {1 Sequential estimators} *)

val estimate : Rng.t -> samples:int -> (Rng.t -> float) -> estimate
(** [estimate rng ~samples f] — {!run} with the plain/fixed spec and no
    context.  [samples] must be at least 2.  Uses the same per-sample
    split-stream discipline as {!estimate_par}, so the two agree
    bit-for-bit on the same seed. *)

val estimate_proportion : Rng.t -> samples:int -> (Rng.t -> bool) -> estimate
(** Bernoulli specialisation: the standard error uses the Wilson-style
    p(1-p)/n variance, never larger than the generic estimator's.
    Single-stream, sequential-only. *)

(** {1 Domain-parallel chunked estimators}

    Thin wrappers over {!run} with [spec = plain/fixed], kept for the
    existing call sites.  Scheduling comes entirely from the context:
    [Run_ctx.Fixed n] pins the chunk count, [Auto] (the default) lets
    {!Nanodec_parallel.Autotune} size chunks and batches from the
    sink's measured per-sample cost, and the context's [batch]
    overrides the plan's batch either way.  All of it moves wall-clock
    time only, never results. *)

val default_chunks : int
(** 64 — the autotuner's fallback chunk floor (see
    {!Nanodec_parallel.Autotune}): comfortably more chunks than any
    realistic pool has domains, so telemetry-off runs still
    load-balance. *)

val estimate_par :
  ?ctx:Nanodec_parallel.Run_ctx.t ->
  Rng.t ->
  samples:int ->
  (Rng.t -> float) ->
  estimate
(** Chunked {!estimate}.  [samples] must be at least 2.  The pool (if
    any) rides inside [?ctx] ([Run_ctx.make ~pool ()]). *)

val estimate_proportion_par :
  ?ctx:Nanodec_parallel.Run_ctx.t ->
  Rng.t ->
  samples:int ->
  (Rng.t -> bool) ->
  estimate
(** Chunked {!estimate_proportion}; the per-sample hits are exact
    booleans, so the count is exact in any order (folded in sample
    order anyway, for uniformity).  The pool rides inside [?ctx]. *)

val within : estimate -> float -> bool
(** [within e x] tests whether [x] lies inside the 95 % interval of [e]. *)

val pp : Format.formatter -> estimate -> unit
