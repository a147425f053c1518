(** Compiled Monte-Carlo yield kernels.

    {!Cave.mc_yield_window_reference}'s draw allocates an N×M noise
    matrix and re-walks the pass/mask lists for every sample.  A kernel
    pre-compiles all of that, once, into a flat {e pass program}:

    {ul
    {- [targets] — every implant Gaussian of one sample reduced to the
       index of the cell it doses, in exact reference draw order
       (fabrication-ordered passes, wires 0..after_wire, regions
       ascending through the mask);}
    {- packed usable-wire flags and the precomputed σ_T/σ_base terms and
       acceptance window.}}

    {!draw} then executes one sample as a linear sweep over [targets]
    into a preallocated, domain-local scratch plane (obtained through
    {!Nanodec_parallel.Workspace}), drawing straight from the caller's
    generator through {!Rng.add_gaussians} — no per-sample matrix, list
    or closure allocation — and scans each usable wire's row with an
    early exit at the first region outside the window.

    The Gaussian draw order, the [sigma_base <> 0.] gate and the window
    comparison are replicated exactly, so a kernelized estimate is
    bit-for-bit identical to the reference draw under the same generator
    — the property the [kernel ≡ reference] oracle and the determinism
    gates enforce. *)

open Nanodec_numerics

type t
(** A compiled kernel; immutable, safe to share across domains (the
    mutable scratch lives in the domain-local workspace, not here). *)

val compile :
  n_wires:int ->
  n_regions:int ->
  sigma_t:float ->
  sigma_base:float ->
  window:float ->
  usable:bool array ->
  Nanodec_mspt.Process.pass list ->
  t
(** [compile] validates the geometry and flattens the pass program.
    [usable.(i)] tells whether wire [i] counts toward the yield
    (addressable, in {!Cave} terms); the array is copied.  Cost is one
    pass over the program — amortised over every subsequent sample. *)

val draw : t -> Rng.t -> float
(** One Monte-Carlo sample: the fraction of usable wires whose every
    region stays within ±window of nominal under freshly drawn
    fabrication noise.  Advances [rng] exactly as the reference draw
    would (same stream, same number of draws, spare cache included). *)

val draws_per_sample : t -> int
(** Gaussians consumed by each {!draw} — implant targets plus, when
    σ_base is non-zero, one per cell of the N×M plane. *)

val n_passes : t -> int
(** Passes in the compiled program (after per-step dose splitting). *)

(** {1 Variance-reduced draws}

    Strategy-specific single-sample evaluators, each an {e equally
    unbiased} estimator of the same window yield on its own draw
    stream.  They share {!draw}'s zero-allocation discipline (the same
    domain-local scratch, the same in-place {!Rng.add_gaussians});
    their per-cell tables — total noise scale σ{_c}² = ν{_c}σ{_T}² +
    σ{_base}², marginal failure probabilities, importance mixture
    weights, the dominant stratification cell — are all precomputed by
    {!compile}.  Callers normally reach them through {!target} rather
    than directly. *)

val draw_stratified : t -> strata:int -> stratum:int -> Rng.t -> float
(** {!draw}, except the globally dominant cell's total (the max-σ cell
    on a usable wire) is redrawn from stratum [stratum] of [strata]
    equal-probability strata of its N(0, σ{^2}) law — equal in law
    overall by cell independence.  Falls back to {!draw} when no
    usable wire has a noisy cell. *)

val draw_importance : t -> shift:float -> Rng.t -> float
(** One importance-sampled estimate of the yield: per usable wire, a
    mixture proposal shifts one failure-probability-chosen cell by
    ±[shift]·window and reweights wire failures with the exact inverse
    likelihood ratio.  Weights are self-bounding (the selected cell's
    own mixture term bounds the ratio away from zero), so the
    estimator's variance at high yield is far below the Bernoulli
    variance the plain draw pays. *)

val target : t -> Nanodec_numerics.Montecarlo.target
(** The fully-equipped Monte-Carlo target of this kernel: {!draw} as
    the plain integrand plus all three strategy evaluators — what
    {!Cave.mc_yield_window_par} hands to [Montecarlo.run].  The
    antithetic evaluator is {!draw} itself: the window predicate is
    even in the noise vector, so a sign-mirrored pair's average is the
    single draw's value — a draw-cost optimisation (one Gaussian set
    per pair), not a variance reduction, on this integrand. *)
