(** Deterministic, splittable pseudo-random number generation.

    Every stochastic experiment in the library takes an explicit generator,
    so simulations are reproducible from a single integer seed and
    independent sub-experiments can be given statistically independent
    streams via {!split}.  The core generator is PCG32 (O'Neill 2014)
    seeded through SplitMix64, both implemented here from the published
    reference algorithms. *)

type t
(** Mutable generator state: four machine words (PCG state, stream
    selector, and the polar method's cached variate with its flag),
    which the C Gaussian loop reads and writes in place. *)

val create : seed:int -> t
(** [create ~seed] builds a generator deterministically from [seed]. *)

val of_seed : int -> t
(** Positional alias of {!create}, convenient for [List.map]-style
    plumbing in the property-test harness. *)

val of_int64 : int64 -> t
(** Seed from a full 64-bit word (the [int] path truncates on 32-bit
    platforms). *)

val mix_seed : int -> int -> int
(** [mix_seed master i] derives the [i]-th child seed of [master]
    (SplitMix64 finaliser), masked to 62 bits so it is non-negative and
    round-trips through [string_of_int]/[int_of_string].  Used by
    proptest to give every test case an independent, reportable seed. *)

val split : t -> t
(** [split rng] derives a fresh generator whose stream is independent of
    the parent's subsequent output (distinct PCG stream selector).  It
    draws exactly four {!uint32}s from [rng]. *)

val split_into : t -> into:t -> unit
(** [split_into rng ~into] is {!split}[ rng] written over [into]: the
    same draws from [rng], the same child stream, no polar spare — and
    no allocation.  The per-sample stream derivation of the
    Monte-Carlo engine's hot loop: one scratch generator per domain,
    re-aimed at a new stream for every sample. *)

val split_n : t -> int -> t array
(** [split_n rng n] is [n] successive {!split}s. *)

val skip_splits : t -> int -> unit
(** [skip_splits rng n] leaves [rng] where [n] successive {!split}s
    would, without deriving the children; the polar spare is kept. *)

val copy : t -> t
(** Snapshot of the current state; the copy evolves independently. *)

val uint32 : t -> int
(** Next raw 32-bit draw in [0, 2^32). *)

val int : t -> int -> int
(** [int rng bound] draws uniformly from [0, bound); unbiased (rejection
    sampling); [bound] must be in [1, 2^32]. *)

external float : t -> (float[@unboxed])
  = "nanodec_rng_float_byte" "nanodec_rng_float"
[@@noalloc]
(** Uniform draw in [0, 1) with 32 bits of randomness.  A C primitive,
    so a caller in any module gets an unboxed result, even when
    cross-module inlining is off. *)

val float_range : t -> min:float -> max:float -> float
(** Uniform draw in [min, max). *)

val bool : t -> bool

val gaussian : ?mu:float -> ?sigma:float -> t -> float
(** Normal draw via the Marsaglia polar method.  Each accepted point
    gives two variates; the second is cached in the generator and
    returned by the next call. *)

external add_gaussians :
  t -> sigma:(float[@unboxed]) -> int array -> float array -> unit
  = "nanodec_rng_add_gaussians_byte" "nanodec_rng_add_gaussians"
[@@noalloc]
(** [add_gaussians rng ~sigma targets noise] adds [gaussian ~sigma rng]
    to [noise.(targets.(t))] for each [t] in order: bit for bit the
    values, and the state and polar spare left behind, of that loop of
    {!gaussian} calls.  It never allocates.

    It is one C loop (no OCaml version exists), bit-identical to
    {!gaussian} because it repeats the same IEEE double operations:
    the same PCG-XSH-RR step and 32-bit uniform, the same polar
    acceptance test, the same libm [log] that OCaml's [log] calls, and
    [sqrt], which IEEE 754 rounds correctly in both languages.  It is
    compiled with [-ffp-contract=off], so no multiply-add is contracted
    into an FMA (which would round once where OCaml rounds twice).  The
    loop is pipelined: it draws up to 64 accepted points, then takes
    their [log]/[sqrt] factors, then scatters the products in target
    order — the draws and the arithmetic of each point are unchanged,
    only independent points overlap.  The C side reads float arrays
    flat; loading [Rng] fails if the runtime was configured without
    flat float arrays.

    {b Indices are unchecked}: every [targets.(t)] must lie in
    [0, Array.length noise); an index outside it corrupts memory
    instead of raising.  Callers validate their index arrays once,
    when they build them (as [Kernel.compile] does). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val shuffle_list : t -> 'a list -> 'a list
(** Functional shuffle (copies through an array). *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array; raises [Invalid_argument] on an
    empty array. *)
