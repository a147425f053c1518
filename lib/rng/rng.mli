(** Deterministic, splittable pseudo-random number generation.

    Every stochastic experiment in the library takes an explicit generator,
    so simulations are reproducible from a single integer seed and
    independent sub-experiments can be given statistically independent
    streams via {!split}.  The core generator is PCG32 (O'Neill 2014)
    seeded through SplitMix64, both implemented here from the published
    reference algorithms. *)

type t
(** Mutable generator state. *)

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
    the parent's subsequent output (distinct PCG stream selector). *)

val split_n : t -> int -> t array
(** [split_n rng n] is [n] successive {!split}s. *)

val copy : t -> t
(** Snapshot of the current state; the copy evolves independently. *)

val copy_into : t -> into:t -> unit
(** [copy_into src ~into] overwrites [into] with [src]'s full state —
    stream selector and cached polar spare included — so [into] then
    draws exactly what {!copy}[ src] would, without allocating a record.
    [src] is untouched.  The per-sample restart primitive of the
    scheduler's hot loop: one scratch generator per domain, re-aimed at
    a new stream for every sample. *)

val uint32 : t -> int
(** Next raw 32-bit draw in [0, 2^32). *)

val int : t -> int -> int
(** [int rng bound] draws uniformly from [0, bound); unbiased (rejection
    sampling); [bound] must be in [1, 2^32]. *)

val float : t -> float
(** Uniform draw in [0, 1) with 32 bits of randomness. *)

val float_range : t -> min:float -> max:float -> float
(** Uniform draw in [min, max). *)

val bool : t -> bool

val gaussian : ?mu:float -> ?sigma:float -> t -> float
(** Normal draw via the Marsaglia polar method. *)

(** Unboxed hot-loop mirror of a generator.

    The public {!t} keeps its boxed representation because every consumer
    and the determinism contract depend on it; [Fast] is a scratch state
    in one unboxed int64 Bigarray, for inner loops
    that draw thousands of Gaussians per sample.  Mirror discipline:
    {!Fast.load} the source generator, draw, then {!Fast.store} back —
    the source is left exactly where the equivalent {!gaussian} calls
    would have left it, and the values drawn in between are bit-for-bit
    the same stream.

    {!Fast.add_gaussians} is one C loop (no OCaml version exists).  It
    is bit-identical to {!gaussian} because it repeats the same IEEE
    double operations in the same order: the same PCG-XSH-RR step and
    32-bit uniform, the same polar acceptance test, the same libm [log]
    that OCaml's [log] calls, and [sqrt], which IEEE 754 rounds
    correctly in both languages.  It is compiled with
    [-ffp-contract=off], so no multiply-add is contracted into an FMA
    (which would round once where OCaml rounds twice).  The C side
    reads float arrays flat; loading [Rng] fails if the runtime was
    configured without flat float arrays.

    Both draws are [external] C primitives, so a caller in another
    module calls them directly with an unboxed result even when
    cross-module inlining is off. *)
module Fast : sig
  type rng := t

  type t
  (** Mutable mirror state; reusable across [load]/[store] cycles. *)

  val create : unit -> t

  val load : t -> rng -> unit
  (** Copy the source generator's state (including any cached polar
      spare) into the mirror. *)

  val store : t -> rng -> unit
  (** Write the mirror's state back to the source generator. *)

  external float : t -> (float[@unboxed])
    = "nanodec_rng_fast_float_byte" "nanodec_rng_fast_float"
  [@@noalloc]
  (** Same stream as {!Rng.float}. *)

  external add_gaussians :
    t -> sigma:(float[@unboxed]) -> int array -> float array -> unit
    = "nanodec_rng_add_gaussians_byte" "nanodec_rng_add_gaussians"
  [@@noalloc]
  (** [add_gaussians fast ~sigma targets noise] adds
      [Rng.gaussian ~sigma] of the mirrored stream to
      [noise.(targets.(t))] for each [t] in order: bit for bit the
      values, and the state and polar spare left behind, of that loop
      of {!gaussian} calls.  It never allocates.

      {b Indices are unchecked}: every [targets.(t)] must lie in
      [0, Array.length noise); an index outside it corrupts memory
      instead of raising.  Callers validate their index arrays once,
      when they build them (as [Kernel.compile] does). *)
end

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val shuffle_list : t -> 'a list -> 'a list
(** Functional shuffle (copies through an array). *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array; raises [Invalid_argument] on an
    empty array. *)
