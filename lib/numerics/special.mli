(** Special mathematical functions.

    OCaml's standard library offers no error function, gamma function or
    normal quantile, all of which the yield analysis needs.  The
    implementations below are classical series / rational approximations
    with documented absolute accuracy, adequate for circuit-yield work
    (probabilities are compared against Monte-Carlo noise far above 1e-10). *)

val erf : float -> float
(** [erf x] is the error function {m 2/√π ∫₀ˣ e^{-t²} dt}.
    Absolute error below 1.5e-7 (Abramowitz & Stegun 7.1.26), sign-symmetric. *)

val erfc : float -> float
(** [erfc x = 1 - erf x], computed directly for large [x] to avoid
    cancellation. *)

val erf_inv : float -> float
(** [erf_inv y] is the inverse of {!erf} on (-1, 1), refined by two Newton
    steps; raises [Invalid_argument] outside (-1, 1). *)

val normal_pdf : ?mu:float -> ?sigma:float -> float -> float
(** Density of the normal distribution; [sigma] must be positive. *)

val normal_cdf : ?mu:float -> ?sigma:float -> float -> float
(** Cumulative distribution function of the normal distribution. *)

val normal_quantile : ?mu:float -> ?sigma:float -> float -> float
(** Inverse of {!normal_cdf}; raises [Invalid_argument] outside (0, 1). *)

val normal_quantile_in_place : sigma:float -> float array -> int -> unit
(** [normal_quantile_in_place ~sigma a i] replaces the probability
    [a.(i)] with [normal_quantile ~sigma a.(i)], bit for bit, and
    allocates nothing — the per-sample path of stratified Monte-Carlo
    draws, where a boxed argument and result would cost more than the
    draw itself.  Raises like {!normal_quantile}. *)

val normal_interval_probability : sigma:float -> half_width:float -> float
(** [normal_interval_probability ~sigma ~half_width] is
    {m P(|X| < half\_width)} for {m X ~ N(0, σ²)}.  This is the
    addressability test of one doping region: the threshold voltage must
    stay within [±half_width] of its nominal value. *)

val log_gamma : float -> float
(** Natural logarithm of the gamma function for positive arguments
    (Lanczos approximation, relative error below 1e-10). *)

val log_factorial : int -> float
(** [log_factorial n] = ln n!; exact table for small [n], {!log_gamma}
    beyond. *)

val choose : int -> int -> float
(** Binomial coefficient as a float (exact for all values representable
    without rounding). *)

val multinomial : int list -> float
(** [multinomial [k1; ...; km]] is {m (Σki)! / Πki!} — the size of a hot
    code space with digit counts [ki]. *)
