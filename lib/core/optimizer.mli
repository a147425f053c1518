(** Decoder design-space exploration.

    Sweeps code families and lengths on a fixed platform and picks the
    design optimising a chosen objective — the workflow behind the paper's
    "optimizing the decoder parameters" claims (40 % yield, 169 nm²/bit). *)

open Nanodec_codes

type objective =
  | Max_yield  (** maximise crossbar yield Y² *)
  | Min_bit_area  (** minimise area per functional bit *)
  | Min_fabrication  (** minimise Φ, ties broken by yield *)
  | Min_variability  (** minimise ‖Σ‖₁, ties broken by yield *)

type candidate = {
  code_type : Codebook.t;
  code_length : int;
}

val default_candidates : candidate list
(** The paper's grid: all five families × M ∈ 4,6,8,10,12 (invalid
    combinations dropped). *)

val sweep :
  ?ctx:Nanodec_parallel.Run_ctx.t ->
  ?spec:Design.spec ->
  ?candidates:candidate list ->
  unit ->
  Design.report list
(** Evaluates every valid candidate on the platform of [spec].  Candidates
    whose exact code construction is out of search range (balanced-Gray or
    arranged-hot spaces beyond the documented limits) are skipped with a
    warning rather than aborting the sweep.  The execution context
    supplies the pool and telemetry (spans [optimizer.sweep] /
    [optimizer.evaluate], counter [optimizer.candidates]); candidates
    evaluate across the pool's domains and the report list (order
    included) is identical for every domain count.  The pool rides
    inside [?ctx] ([Run_ctx.with_ctx ~domains]). *)

val best :
  ?ctx:Nanodec_parallel.Run_ctx.t ->
  ?spec:Design.spec ->
  ?candidates:candidate list ->
  objective ->
  Design.report
(** The sweep's winner under [objective]. *)

val score : objective -> Design.report -> float
(** Scalar score (lower is better) used by {!best}; exposed for tests. *)

val pareto_yield_area : Design.report list -> Design.report list
(** Designs not dominated in (yield, bit area) — higher yield and lower
    bit area both count as better.  Sorted by increasing bit area. *)
