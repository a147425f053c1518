(** Ablation studies: do the paper's conclusions survive moving the
    calibrated parameters?

    Each ablation sweeps one platform parameter and records the crossbar
    yield of the baseline code (TC, M = 8) and the optimized code
    (BGC, M = 8) at every point.  The paper's central qualitative claim —
    the balanced Gray code beats the tree code — should hold across the
    whole sweep; {!conclusion_holds} checks exactly that. *)

type point = {
  value : float;  (** swept parameter value *)
  tree_yield : float;  (** crossbar yield Y² of TC, M = 8 *)
  bgc_yield : float;  (** crossbar yield Y² of BGC, M = 8 *)
}

type series = {
  parameter : string;
  unit_name : string;
  points : point list;
}

val sweep :
  ?ctx:Nanodec_parallel.Run_ctx.t ->
  parameter:string ->
  unit_name:string ->
  values:float list ->
  apply:(Nanodec_crossbar.Cave.config -> float -> Nanodec_crossbar.Cave.config) ->
  unit ->
  series
(** Generic one-parameter ablation on the paper's platform (span
    [ablation.<parameter>]).  The swept values evaluate across the
    context's pool with identical results for every domain count.  The
    pool rides inside [?ctx] ([Run_ctx.with_ctx ~domains]). *)

val sigma_t :
  ?ctx:Nanodec_parallel.Run_ctx.t ->
  unit ->
  series
(** Per-implant noise, 10–120 mV. *)

val sigma_base :
  ?ctx:Nanodec_parallel.Run_ctx.t ->
  unit ->
  series
(** Intrinsic variability, 0–200 mV. *)

val margin :
  ?ctx:Nanodec_parallel.Run_ctx.t ->
  unit ->
  series
(** Addressability window fraction, 0.2–0.5. *)

val overlay :
  ?ctx:Nanodec_parallel.Run_ctx.t ->
  unit ->
  series
(** Pad overlay margin, 0–28 nm. *)

val cave_wires :
  ?ctx:Nanodec_parallel.Run_ctx.t ->
  unit ->
  series
(** Nanowires per half cave, 10–60. *)

val all :
  ?ctx:Nanodec_parallel.Run_ctx.t ->
  unit ->
  series list
(** Every ablation of the battery, in presentation order. *)

val conclusion_holds : series -> bool
(** BGC yield ≥ TC yield at every swept point. *)

val pp : Format.formatter -> series -> unit
