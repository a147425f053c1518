(** Data generators for every figure of the paper's evaluation
    (Section 6) plus its headline numbers.  The bench harness and the CLI
    print these; EXPERIMENTS.md records them against the paper. *)

open Nanodec_codes
open Nanodec_numerics

(** {1 Fig. 5 — fabrication complexity vs code and logic type} *)

type fig5_point = {
  radix : int;
  code_type : Codebook.t;
  code_length : int;  (** minimal valid M with Ω ≥ N *)
  phi : int;
}

val fig5 : ?n_wires:int -> unit -> fig5_point list
(** Tree and Gray codes for binary, ternary and quaternary logic;
    [n_wires] defaults to the paper's 10. *)

(** {1 Fig. 6 — variability maps} *)

type fig6_surface = {
  code_type : Codebook.t;
  code_length : int;
  normalized_std : Fmatrix.t;  (** √ν per (wire, digit) — the plotted z *)
  mean_nu : float;
  max_std : float;  (** max √ν *)
}

val fig6 : ?n_wires:int -> unit -> fig6_surface list
(** TC, GC and BGC at lengths 8 and 10 over [n_wires] (default 20)
    binary-coded nanowires. *)

val fig6_multivalued : ?n_wires:int -> radix:int -> unit -> fig6_surface list
(** The paper's "similar results were obtained for these codes with a
    higher logic level": variability surfaces for TC and GC at the minimal
    covering length for the given radix, plus BGC where the exact balanced
    search is tractable (space size ≤ 32). *)

(** {1 Fig. 7 — crossbar yield vs code length} *)

type fig7_point = {
  code_type : Codebook.t;
  code_length : int;
  crossbar_yield : float;
}

val fig7_candidates : (Codebook.t * int) list
(** The figure's grid — TC/BGC at M ∈ 6,8,10 and HC/AHC at M ∈ 4,6,8 —
    exposed for the Monte-Carlo bench workload. *)

val fig7 :
  ?ctx:Nanodec_parallel.Run_ctx.t ->
  ?spec:Design.spec ->
  unit ->
  fig7_point list
(** TC/BGC at M ∈ 6,8,10 and HC/AHC at M ∈ 4,6,8, on the paper platform.
    The context's pool fans the points out across its domains (span
    [figures.fig7]); the result is identical for every domain count.
    The pool rides inside [?ctx] ([Run_ctx.with_ctx ~domains]). *)

(** {1 Fig. 8 — bit area vs code type and length} *)

type fig8_point = {
  code_type : Codebook.t;
  code_length : int;
  bit_area : float;
}

val fig8 :
  ?ctx:Nanodec_parallel.Run_ctx.t ->
  ?spec:Design.spec ->
  unit ->
  fig8_point list
(** All five families at M ∈ 6,8,10 (span [figures.fig8]). *)

(** {1 Extension — multi-valued decoder designs}

    The paper motivates multi-valued logic as a way to shrink the decoder
    ("higher logic level was suggested as a way to reduce the area
    overhead", Section 6.2) but evaluates yield and area for binary codes
    only.  This extension completes the picture: yield and bit area for
    the tree and Gray families at radix 2, 3 and 4. *)

type multivalued_point = {
  radix : int;
  code_type : Codebook.t;
  code_length : int;
  crossbar_yield : float;
  bit_area : float;
  phi : int;
}

val multivalued_designs :
  ?ctx:Nanodec_parallel.Run_ctx.t ->
  ?spec:Design.spec ->
  unit ->
  multivalued_point list
(** TC and GC at every radix in 2..4, at the two smallest valid lengths
    covering the half cave (span [figures.multivalued]). *)

(** {1 Headline numbers} *)

type headlines = {
  gray_step_saving_ternary : float;
      (** fabrication-step saving of GC vs TC, ternary logic (paper: 17 %) *)
  tree_multivalued_overhead : float;
      (** extra steps of ternary TC vs binary TC (paper: ~20 %) *)
  variability_saving : float;
      (** average-variability saving of BGC vs TC at M = 8 (paper: 18 %) *)
  yield_gain_length_tc : float;
      (** crossbar-yield gain of TC M 6→10 (paper: ~40 points) *)
  yield_gain_bgc_vs_tc : float;
      (** relative yield gain of BGC vs TC at M = 8 (paper: 42 %) *)
  yield_gain_ahc_vs_hc : float;
      (** relative yield gain of AHC vs HC at M = 8 (paper: 19 %) *)
  area_saving_tc_length : float;
      (** bit-area saving of TC M 6→10 (paper: 51 %) *)
  density_gain_bgc_vs_tc : float;
      (** bit-area saving of BGC vs TC at M = 8 (paper: ~30 %) *)
  area_saving_ahc_vs_hc : float;
      (** bit-area saving of AHC vs HC at M = 6 (paper: 13 %) *)
  best_bit_area : float * Codebook.t * int;
      (** smallest bit area over all designs (paper: 169 nm², BGC, M=10) *)
}

val headlines : ?spec:Design.spec -> unit -> headlines

val pp_headlines : Format.formatter -> headlines -> unit
