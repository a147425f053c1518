(** Decoder design evaluation — the paper's contribution as one call.

    A design is a choice of code family, logic valence and code length on
    the MSPT crossbar platform.  {!evaluate} runs the full pipeline —
    code generation, pattern matrix, fabrication complexity Φ, variability
    Σ, contact geometry, yield and area — and returns every quantity the
    paper reports. *)

open Nanodec_codes
open Nanodec_crossbar

type spec = {
  cave : Cave.config;
  raw_bits : int;  (** raw crossbar density D_RAW, crosspoints *)
}

val default_spec : spec
(** The paper's simulation platform (Section 6.1): 16 kB raw density,
    PL 32 nm, PN 10 nm, σ_T 50 mV, N = 20 wires per half cave, binary
    balanced Gray code of length 10. *)

val spec :
  ?base:spec ->
  ?radix:int ->
  ?n_wires:int ->
  code_type:Codebook.t ->
  code_length:int ->
  unit ->
  spec
(** Convenience constructor: [base] defaults to {!default_spec}. *)

val checked_spec :
  what:(string -> string) ->
  code_type:Codebook.t ->
  code_length:int ->
  radix:int ->
  n_wires:int ->
  raw_bits:int ->
  spec
(** {!spec} over {!default_spec} with [raw_bits], after the checks the
    CLI and the serve protocol share: length in [1, 64], radix in
    [2, 16], wires in [1, 10_000], raw bits in [1, 10^9] (in that
    order), then {!Codebook.validate_length}.  A failure raises
    [Invalid_input]; a range error names the knob as [what "length"],
    [what "radix"], [what "wires"] or [what "raw_bits"]. *)

type report = {
  spec : spec;
  omega : int;  (** code space size *)
  phi : int;  (** fabrication complexity Φ (extra litho/doping passes) *)
  phi_per_wire : float;  (** Φ / N *)
  sigma_norm1 : float;  (** ‖Σ‖₁, volt² *)
  average_nu : float;  (** mean doping-operation count per region *)
  max_nu : int;
  pattern_transitions : int;  (** digit transitions between adjacent wires *)
  cave_yield : float;  (** Y *)
  crossbar_yield : float;  (** Y² *)
  effective_bits : float;  (** D_EFF *)
  bit_area : float;  (** nm² per functional bit *)
  area : float;  (** total crossbar area, nm² *)
  n_pads : int;  (** contact groups per half cave *)
  removed_wires : int;  (** wires lost to shared / duplicated contacts *)
}

val evaluate : spec -> report

val pp_report : Format.formatter -> report -> unit

val report_header : string
(** Column header matching {!report_row}. *)

val report_row : report -> string
(** One-line tabular rendering (for sweeps and CSV-ish output). *)
