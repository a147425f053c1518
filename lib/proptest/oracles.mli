(** The paper's propositions as executable property oracles.

    Each oracle states one claim of Ben Jamaa–Leblebici–De Micheli
    (DAC 2009) over randomly generated instances: the bijectivity of the
    pattern→doping mapping [h] (Prop 1), the [S]/[D] inter-derivability
    (Prop 2 and Definition 3), the dose/pattern characterisations of the
    fabrication complexity [φ] (Definition 4) and the hit counts [ν]
    (Definition 5), the Gray arrangement's optimality of both [Φ] and
    [‖Σ‖₁] (Props 4–5, against random arrangements of small spaces and
    their {!Nanodec_codes.Arranger} annealings), the hot-code structure
    and distance-2 arrangement of Section 5, the deterministic address of
    every nanowire, and the supporting word/codebook/metrics algebra.

    These run both under [dune runtest] (via [test/test_properties.ml])
    and standalone as [nanodec check]. *)

val costs_of_words : Nanodec_codes.Word.t list -> int * float
(** Transition-driven [Φ] and full [‖Σ‖₁] (σ_T = 1) of an arrangement —
    the comparison functional of Propositions 4–5.  Shared with the
    exhaustive tests. *)

val h_bijectivity : Property.t
val final_matrix_is_elementwise_h : Property.t
val step_matrix_definition : Property.t
val step_final_round_trip : Property.t
val phi_dose_pattern_equivalence : Property.t
val nu_counts_operations : Property.t
val sigma_consistency : Property.t
val gray_adjacency : Property.t
val gray_not_beaten_phi : Property.t
val gray_not_beaten_sigma : Property.t
val hot_code_structure : Property.t
val arranged_hot_adjacency : Property.t
val word_involutions : Property.t
val reflection_unique_addressability : Property.t
val codebook_space_coverage : Property.t
val metrics_consistency : Property.t
val pattern_transitions : Property.t
val address_book_determinism : Property.t
val defect_map_determinism : Property.t
val pool_map_sequential_equivalence : Property.t
val chunked_mc_domain_invariance : Property.t
val telemetry_transparency : Property.t
val telemetry_span_well_formedness : Property.t

val all : Property.t list
(** Every oracle, in paper order. *)
