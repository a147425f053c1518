(* Tests for the crossbar/decoder simulator: geometry, addressing
   semantics, cave yield and the full array model. *)

open Nanodec_codes
open Nanodec_numerics
open Nanodec_physics
open Nanodec_crossbar

let rules = Geometry.default_rules

(* --- geometry --- *)

let test_wire_positions () =
  Alcotest.(check (float 1e-9)) "wire 0" 5. (Geometry.wire_position rules 0);
  Alcotest.(check (float 1e-9)) "wire 3" 35. (Geometry.wire_position rules 3)

let test_pad_width_clamps () =
  (* min(Omega, N) * PN clamped to [1.5 PL, Omega * PN]. *)
  Alcotest.(check (float 1e-9)) "small omega hits litho floor" 48.
    (Geometry.pad_width rules ~omega:3 ~n_wires:20);
  Alcotest.(check (float 1e-9)) "nominal" 160.
    (Geometry.pad_width rules ~omega:16 ~n_wires:20);
  Alcotest.(check (float 1e-9)) "capped by cave size" 200.
    (Geometry.pad_width rules ~omega:32 ~n_wires:20)

let test_every_wire_classified_once () =
  List.iter
    (fun (omega, n_wires) ->
      let layout = Geometry.place rules ~omega ~n_wires in
      Alcotest.(check int)
        (Printf.sprintf "omega=%d N=%d partitions" omega n_wires)
        n_wires
        (Geometry.n_addressable layout + Geometry.n_shared layout
        + Geometry.n_excess layout))
    [ (8, 20); (16, 20); (32, 20); (6, 20); (4, 40); (70, 20) ]

let test_single_pad_when_omega_large () =
  let layout = Geometry.place rules ~omega:64 ~n_wires:20 in
  Alcotest.(check int) "one pad" 1 layout.Geometry.n_pads;
  Alcotest.(check int) "no shared" 0 (Geometry.n_shared layout);
  Alcotest.(check int) "all addressable" 20 (Geometry.n_addressable layout)

let test_pads_respect_omega_capacity () =
  List.iter
    (fun (omega, n_wires) ->
      let layout = Geometry.place rules ~omega ~n_wires in
      let per_pad = Array.make layout.Geometry.n_pads 0 in
      Array.iter
        (fun status ->
          match status with
          | Geometry.Addressable k -> per_pad.(k) <- per_pad.(k) + 1
          | Geometry.Shared_between_pads _ | Geometry.Excess_in_pad _ -> ())
        layout.Geometry.statuses;
      Array.iteri
        (fun k count ->
          if count > omega then
            Alcotest.failf "pad %d holds %d > omega %d" k count omega)
        per_pad)
    [ (3, 20); (6, 20); (8, 20); (16, 40); (4, 30) ]

let test_excess_appears_when_omega_small () =
  (* Omega = 2 with a small overlay: the 48 nm minimum pad solely owns
     ~4 wires, of which only 2 can carry distinct codes. *)
  let tight = { rules with Geometry.pad_overlap = 4. } in
  let layout = Geometry.place tight ~omega:2 ~n_wires:20 in
  Alcotest.(check bool) "some excess" true (Geometry.n_excess layout > 0)

let test_shared_wires_under_overlap () =
  let layout = Geometry.place rules ~omega:8 ~n_wires:20 in
  Alcotest.(check bool) "pads overlap => shared wires" true
    (Geometry.n_shared layout > 0)

let test_overlap_guard () =
  let bad = { rules with Geometry.pad_overlap = 40. } in
  Alcotest.check_raises "overlap >= PL"
    (Invalid_argument "Geometry.place: overlap must be in [0, PL)") (fun () ->
      ignore (Geometry.place bad ~omega:8 ~n_wires:20))

let test_decoder_extent () =
  Alcotest.(check (float 1e-9)) "M=10" ((10. *. 32.) +. 96.)
    (Geometry.decoder_extent rules ~code_length:10)

(* --- addressing --- *)

let levels = Vt_levels.make ~radix:2 ()

let test_applied_voltage_headroom () =
  let va0 = Addressing.applied_voltage levels 0 in
  Alcotest.(check (float 1e-9)) "digit 0" (0.1 +. 0.4) va0;
  Alcotest.(check bool) "digit 1 higher" true
    (Addressing.applied_voltage levels 1 > va0)

let word s = Word.of_string ~radix:2 s
let word3 s = Word.of_string ~radix:3 s

let test_conducts_nominal () =
  Alcotest.(check bool) "self address" true
    (Addressing.conducts_nominal ~address:(word "0110") (word "0110"));
  Alcotest.(check bool) "dominated pattern conducts" true
    (Addressing.conducts_nominal ~address:(word "0110") (word "0100"));
  Alcotest.(check bool) "blocked" false
    (Addressing.conducts_nominal ~address:(word "0110") (word "1110"))

let test_reflected_tree_uniquely_addressable () =
  List.iter
    (fun ct ->
      let group = Codebook.sequence ~radix:2 ~length:8 ~count:16 ct in
      Alcotest.(check bool)
        (Printf.sprintf "%s unique" (Codebook.name ct))
        true
        (Addressing.uniquely_addressable group))
    Codebook.all_types

let test_reflected_ternary_uniquely_addressable () =
  let group = Codebook.sequence ~radix:3 ~length:6 ~count:27 Codebook.Gray in
  Alcotest.(check bool) "ternary Gray unique" true
    (Addressing.uniquely_addressable group)

let test_unreflected_tree_is_not_uniquely_addressable () =
  (* The motivating counter-example: without reflection, 00 dominates
     nothing but is dominated by every other word's address. *)
  let group = Tree_code.words ~radix:2 ~base_len:4 ~count:16 in
  Alcotest.(check bool) "raw counting code fails" false
    (Addressing.uniquely_addressable group)

let test_hot_code_unique_without_reflection () =
  let group = Hot_code.all ~radix:3 ~length:6 in
  Alcotest.(check bool) "ternary hot unique" true
    (Addressing.uniquely_addressable group)

let test_addressed_nominal_identifies_wire () =
  let group = Codebook.sequence ~radix:2 ~length:6 ~count:8 Codebook.Gray in
  List.iter
    (fun target ->
      match Addressing.addressed_nominal ~group ~address:target with
      | Some w ->
        Alcotest.(check string) "addressed itself" (Word.to_string target)
          (Word.to_string w)
      | None -> Alcotest.failf "no wire for %s" (Word.to_string target))
    group

let test_conducts_with_noise () =
  let target = word "01" in
  let address = word "01" in
  (* Nominal: conducts; +0.5 V on a region blocks it. *)
  Alcotest.(check bool) "no noise" true
    (Addressing.conducts levels ~address ~vt_offsets:[| 0.; 0. |] target);
  Alcotest.(check bool) "large upward shift blocks" false
    (Addressing.conducts levels ~address ~vt_offsets:[| 0.; 0.5 |] target)

let test_noise_can_unblock_other_wire () =
  (* Word 10 does not conduct under address 01 nominally; a large negative
     V_T shift on its first region turns it on and destroys uniqueness. *)
  let group_noisy =
    [ (word "01", [| 0.; 0. |]); (word "10", [| -0.9; 0. |]) ]
  in
  Alcotest.(check bool) "uniqueness destroyed" false
    (Addressing.addressed_with_noise levels ~group:group_noisy
       ~address:(word "01") ~target:(word "01"));
  let group_clean = [ (word "01", [| 0.; 0. |]); (word "10", [| 0.; 0. |]) ] in
  Alcotest.(check bool) "clean case addressed" true
    (Addressing.addressed_with_noise levels ~group:group_clean
       ~address:(word "01") ~target:(word "01"))

let test_paper_reflection_example_addressing () =
  (* The reflected words from the paper's Section 2.3 are mutually
     non-dominating. *)
  let ws = List.map word3 [ "00002222"; "00012221"; "00102212" ] in
  Alcotest.(check bool) "unique" true (Addressing.uniquely_addressable ws)

(* --- cave --- *)

let config = Cave.default_config

let test_cave_analysis_basics () =
  let a = Cave.analyze config in
  Alcotest.(check int) "omega" 32 a.Cave.omega;
  Alcotest.(check int) "probabilities per wire" 20
    (Array.length a.Cave.wire_probability);
  Alcotest.(check bool) "yield in (0,1]" true
    (a.Cave.yield > 0. && a.Cave.yield <= 1.);
  Array.iter
    (fun p ->
      if p < 0. || p > 1. then Alcotest.failf "probability %g out of range" p)
    a.Cave.wire_probability

let test_cave_removed_wires_probability_zero () =
  let small_code = { config with Cave.code_type = Codebook.Tree; code_length = 6 } in
  let a = Cave.analyze small_code in
  Array.iteri
    (fun i status ->
      match status with
      | Geometry.Shared_between_pads _ | Geometry.Excess_in_pad _ ->
        Alcotest.(check (float 0.))
          (Printf.sprintf "removed wire %d" i)
          0.
          a.Cave.wire_probability.(i)
      | Geometry.Addressable _ -> ())
    a.Cave.layout.Geometry.statuses

let test_cave_yield_decreases_with_sigma () =
  let yield_at sigma_t =
    (Cave.analyze { config with Cave.sigma_t = sigma_t }).Cave.yield
  in
  Alcotest.(check bool) "monotone" true (yield_at 0.02 > yield_at 0.10)

let test_cave_yield_increases_with_margin () =
  let yield_at margin_fraction =
    (Cave.analyze { config with Cave.margin_fraction }).Cave.yield
  in
  Alcotest.(check bool) "monotone" true (yield_at 0.45 > yield_at 0.2)

let test_cave_bgc_beats_tree () =
  let yield_of code_type =
    (Cave.analyze { config with Cave.code_type; code_length = 8 }).Cave.yield
  in
  Alcotest.(check bool) "BGC > GC" true
    (yield_of Codebook.Balanced_gray > yield_of Codebook.Gray);
  Alcotest.(check bool) "GC > TC" true
    (yield_of Codebook.Gray > yield_of Codebook.Tree)

let test_wire_window_probability () =
  Alcotest.(check (float 1e-9)) "empty product" 1.
    (Cave.wire_window_probability ~sigma_t:0.05 ~sigma_base:0. ~window:0.1
       ~nu_row:[||]);
  let single =
    Cave.wire_window_probability ~sigma_t:0.05 ~sigma_base:0. ~window:0.1
      ~nu_row:[| 4 |]
  in
  Alcotest.(check (float 1e-9)) "matches erf"
    (Special.normal_interval_probability ~sigma:0.1 ~half_width:0.1)
    single;
  let with_base =
    Cave.wire_window_probability ~sigma_t:0.05 ~sigma_base:0.1 ~window:0.1
      ~nu_row:[| 4 |]
  in
  Alcotest.(check bool) "base variance lowers probability" true
    (with_base < single)

let test_cave_invalid_configs () =
  Alcotest.check_raises "bad sigma" (Invalid_argument "Cave: sigma_t must be positive")
    (fun () -> ignore (Cave.analyze { config with Cave.sigma_t = 0. }));
  Alcotest.check_raises "bad length"
    (Invalid_argument "Cave: reflected codes need an even length >= 2, got 7")
    (fun () -> ignore (Cave.analyze { config with Cave.code_length = 7 }))

let test_mc_window_agrees_with_analytic () =
  (* The analytic yield must fall within the Monte-Carlo 99.99% band for
     every code family; 6-sigma slack keeps the test robust. *)
  let rng = Rng.create ~seed:7 in
  List.iter
    (fun (code_type, code_length) ->
      let a =
        Cave.analyze { config with Cave.n_wires = 12; code_type; code_length }
      in
      let e = Cave.mc_yield_window_par (Rng.split rng) ~samples:400 a in
      let slack = 6. *. e.Montecarlo.std_error in
      if
        a.Cave.yield < e.Montecarlo.mean -. slack
        || a.Cave.yield > e.Montecarlo.mean +. slack
      then
        Alcotest.failf "%s M=%d: analytic %g vs MC %g +/- %g"
          (Codebook.name code_type) code_length a.Cave.yield
          e.Montecarlo.mean e.Montecarlo.std_error)
    [
      (Codebook.Tree, 8);
      (Codebook.Gray, 8);
      (Codebook.Balanced_gray, 10);
      (Codebook.Hot, 6);
      (Codebook.Arranged_hot, 6);
    ]

let test_mc_functional_close_to_window () =
  (* The electrical-uniqueness yield should track the window model within
     a few points (the window test is the paper's conservative proxy). *)
  let a = Cave.analyze { config with Cave.n_wires = 12; code_length = 8 } in
  let rng = Rng.create ~seed:11 in
  let w = Cave.mc_yield_window_par rng ~samples:200 a in
  let f = Cave.mc_yield_functional rng ~samples:200 a in
  Alcotest.(check bool) "within 10 points" true
    (Float.abs (w.Montecarlo.mean -. f.Montecarlo.mean) < 0.10)

let test_spread_placement_beats_centered () =
  (* The paper spreads V_T levels over the full 0-1 V range; the wider
     separation gives a wider addressability window and a better yield
     than centred-in-bin placement. *)
  let yield_with placement =
    (Cave.analyze { config with Cave.placement }).Cave.yield
  in
  Alcotest.(check bool) "spread wins" true
    (yield_with (Vt_levels.Spread 0.1) > yield_with Vt_levels.Centered)

(* --- array sim --- *)

let test_array_report_consistency () =
  let r = Array_sim.evaluate Array_sim.default_config in
  Alcotest.(check int) "wires per layer" 363 r.Array_sim.wires_per_layer;
  Alcotest.(check int) "caves" 10 r.Array_sim.caves_per_layer;
  Alcotest.(check (float 1e-9)) "Y^2"
    (r.Array_sim.cave_yield *. r.Array_sim.cave_yield)
    r.Array_sim.crossbar_yield;
  Alcotest.(check (float 1e-6)) "D_EFF"
    (float_of_int 131072 *. r.Array_sim.crossbar_yield)
    r.Array_sim.effective_bits;
  Alcotest.(check (float 1e-6)) "bit area"
    (r.Array_sim.area /. r.Array_sim.effective_bits)
    r.Array_sim.bit_area;
  Alcotest.(check bool) "side sane" true
    (r.Array_sim.side > 3000. && r.Array_sim.side < 10000.)

let test_array_larger_memory_larger_side () =
  let small = Array_sim.evaluate Array_sim.default_config in
  let big =
    Array_sim.evaluate { Array_sim.default_config with raw_bits = 4 * 131072 }
  in
  Alcotest.(check bool) "side grows" true
    (big.Array_sim.side > small.Array_sim.side);
  (* Bit area improves with scale: decoder overhead amortises. *)
  Alcotest.(check bool) "bit area amortises" true
    (big.Array_sim.bit_area < small.Array_sim.bit_area)

let test_array_guard () =
  Alcotest.check_raises "raw_bits guard"
    (Invalid_argument "Array_sim.evaluate: raw_bits must be positive")
    (fun () ->
      ignore (Array_sim.evaluate { Array_sim.default_config with raw_bits = 0 }))

let prop_geometry_partition =
  QCheck.Test.make ~name:"geometry classifies each wire exactly once"
    ~count:100
    QCheck.(pair (int_range 1 80) (int_range 4 60))
    (fun (omega, n_wires) ->
      let layout = Geometry.place rules ~omega ~n_wires in
      Geometry.n_addressable layout + Geometry.n_shared layout
      + Geometry.n_excess layout
      = n_wires)

let prop_yield_bounds =
  QCheck.Test.make ~name:"cave yield within [0,1]" ~count:50
    QCheck.(pair (int_range 2 6) (int_range 5 30))
    (fun (half_m, n_wires) ->
      let c =
        { config with Cave.code_length = 2 * half_m; n_wires }
      in
      let y = (Cave.analyze c).Cave.yield in
      y >= 0. && y <= 1.)

let suite =
  [
    Alcotest.test_case "wire positions" `Quick test_wire_positions;
    Alcotest.test_case "pad width clamps" `Quick test_pad_width_clamps;
    Alcotest.test_case "wires classified once" `Quick
      test_every_wire_classified_once;
    Alcotest.test_case "single pad large omega" `Quick
      test_single_pad_when_omega_large;
    Alcotest.test_case "pads respect omega" `Quick
      test_pads_respect_omega_capacity;
    Alcotest.test_case "excess wires small omega" `Quick
      test_excess_appears_when_omega_small;
    Alcotest.test_case "shared wires exist" `Quick
      test_shared_wires_under_overlap;
    Alcotest.test_case "overlap guard" `Quick test_overlap_guard;
    Alcotest.test_case "decoder extent" `Quick test_decoder_extent;
    Alcotest.test_case "applied voltage" `Quick test_applied_voltage_headroom;
    Alcotest.test_case "nominal conduction" `Quick test_conducts_nominal;
    Alcotest.test_case "reflected families unique" `Quick
      test_reflected_tree_uniquely_addressable;
    Alcotest.test_case "ternary reflected unique" `Quick
      test_reflected_ternary_uniquely_addressable;
    Alcotest.test_case "unreflected tree fails" `Quick
      test_unreflected_tree_is_not_uniquely_addressable;
    Alcotest.test_case "hot codes unique unreflected" `Quick
      test_hot_code_unique_without_reflection;
    Alcotest.test_case "addressed_nominal" `Quick
      test_addressed_nominal_identifies_wire;
    Alcotest.test_case "conduction with noise" `Quick test_conducts_with_noise;
    Alcotest.test_case "noise destroys uniqueness" `Quick
      test_noise_can_unblock_other_wire;
    Alcotest.test_case "paper reflection addressing" `Quick
      test_paper_reflection_example_addressing;
    Alcotest.test_case "cave analysis basics" `Quick test_cave_analysis_basics;
    Alcotest.test_case "removed wires get zero" `Quick
      test_cave_removed_wires_probability_zero;
    Alcotest.test_case "yield vs sigma" `Quick test_cave_yield_decreases_with_sigma;
    Alcotest.test_case "yield vs margin" `Quick
      test_cave_yield_increases_with_margin;
    Alcotest.test_case "code ordering BGC>GC>TC" `Quick test_cave_bgc_beats_tree;
    Alcotest.test_case "wire window probability" `Quick
      test_wire_window_probability;
    Alcotest.test_case "config guards" `Quick test_cave_invalid_configs;
    Alcotest.test_case "MC window = analytic" `Slow
      test_mc_window_agrees_with_analytic;
    Alcotest.test_case "MC functional ~ window" `Slow
      test_mc_functional_close_to_window;
    Alcotest.test_case "spread beats centered placement" `Quick
      test_spread_placement_beats_centered;
    Alcotest.test_case "array report consistency" `Quick
      test_array_report_consistency;
    Alcotest.test_case "array scaling" `Quick test_array_larger_memory_larger_side;
    Alcotest.test_case "array guard" `Quick test_array_guard;
    QCheck_alcotest.to_alcotest prop_geometry_partition;
    QCheck_alcotest.to_alcotest prop_yield_bounds;
  ]
