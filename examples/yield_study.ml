(* Yield study: sensitivity of the crossbar yield to the platform
   parameters, plus a Monte-Carlo cross-check of the analytic model.

   Run with: dune exec examples/yield_study.exe

   This is the ablation the DESIGN.md calls out: how do the two calibrated
   parameters (addressability window, pad overlay margin) and the two
   physical noise sources (per-implant sigma_T, intrinsic sigma_0) move
   the yield?  And does the closed-form Gaussian model agree with brute
   Monte-Carlo over the process simulator? *)

open Nanodec_codes
open Nanodec_numerics
open Nanodec_crossbar

let yield_with update =
  let cave = update Cave.default_config in
  (Cave.analyze cave).Cave.yield

let row fmt = Printf.printf fmt

let () =
  print_endline "== yield sensitivity (balanced Gray, M = 10, N = 20) ==\n";

  row "sigma_T sweep (per-implant V_T noise):\n";
  List.iter
    (fun sigma_t ->
      row "  sigma_T = %3.0f mV   Y = %.3f\n" (1000. *. sigma_t)
        (yield_with (fun c -> { c with Cave.sigma_t })))
    [ 0.01; 0.03; 0.05; 0.08; 0.12 ];

  row "\nsigma_0 sweep (intrinsic region variability):\n";
  List.iter
    (fun sigma_base ->
      row "  sigma_0 = %3.0f mV   Y = %.3f\n" (1000. *. sigma_base)
        (yield_with (fun c -> { c with Cave.sigma_base })))
    [ 0.00; 0.05; 0.10; 0.15; 0.20 ];

  row "\naddressability window sweep (fraction of level separation):\n";
  List.iter
    (fun margin_fraction ->
      row "  margin = %.2f      Y = %.3f\n" margin_fraction
        (yield_with (fun c -> { c with Cave.margin_fraction })))
    [ 0.2; 0.3; 0.42; 0.5 ];

  row "\npad overlay sweep (tree code, M = 6 — geometry-limited):\n";
  List.iter
    (fun overlap ->
      let y =
        yield_with (fun c ->
            {
              c with
              Cave.code_type = Codebook.Tree;
              code_length = 6;
              rules = { c.Cave.rules with Geometry.pad_overlap = overlap };
            })
      in
      row "  overlay = %2.0f nm   Y = %.3f\n" overlap y)
    [ 0.; 8.; 16.; 24. ];

  print_endline "\n== Monte-Carlo cross-check of the analytic yield ==\n";
  let rng = Rng.create ~seed:2009 in
  List.iter
    (fun (ct, m) ->
      let analysis =
        Cave.analyze
          { Cave.default_config with Cave.code_type = ct; code_length = m }
      in
      let mc = Cave.mc_yield_window_par (Rng.split rng) ~samples:300 analysis in
      let functional =
        Cave.mc_yield_functional (Rng.split rng) ~samples:300 analysis
      in
      Printf.printf
        "%-4s M=%-2d  analytic Y = %.3f   MC(window) = %.3f +/- %.3f   \
         MC(electrical) = %.3f +/- %.3f\n"
        (Codebook.name ct) m analysis.Cave.yield mc.Montecarlo.mean
        (2. *. mc.Montecarlo.std_error)
        functional.Montecarlo.mean
        (2. *. functional.Montecarlo.std_error))
    [
      (Codebook.Tree, 8);
      (Codebook.Gray, 8);
      (Codebook.Balanced_gray, 8);
      (Codebook.Balanced_gray, 10);
    ];
  print_endline
    "\nthe window model (the paper's criterion) matches its own Monte-Carlo \
     re-simulation;\nthe full electrical-uniqueness criterion tracks it \
     closely, validating the proxy.";

  print_endline "\n== analog sense-margin criterion (independent model) ==\n";
  List.iter
    (fun (ct, m) ->
      let analysis =
        Cave.analyze
          { Cave.default_config with Cave.code_type = ct; code_length = m }
      in
      let sense =
        Sensing.mc_sense_yield (Rng.split rng) ~samples:150 analysis
      in
      Printf.printf
        "%-4s M=%-2d  window Y = %.3f   sense-ratio Y = %.3f +/- %.3f\n"
        (Codebook.name ct) m analysis.Cave.yield sense.Montecarlo.mean
        (2. *. sense.Montecarlo.std_error))
    [ (Codebook.Tree, 8); (Codebook.Balanced_gray, 8) ];
  print_endline
    "\na conductance-based selected/sneak current ratio criterion lands in \
     the same band\nas the paper's window abstraction."
