(* Tests for descriptive statistics and the Monte-Carlo estimator. *)

open Nanodec_numerics

let check_float = Alcotest.(check (float 1e-9))

let test_mean () =
  check_float "mean" 2.5 (Descriptive.mean [| 1.; 2.; 3.; 4. |]);
  check_float "singleton" 7. (Descriptive.mean [| 7. |]);
  Alcotest.check_raises "empty" (Invalid_argument "Descriptive.mean: empty array")
    (fun () -> ignore (Descriptive.mean [||]))

let test_variance () =
  check_float "variance" (14. /. 3.) (Descriptive.variance [| 1.; 2.; 3.; 6. |]);
  check_float "singleton variance" 0. (Descriptive.variance [| 5. |]);
  check_float "constant" 0. (Descriptive.variance [| 2.; 2.; 2. |])

let test_std () =
  check_float "std" (sqrt 2.5) (Descriptive.std [| 1.; 2.; 3.; 4.; 5. |])

let test_min_max () =
  let lo, hi = Descriptive.min_max [| 3.; -1.; 7.; 0. |] in
  check_float "min" (-1.) lo;
  check_float "max" 7. hi

let test_quantile () =
  let xs = [| 1.; 2.; 3.; 4.; 5. |] in
  check_float "median" 3. (Descriptive.quantile xs 0.5);
  check_float "q0" 1. (Descriptive.quantile xs 0.);
  check_float "q1" 5. (Descriptive.quantile xs 1.);
  check_float "q25" 2. (Descriptive.quantile xs 0.25);
  (* Interpolation between order statistics. *)
  check_float "q interpolated" 1.4 (Descriptive.quantile [| 1.; 2. |] 0.4)

let test_quantile_does_not_mutate () =
  let xs = [| 3.; 1.; 2. |] in
  ignore (Descriptive.quantile xs 0.5);
  Alcotest.(check (array (float 0.))) "untouched" [| 3.; 1.; 2. |] xs

let test_median_unsorted () =
  check_float "median unsorted" 2. (Descriptive.median [| 3.; 1.; 2. |])

let test_summary () =
  let s = Descriptive.summarize [| 2.; 4.; 6. |] in
  Alcotest.(check int) "count" 3 s.Descriptive.count;
  check_float "mean" 4. s.Descriptive.mean;
  check_float "min" 2. s.Descriptive.min;
  check_float "max" 6. s.Descriptive.max

let test_histogram () =
  let bins = Descriptive.histogram ~bins:2 [| 0.; 1.; 2.; 3. |] in
  Alcotest.(check int) "two bins" 2 (Array.length bins);
  let _, _, c0 = bins.(0) and _, _, c1 = bins.(1) in
  Alcotest.(check int) "total count" 4 (c0 + c1);
  Alcotest.(check int) "lower bin" 2 c0

let test_histogram_constant_data () =
  let bins = Descriptive.histogram ~bins:3 [| 5.; 5.; 5. |] in
  let total = Array.fold_left (fun acc (_, _, c) -> acc + c) 0 bins in
  Alcotest.(check int) "all counted" 3 total

let mc_estimate rng ~samples f =
  Montecarlo.run (Montecarlo.spec (Montecarlo.fixed samples)) rng
    (Montecarlo.target f)

let test_mc_estimate_constant () =
  let rng = Rng.create ~seed:1 in
  let e = mc_estimate rng ~samples:100 (fun _ -> 3.) in
  check_float "mean" 3. e.Montecarlo.mean;
  check_float "stderr" 0. e.Montecarlo.std_error;
  Alcotest.(check bool) "within" true (Montecarlo.within e 3.)

let test_mc_estimate_uniform () =
  let rng = Rng.create ~seed:2 in
  let e = mc_estimate rng ~samples:10_000 Rng.float in
  Alcotest.(check bool) "CI contains 0.5" true (Montecarlo.within e 0.5);
  Alcotest.(check bool) "CI reasonably tight" true
    (e.Montecarlo.ci95_high -. e.Montecarlo.ci95_low < 0.02)

let test_mc_proportion () =
  let rng = Rng.create ~seed:3 in
  let e =
    mc_estimate rng ~samples:10_000 (fun rng ->
        if Rng.float rng < 0.3 then 1. else 0.)
  in
  Alcotest.(check bool) "CI contains 0.3" true (Montecarlo.within e 0.3)

let test_mc_rejects_tiny_sample () =
  let rng = Rng.create ~seed:4 in
  Alcotest.check_raises "one sample"
    (Invalid_argument "Montecarlo.run: need >= 2 samples") (fun () ->
      ignore (mc_estimate rng ~samples:1 (fun _ -> 0.)))

let prop_mean_bounds =
  QCheck.Test.make ~name:"mean within [min, max]" ~count:200
    QCheck.(array_of_size Gen.(int_range 1 40) (float_range (-100.) 100.))
    (fun xs ->
      let m = Descriptive.mean xs in
      let lo, hi = Descriptive.min_max xs in
      m >= lo -. 1e-9 && m <= hi +. 1e-9)

let prop_variance_nonnegative =
  QCheck.Test.make ~name:"variance >= 0" ~count:200
    QCheck.(array_of_size Gen.(int_range 1 40) (float_range (-100.) 100.))
    (fun xs -> Descriptive.variance xs >= 0.)

let prop_quantile_monotone =
  QCheck.Test.make ~name:"quantile monotone in p" ~count:200
    QCheck.(
      triple
        (array_of_size Gen.(int_range 1 30) (float_range (-10.) 10.))
        (float_bound_inclusive 1.) (float_bound_inclusive 1.))
    (fun (xs, p1, p2) ->
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Descriptive.quantile xs lo <= Descriptive.quantile xs hi +. 1e-9)

let suite =
  [
    Alcotest.test_case "mean" `Quick test_mean;
    Alcotest.test_case "variance" `Quick test_variance;
    Alcotest.test_case "std" `Quick test_std;
    Alcotest.test_case "min/max" `Quick test_min_max;
    Alcotest.test_case "quantile" `Quick test_quantile;
    Alcotest.test_case "quantile purity" `Quick test_quantile_does_not_mutate;
    Alcotest.test_case "median" `Quick test_median_unsorted;
    Alcotest.test_case "summary" `Quick test_summary;
    Alcotest.test_case "histogram" `Quick test_histogram;
    Alcotest.test_case "histogram constant" `Quick test_histogram_constant_data;
    Alcotest.test_case "MC constant" `Quick test_mc_estimate_constant;
    Alcotest.test_case "MC uniform" `Quick test_mc_estimate_uniform;
    Alcotest.test_case "MC proportion" `Quick test_mc_proportion;
    Alcotest.test_case "MC sample guard" `Quick test_mc_rejects_tiny_sample;
    QCheck_alcotest.to_alcotest prop_mean_bounds;
    QCheck_alcotest.to_alcotest prop_variance_nonnegative;
    QCheck_alcotest.to_alcotest prop_quantile_monotone;
  ]
