(* Unit and property tests for Nanodec_numerics.Special. *)

open Nanodec_numerics

let check_float = Alcotest.(check (float 1e-6))
let check_close eps = Alcotest.(check (float eps))

let test_erf_known_values () =
  check_float "erf 0" 0. (Special.erf 0.);
  check_close 2e-7 "erf 1" 0.8427007929 (Special.erf 1.);
  check_close 2e-7 "erf 2" 0.9953222650 (Special.erf 2.);
  check_close 2e-7 "erf 0.5" 0.5204998778 (Special.erf 0.5);
  check_float "erf inf ~ 1" 1. (Special.erf 10.)

let test_erf_odd () =
  List.iter
    (fun x ->
      check_float
        (Printf.sprintf "erf(-%g) = -erf(%g)" x x)
        (-.Special.erf x) (Special.erf (-.x)))
    [ 0.1; 0.5; 1.; 2.; 5. ]

let test_erfc_complement () =
  List.iter
    (fun x ->
      check_close 1e-6
        (Printf.sprintf "erf + erfc = 1 at %g" x)
        1.
        (Special.erf x +. Special.erfc x))
    [ -3.; -1.; 0.; 0.3; 1.; 2.5 ]

let test_erfc_large_argument () =
  (* Direct computation must not collapse to zero where 1 - erf would. *)
  let v = Special.erfc 4. in
  Alcotest.(check bool) "erfc 4 positive" true (v > 0.);
  check_close 1e-9 "erfc 4" 1.5417257900280018e-8 v

let test_erf_inv_roundtrip () =
  List.iter
    (fun y ->
      check_close 1e-9
        (Printf.sprintf "erf (erf_inv %g)" y)
        y
        (Special.erf (Special.erf_inv y)))
    [ -0.999; -0.7; -0.1; 0.001; 0.3; 0.9; 0.9999 ]

let test_erf_inv_domain () =
  Alcotest.check_raises "erf_inv 1" (Invalid_argument "Special.erf_inv: argument outside (-1, 1)")
    (fun () -> ignore (Special.erf_inv 1.))

let test_normal_cdf_known () =
  check_close 1e-7 "cdf 0" 0.5 (Special.normal_cdf 0.);
  check_close 1e-6 "cdf 1.96" 0.9750021 (Special.normal_cdf 1.96);
  check_close 1e-6 "cdf -1.96" 0.0249979 (Special.normal_cdf (-1.96));
  check_close 1e-7 "cdf mu sigma" 0.5 (Special.normal_cdf ~mu:3. ~sigma:2. 3.)

let test_normal_pdf_known () =
  check_close 1e-9 "pdf 0" 0.3989422804014327 (Special.normal_pdf 0.);
  check_close 1e-9 "pdf symmetric" (Special.normal_pdf 1.3)
    (Special.normal_pdf (-1.3))

let test_normal_quantile_roundtrip () =
  List.iter
    (fun p ->
      check_close 1e-6
        (Printf.sprintf "cdf (quantile %g)" p)
        p
        (Special.normal_cdf (Special.normal_quantile p)))
    [ 0.01; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99 ]

(* The stratified draw's quantile path: bit-equal to [normal_quantile],
   raising with the same message, and allocation-free per call. *)
let test_normal_quantile_in_place () =
  let ps =
    [| 1e-15; 1e-12; 0.01; 0.1; 0.25; 0.4999; 0.5; 0.75; 0.99;
       1. -. epsilon_float |]
  in
  List.iter
    (fun sigma ->
      Array.iter
        (fun p ->
          let a = [| nan; p |] in
          Special.normal_quantile_in_place ~sigma a 1;
          Alcotest.(check int64)
            (Printf.sprintf "sigma %g, p %g" sigma p)
            (Int64.bits_of_float (Special.normal_quantile ~sigma p))
            (Int64.bits_of_float a.(1));
          Alcotest.(check bool) "other slots untouched" true
            (Float.is_nan a.(0)))
        ps)
    [ 1.; 0.05; 3.7 ];
  let raises_like ~sigma p =
    let expected =
      try ignore (Special.normal_quantile ~sigma p); None
      with Invalid_argument m -> Some m
    in
    let got =
      try Special.normal_quantile_in_place ~sigma [| p |] 0; None
      with Invalid_argument m -> Some m
    in
    Alcotest.(check bool)
      (Printf.sprintf "sigma %g, p %g raises" sigma p)
      true (expected <> None);
    Alcotest.(check (option string))
      (Printf.sprintf "sigma %g, p %g message" sigma p)
      expected got
  in
  List.iter (raises_like ~sigma:1.) [ 0.; 1.; -0.5; nan ];
  raises_like ~sigma:0. 0.5;
  raises_like ~sigma:(-1.) 0.5;
  (* Differencing a loop of [2n] calls against one of [n] leaves only
     what each call allocates. *)
  let a = Array.make 1 0. in
  let words calls =
    let before = Gc.minor_words () in
    for i = 1 to calls do
      a.(0) <- ps.(i mod Array.length ps);
      Special.normal_quantile_in_place ~sigma:0.05 a 0
    done;
    Gc.minor_words () -. before
  in
  ignore (words 1000);
  let per_call = (words 2000 -. words 1000) /. 1000. in
  if per_call > 0. then
    Alcotest.failf "%.2f words allocated per call (> 0)" per_call

let test_interval_probability () =
  (* P(|X| < sigma) = erf(1/sqrt 2) ~ 0.6827. *)
  check_close 1e-6 "one sigma" 0.6826894
    (Special.normal_interval_probability ~sigma:1. ~half_width:1.);
  check_close 1e-6 "two sigma" 0.9544997
    (Special.normal_interval_probability ~sigma:0.5 ~half_width:1.);
  check_float "zero width" 0.
    (Special.normal_interval_probability ~sigma:1. ~half_width:0.)

let test_log_gamma_known () =
  check_close 1e-9 "gamma 1" 0. (Special.log_gamma 1.);
  check_close 1e-9 "gamma 2" 0. (Special.log_gamma 2.);
  check_close 1e-8 "gamma 5 = 24" (log 24.) (Special.log_gamma 5.);
  check_close 1e-8 "gamma 0.5 = sqrt pi"
    (log (sqrt Float.pi))
    (Special.log_gamma 0.5)

let test_log_factorial_matches_gamma () =
  for n = 0 to 30 do
    check_close 1e-8
      (Printf.sprintf "log %d!" n)
      (Special.log_gamma (float_of_int (n + 1)))
      (Special.log_factorial n)
  done

let test_choose_known () =
  check_float "C(4,2)" 6. (Special.choose 4 2);
  check_float "C(8,4)" 70. (Special.choose 8 4);
  check_float "C(10,5)" 252. (Special.choose 10 5);
  check_float "C(5,0)" 1. (Special.choose 5 0);
  check_float "C(5,6)" 0. (Special.choose 5 6);
  check_float "C(52,5)" 2598960. (Special.choose 52 5)

let test_multinomial_known () =
  (* Hot-code space sizes from the paper's families. *)
  check_float "binary (4,2)" 6. (Special.multinomial [ 2; 2 ]);
  check_float "binary (6,3)" 20. (Special.multinomial [ 3; 3 ]);
  check_float "binary (8,4)" 70. (Special.multinomial [ 4; 4 ]);
  check_float "ternary (6,2)" 90. (Special.multinomial [ 2; 2; 2 ]);
  check_float "degenerate" 1. (Special.multinomial [ 5 ])

let prop_erf_monotone =
  QCheck.Test.make ~name:"erf is monotone increasing" ~count:200
    QCheck.(pair (float_bound_exclusive 5.) (float_bound_exclusive 5.))
    (fun (a, b) ->
      let lo = Float.min a b and hi = Float.max a b in
      QCheck.assume (hi -. lo > 1e-9);
      Special.erf lo <= Special.erf hi)

let prop_cdf_bounds =
  QCheck.Test.make ~name:"normal_cdf in [0,1]" ~count:200
    QCheck.(float_range (-50.) 50.)
    (fun x ->
      let p = Special.normal_cdf x in
      p >= 0. && p <= 1.)

let prop_interval_monotone_in_width =
  QCheck.Test.make ~name:"interval probability monotone in width" ~count:200
    QCheck.(pair (float_range 0.01 3.) (float_range 0.01 3.))
    (fun (w1, w2) ->
      let lo = Float.min w1 w2 and hi = Float.max w1 w2 in
      Special.normal_interval_probability ~sigma:1. ~half_width:lo
      <= Special.normal_interval_probability ~sigma:1. ~half_width:hi)

let suite =
  [
    Alcotest.test_case "erf known values" `Quick test_erf_known_values;
    Alcotest.test_case "erf odd symmetry" `Quick test_erf_odd;
    Alcotest.test_case "erfc complements erf" `Quick test_erfc_complement;
    Alcotest.test_case "erfc large argument" `Quick test_erfc_large_argument;
    Alcotest.test_case "erf_inv round trip" `Quick test_erf_inv_roundtrip;
    Alcotest.test_case "erf_inv domain check" `Quick test_erf_inv_domain;
    Alcotest.test_case "normal cdf known values" `Quick test_normal_cdf_known;
    Alcotest.test_case "normal pdf known values" `Quick test_normal_pdf_known;
    Alcotest.test_case "quantile round trip" `Quick
      test_normal_quantile_roundtrip;
    Alcotest.test_case "in-place quantile is bit-equal to normal_quantile"
      `Quick test_normal_quantile_in_place;
    Alcotest.test_case "interval probability" `Quick test_interval_probability;
    Alcotest.test_case "log_gamma known values" `Quick test_log_gamma_known;
    Alcotest.test_case "log_factorial vs gamma" `Quick
      test_log_factorial_matches_gamma;
    Alcotest.test_case "binomial coefficients" `Quick test_choose_known;
    Alcotest.test_case "multinomial coefficients" `Quick test_multinomial_known;
    QCheck_alcotest.to_alcotest prop_erf_monotone;
    QCheck_alcotest.to_alcotest prop_cdf_bounds;
    QCheck_alcotest.to_alcotest prop_interval_monotone_in_width;
  ]
