let sqrt2 = sqrt 2.
let sqrt_2pi = sqrt (2. *. Float.pi)

(* Abramowitz & Stegun 7.1.26: |error| <= 1.5e-7 on [0, inf).

   [erf_as], [erf] and [erf_inv] are inlined into their callers and hold
   no local closures, so the quantile below keeps every intermediate
   unboxed: [normal_quantile_in_place] allocates nothing. *)
let[@inline] erf_as x =
  let a1 = 0.254829592
  and a2 = -0.284496736
  and a3 = 1.421413741
  and a4 = -1.453152027
  and a5 = 1.061405429
  and p = 0.3275911 in
  let t = 1. /. (1. +. (p *. x)) in
  let poly = t *. (a1 +. (t *. (a2 +. (t *. (a3 +. (t *. (a4 +. (t *. a5)))))))) in
  1. -. (poly *. exp (-.x *. x))

let[@inline] erf x =
  if Float.is_nan x then x
  else if x >= 0. then erf_as x
  else -.erf_as (-.x)

(* For large |x| compute the complement directly: 1 - erf x would lose all
   precision once erf x rounds to 1. *)
let erfc_pos x =
  if x < 0.5 then 1. -. erf_as x
  else
    let a1 = 0.254829592
    and a2 = -0.284496736
    and a3 = 1.421413741
    and a4 = -1.453152027
    and a5 = 1.061405429
    and p = 0.3275911 in
    let t = 1. /. (1. +. (p *. x)) in
    let poly =
      t *. (a1 +. (t *. (a2 +. (t *. (a3 +. (t *. (a4 +. (t *. a5))))))))
    in
    poly *. exp (-.x *. x)

let erfc x = if x >= 0. then erfc_pos x else 2. -. erfc_pos (-.x)

(* Winitzki's approximation followed by Newton refinement.  The seed is
   accurate to ~2e-3; two Newton steps on erf bring it to ~1e-12 over the
   bulk of the domain. *)
let[@inline] erf_inv y =
  if not (y > -1. && y < 1.) then
    invalid_arg "Special.erf_inv: argument outside (-1, 1)";
  if y = 0. then 0.
  else
    let a = 0.147 in
    let ln1my2 = log (1. -. (y *. y)) in
    let t1 = (2. /. (Float.pi *. a)) +. (ln1my2 /. 2.) in
    let x =
      Float.copy_sign (sqrt (sqrt ((t1 *. t1) -. (ln1my2 /. a)) -. t1)) y
    in
    (* Two Newton steps, spelled out: a local [newton] closure would box
       every iterate. *)
    let x =
      let fx = erf x -. y in
      let dfx = 2. /. sqrt Float.pi *. exp (-.x *. x) in
      x -. (fx /. dfx)
    in
    let fx = erf x -. y in
    let dfx = 2. /. sqrt Float.pi *. exp (-.x *. x) in
    x -. (fx /. dfx)

let check_sigma ~fn sigma =
  if not (sigma > 0.) then
    invalid_arg (Printf.sprintf "Special.%s: sigma must be positive" fn)

let normal_pdf ?(mu = 0.) ?(sigma = 1.) x =
  check_sigma ~fn:"normal_pdf" sigma;
  let z = (x -. mu) /. sigma in
  exp (-0.5 *. z *. z) /. (sigma *. sqrt_2pi)

let normal_cdf ?(mu = 0.) ?(sigma = 1.) x =
  check_sigma ~fn:"normal_cdf" sigma;
  let z = (x -. mu) /. (sigma *. sqrt2) in
  0.5 *. erfc (-.z)

let[@inline] quantile ~mu ~sigma p =
  check_sigma ~fn:"normal_quantile" sigma;
  if not (p > 0. && p < 1.) then
    invalid_arg "Special.normal_quantile: probability outside (0, 1)";
  mu +. (sigma *. sqrt2 *. erf_inv ((2. *. p) -. 1.))

let normal_quantile ?(mu = 0.) ?(sigma = 1.) p = quantile ~mu ~sigma p

let normal_quantile_in_place ~sigma a i =
  Array.set a i (quantile ~mu:0. ~sigma (Array.get a i))

let normal_interval_probability ~sigma ~half_width =
  check_sigma ~fn:"normal_interval_probability" sigma;
  if half_width <= 0. then 0. else erf (half_width /. (sigma *. sqrt2))

(* Lanczos approximation, g = 7, 9 coefficients. *)
let lanczos_coefficients =
  [| 0.99999999999980993; 676.5203681218851; -1259.1392167224028;
     771.32342877765313; -176.61502916214059; 12.507343278686905;
     -0.13857109526572012; 9.9843695780195716e-6; 1.5056327351493116e-7 |]

let rec log_gamma x =
  if not (x > 0.) then invalid_arg "Special.log_gamma: argument must be > 0";
  if x < 0.5 then
    (* Reflection: ln Γ(x) = ln(π / sin(πx)) − ln Γ(1 − x). *)
    log (Float.pi /. sin (Float.pi *. x)) -. log_gamma (1. -. x)
  else
    let x = x -. 1. in
    let acc = ref lanczos_coefficients.(0) in
    for i = 1 to Array.length lanczos_coefficients - 1 do
      acc := !acc +. (lanczos_coefficients.(i) /. (x +. float_of_int i))
    done;
    let t = x +. 7.5 in
    (0.5 *. log (2. *. Float.pi))
    +. (((x +. 0.5) *. log t) -. t)
    +. log !acc

let factorial_table =
  let table = Array.make 21 1. in
  for i = 1 to 20 do
    table.(i) <- table.(i - 1) *. float_of_int i
  done;
  table

let log_factorial n =
  if n < 0 then invalid_arg "Special.log_factorial: negative argument";
  if n <= 20 then log factorial_table.(n)
  else log_gamma (float_of_int (n + 1))

let choose n k =
  if k < 0 || k > n then 0.
  else if n <= 20 then
    factorial_table.(n) /. (factorial_table.(k) *. factorial_table.(n - k))
  else
    Float.round (exp (log_factorial n -. log_factorial k -. log_factorial (n - k)))

let multinomial counts =
  List.iter
    (fun k ->
      if k < 0 then invalid_arg "Special.multinomial: negative count")
    counts;
  let total = List.fold_left ( + ) 0 counts in
  let log_result =
    List.fold_left (fun acc k -> acc -. log_factorial k)
      (log_factorial total) counts
  in
  Float.round (exp log_result)
