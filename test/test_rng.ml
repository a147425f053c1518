(* Tests for the PCG32/SplitMix64 generator. *)

open Nanodec_numerics

let test_determinism () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for i = 0 to 99 do
    Alcotest.(check int)
      (Printf.sprintf "draw %d" i)
      (Rng.uint32 a) (Rng.uint32 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.uint32 a = Rng.uint32 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_copy_independent () =
  let a = Rng.create ~seed:7 in
  ignore (Rng.uint32 a);
  let b = Rng.copy a in
  let from_a = Rng.uint32 a in
  let from_b = Rng.uint32 b in
  Alcotest.(check int) "copy continues identically" from_a from_b;
  (* Drawing twice from b must not disturb a: a's next draw equals what b
     produced first after the divergence point. *)
  let b_second = Rng.uint32 b in
  ignore (Rng.uint32 b);
  let a_second = Rng.uint32 a in
  Alcotest.(check int) "copies evolve independently" b_second a_second

let test_split_independence () =
  let parent = Rng.create ~seed:3 in
  let child = Rng.split parent in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.uint32 parent = Rng.uint32 child then incr same
  done;
  Alcotest.(check bool) "split stream differs" true (!same < 4)

(* Golden values pin the generator's output across runs, builds and
   refactors: any change to the seeding or output function (which would
   silently invalidate every recorded proptest reproduction seed) fails
   here.  Values recorded from the reference implementation. *)
let test_golden_stream () =
  let expected =
    [|
      0x3225c1b3; 0x9452cd8f; 0x46c42e2c; 0xe4c06705;
      0x6f26c3bc; 0xef94f07a; 0x05a7e525; 0xc52da243;
    |]
  in
  let rng = Rng.create ~seed:42 in
  Array.iteri
    (fun i want ->
      Alcotest.(check int)
        (Printf.sprintf "seed 42 draw %d" i)
        want (Rng.uint32 rng))
    expected

let test_golden_split_stream () =
  let expected = [| 0xfaebf702; 0x78e55972; 0x1d4c4737; 0x6f04cf5a |] in
  let child = Rng.split (Rng.create ~seed:2009) in
  Array.iteri
    (fun i want ->
      Alcotest.(check int)
        (Printf.sprintf "split draw %d" i)
        want (Rng.uint32 child))
    expected

let test_golden_mix_seed () =
  Alcotest.(check int) "mix_seed 2009 1" 3586226593598957013
    (Rng.mix_seed 2009 1);
  Alcotest.(check int) "mix_seed 2009 2" 3749792766342769158
    (Rng.mix_seed 2009 2);
  Alcotest.(check int) "mix_seed 0 0" 3348600503766967796 (Rng.mix_seed 0 0);
  for i = 0 to 100 do
    Alcotest.(check bool) "non-negative" true (Rng.mix_seed 2009 i >= 0)
  done

let test_of_seed_and_of_int64_agree () =
  let a = Rng.of_seed 777 and b = Rng.create ~seed:777 in
  let c = Rng.of_int64 777L in
  for _ = 1 to 32 do
    let x = Rng.uint32 a in
    Alcotest.(check int) "of_seed = create" x (Rng.uint32 b);
    Alcotest.(check int) "of_int64 = create on int seeds" x (Rng.uint32 c)
  done

let test_split_n_deterministic_and_distinct () =
  let streams seed =
    Array.map
      (fun r -> List.init 16 (fun _ -> Rng.uint32 r))
      (Rng.split_n (Rng.create ~seed) 8)
  in
  (* Same seed => identical family of split streams across two runs. *)
  Alcotest.(check bool) "two runs agree" true (streams 99 = streams 99);
  let s = streams 99 in
  Array.iteri
    (fun i si ->
      Array.iteri
        (fun j sj ->
          if i < j && si = sj then
            Alcotest.failf "split streams %d and %d identical" i j)
        s)
    s

let test_split_into_equals_split () =
  (* 10,000 splits: [split_into] over one reused scratch (left holding a
     cached polar spare before each re-aim) derives the same child as a
     fresh [split], and both parents advance alike; [skip_splits] then
     lands where [split_n] does. *)
  let a = Rng.create ~seed:2009 and b = Rng.create ~seed:2009 in
  let scratch = Rng.create ~seed:1 in
  for i = 1 to 10_000 do
    ignore (Rng.gaussian scratch);
    let child = Rng.split a in
    Rng.split_into b ~into:scratch;
    let draws g = (Rng.uint32 g, Int64.bits_of_float (Rng.gaussian g)) in
    if draws child <> draws scratch || Rng.gaussian child <> Rng.gaussian scratch
    then Alcotest.failf "split %d: split_into differs from split" i
  done;
  Alcotest.(check int) "parents agree" (Rng.uint32 a) (Rng.uint32 b);
  ignore (Rng.split_n a 37);
  Rng.skip_splits b 37;
  Alcotest.(check int) "skip_splits lands where split_n does" (Rng.uint32 a)
    (Rng.uint32 b)

let test_uint32_range () =
  let rng = Rng.create ~seed:11 in
  for _ = 1 to 1000 do
    let x = Rng.uint32 rng in
    Alcotest.(check bool) "in [0, 2^32)" true (x >= 0 && x < 1 lsl 32)
  done

let test_int_bounds () =
  let rng = Rng.create ~seed:13 in
  List.iter
    (fun bound ->
      for _ = 1 to 500 do
        let x = Rng.int rng bound in
        if x < 0 || x >= bound then
          Alcotest.failf "Rng.int %d produced %d" bound x
      done)
    [ 1; 2; 3; 7; 10; 100; 1 lsl 20 ];
  Alcotest.check_raises "zero bound rejected"
    (Invalid_argument "Rng.int: bound must be in [1, 2^32]") (fun () ->
      ignore (Rng.int rng 0))

let test_int_covers_all_values () =
  let rng = Rng.create ~seed:17 in
  let seen = Array.make 6 false in
  for _ = 1 to 600 do
    seen.(Rng.int rng 6) <- true
  done;
  Alcotest.(check bool) "all residues reached" true (Array.for_all Fun.id seen)

let test_float_range () =
  let rng = Rng.create ~seed:19 in
  for _ = 1 to 1000 do
    let x = Rng.float rng in
    Alcotest.(check bool) "in [0,1)" true (x >= 0. && x < 1.)
  done;
  for _ = 1 to 100 do
    let x = Rng.float_range rng ~min:(-2.) ~max:3. in
    Alcotest.(check bool) "in [-2,3)" true (x >= -2. && x < 3.)
  done

let test_uniform_mean () =
  let rng = Rng.create ~seed:23 in
  let n = 20_000 in
  let total = ref 0. in
  for _ = 1 to n do
    total := !total +. Rng.float rng
  done;
  let mean = !total /. float_of_int n in
  (* Standard error ~ 0.29/sqrt(20000) ~ 0.002; allow 5 sigma. *)
  Alcotest.(check (float 0.011)) "uniform mean near 0.5" 0.5 mean

let test_gaussian_moments () =
  let rng = Rng.create ~seed:29 in
  let n = 20_000 in
  let draws = Array.init n (fun _ -> Rng.gaussian ~mu:2. ~sigma:3. rng) in
  let s = Descriptive.summarize draws in
  Alcotest.(check (float 0.12)) "gaussian mean" 2. s.Descriptive.mean;
  Alcotest.(check (float 0.15)) "gaussian std" 3. s.Descriptive.std

let test_shuffle_is_permutation () =
  let rng = Rng.create ~seed:31 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_shuffle_list_preserves_elements () =
  let rng = Rng.create ~seed:37 in
  let xs = [ 1; 2; 3; 4; 5; 6; 7 ] in
  let shuffled = Rng.shuffle_list rng xs in
  Alcotest.(check (list int)) "same multiset" xs (List.sort Int.compare shuffled)

let test_pick () =
  let rng = Rng.create ~seed:41 in
  let a = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    let x = Rng.pick rng a in
    Alcotest.(check bool) "picked element" true (Array.mem x a)
  done;
  Alcotest.check_raises "empty pick" (Invalid_argument "Rng.pick: empty array")
    (fun () -> ignore (Rng.pick rng [||]))

let prop_int_unbiased_small =
  (* Chi-square-ish check on a small modulus: each bucket within 3x of
     expectation would be far too lax; use +/- 25 %. *)
  QCheck.Test.make ~name:"Rng.int roughly uniform" ~count:5
    QCheck.(int_range 2 9)
    (fun bound ->
      let rng = Rng.create ~seed:(bound * 1009) in
      let counts = Array.make bound 0 in
      let n = 4000 * bound in
      for _ = 1 to n do
        let x = Rng.int rng bound in
        counts.(x) <- counts.(x) + 1
      done;
      let expected = float_of_int n /. float_of_int bound in
      Array.for_all
        (fun c ->
          let ratio = float_of_int c /. expected in
          ratio > 0.75 && ratio < 1.25)
        counts)

let suite =
  [
    Alcotest.test_case "same seed, same stream" `Quick test_determinism;
    Alcotest.test_case "different seeds differ" `Quick test_seed_sensitivity;
    Alcotest.test_case "copy is independent" `Quick test_copy_independent;
    Alcotest.test_case "split is independent" `Quick test_split_independence;
    Alcotest.test_case "golden stream (cross-run determinism)" `Quick
      test_golden_stream;
    Alcotest.test_case "golden split stream" `Quick test_golden_split_stream;
    Alcotest.test_case "golden mix_seed" `Quick test_golden_mix_seed;
    Alcotest.test_case "of_seed/of_int64 agree with create" `Quick
      test_of_seed_and_of_int64_agree;
    Alcotest.test_case "split_n deterministic and distinct" `Quick
      test_split_n_deterministic_and_distinct;
    Alcotest.test_case "split_into = split (10k splits)" `Quick
      test_split_into_equals_split;
    Alcotest.test_case "uint32 range" `Quick test_uint32_range;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int covers residues" `Quick test_int_covers_all_values;
    Alcotest.test_case "float ranges" `Quick test_float_range;
    Alcotest.test_case "uniform mean" `Quick test_uniform_mean;
    Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
    Alcotest.test_case "shuffle permutes" `Quick test_shuffle_is_permutation;
    Alcotest.test_case "shuffle_list preserves" `Quick
      test_shuffle_list_preserves_elements;
    Alcotest.test_case "pick" `Quick test_pick;
    QCheck_alcotest.to_alcotest prop_int_unbiased_small;
  ]
