(* The compiled MC kernel layer (Kernel / Rng.add_gaussians / Workspace)
   and the satellite fast paths of the same PR: sort-based pass extraction,
   sorted-array code metrics, precomputed-nu variability.  The central
   claim everywhere is bit-for-bit equivalence with the slower reference
   implementation. *)

open Nanodec_numerics
open Nanodec_codes
open Nanodec_mspt
open Nanodec_crossbar
module Run_ctx = Nanodec_parallel.Run_ctx
module Fault = Nanodec_fault.Fault

let estimate : Montecarlo.estimate Alcotest.testable =
  Alcotest.testable Montecarlo.pp (fun a b -> a = b)

let analysis_of ?(n_wires = 20) ct m =
  Cave.analyze
    { Cave.default_config with Cave.code_type = ct; code_length = m; n_wires }

let families = [ (Codebook.Tree, 8); (Codebook.Balanced_gray, 10);
                 (Codebook.Hot, 4); (Codebook.Arranged_hot, 6) ]

(* --- kernel == reference draw, bit for bit --- *)

let test_kernel_equals_reference () =
  List.iter
    (fun (ct, m) ->
      let a = analysis_of ct m in
      List.iter
        (fun domains ->
          Run_ctx.with_ctx ~domains ~warn:false (fun ctx ->
              let kernel =
                Cave.mc_yield_window_par ~ctx (Rng.create ~seed:2009)
                  ~samples:300 a
              in
              let reference =
                Cave.mc_yield_window_reference ~ctx (Rng.create ~seed:2009)
                  ~samples:300 a
              in
              Alcotest.check estimate
                (Printf.sprintf "%s M=%d, domains=%d" (Codebook.name ct) m
                   domains)
                reference kernel))
        [ 1; 4 ])
    families

let test_kernel_equals_reference_under_faults () =
  let a = analysis_of Codebook.Balanced_gray 10 in
  let plan () =
    Fault.create
      (Fault.parse_exn
         "seed=7;pool.chunk:crash:p=0.3;mc.sample_batch:crash:p=0.2")
  in
  List.iter
    (fun domains ->
      let run ?fault estimator =
        Run_ctx.with_ctx ~domains ?fault ~warn:false (fun ctx ->
            estimator ctx (Rng.create ~seed:11) a)
      in
      let kernelized ctx rng a =
        Cave.mc_yield_window_par ~ctx rng ~samples:250 a
      in
      let reference ctx rng a =
        Cave.mc_yield_window_reference ~ctx rng ~samples:250 a
      in
      let clean = run kernelized in
      Alcotest.check estimate
        (Printf.sprintf "inert engine, domains=%d" domains)
        clean
        (run ~fault:(Fault.inert ()) kernelized);
      Alcotest.check estimate
        (Printf.sprintf "crash plan, domains=%d" domains)
        clean
        (run ~fault:(plan ()) kernelized);
      Alcotest.check estimate
        (Printf.sprintf "crash plan vs reference, domains=%d" domains)
        (run reference)
        (run ~fault:(plan ()) kernelized))
    [ 1; 4 ]

let test_sequential_kernel_path () =
  (* Without a context mc_yield_window_par runs the kernel on the plain
     estimator; drawing through the kernel by hand must reproduce it
     exactly. *)
  let a = analysis_of Codebook.Tree 8 in
  let k = Cave.kernel_of_analysis a in
  let direct = Cave.mc_yield_window_par (Rng.create ~seed:5) ~samples:150 a in
  let manual =
    Montecarlo.run
      (Montecarlo.spec (Montecarlo.fixed 150))
      (Rng.create ~seed:5)
      (Montecarlo.target (Kernel.draw k))
  in
  Alcotest.check estimate "sequential path" direct manual

let test_kernel_draw_accounting () =
  (* For a cave analysis every implant draw maps to one doping operation,
     so the compiled program size must equal sum(nu) plus (sigma_base <>
     0) one draw per cell of the N x M plane. *)
  List.iter
    (fun (ct, m) ->
      let a = analysis_of ct m in
      let k = Cave.kernel_of_analysis a in
      let cells = a.Cave.config.Cave.n_wires * a.Cave.config.Cave.code_length in
      Alcotest.(check int)
        (Printf.sprintf "%s M=%d draws" (Codebook.name ct) m)
        (Imatrix.sum a.Cave.nu
        + if a.Cave.config.Cave.sigma_base <> 0. then cells else 0)
        (Kernel.draws_per_sample k))
    families

let test_gaussian_stream_batches () =
  (* Rng.add_gaussians (the pipelined C loop, 64 accepted points per
     batch) must equal a loop of Rng.gaussian calls: the sums it
     writes, bit for bit, onto scattered and repeated indices, for runs
     of every length from 0 to 300 and of 1000 — odd and even, inside
     one batch and across up to eight.  The two generators run on
     without reset, so an odd run's cached spare carries into the next
     call, and one uniform drawn between runs checks that both are left
     at the same state. *)
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  let bits = Array.map Int64.bits_of_float in
  List.iter
    (fun k ->
      let sigma = 0.05 *. float_of_int (1 + (k mod 3)) in
      (* 0, 3, 1, 4, 2, 0, 3, ... over a plane of 5: every index is hit
         out of order, and runs longer than 5 repeat them. *)
      let targets = Array.init k (fun t -> t * 3 mod 5) in
      let expected = Array.init 5 (fun i -> 0.25 *. float_of_int i) in
      let noise = Array.copy expected in
      Array.iter
        (fun i -> expected.(i) <- expected.(i) +. Rng.gaussian ~sigma a)
        targets;
      Rng.add_gaussians b ~sigma targets noise;
      Alcotest.(check (array int64))
        (Printf.sprintf "gaussian run of %d" k)
        (bits expected) (bits noise);
      if k mod 7 = 0 then
        Alcotest.(check int64)
          (Printf.sprintf "uniform draw after run of %d" k)
          (Int64.bits_of_float (Rng.float a))
          (Int64.bits_of_float (Rng.float b)))
    (List.init 301 Fun.id @ [ 1000; 999 ]);
  Alcotest.(check int64) "final uniform"
    (Int64.bits_of_float (Rng.float a))
    (Int64.bits_of_float (Rng.float b))

(* --- estimates with no reference oracle, pinned bit for bit ---

   Importance and stratified draws have no executable reference to
   compare against, so these exact values (recorded from the all-OCaml
   polar loop the C kernel replaced) pin them; plain is pinned too.  A
   compiler that contracts the loop into FMAs moves the low bits and
   fails here.  TC-6 has 7 unusable wires; stratified sample counts
   align up to a multiple of 16. *)

let golden_estimates =
  [
    ( "TC-6", Codebook.Tree, 6,
      [
        (Montecarlo.Plain, 301, "0x1.f002b8ba6de27p-2", "0x1.1d52ff98c9d55p-8");
        (Montecarlo.Importance 1.0, 301, "0x1.f5d769f8c1c7cp-2",
         "0x1.80270c5a28cf3p-9");
        (Montecarlo.Importance 2.5, 301, "0x1.d2249de1518ecp-2",
         "0x1.c67edb97db276p-6");
        (Montecarlo.Stratified 16, 304, "0x1.efffffffffffep-2",
         "0x1.10c869b0334afp-8");
      ] );
    ( "HC-4", Codebook.Hot, 4,
      [
        (Montecarlo.Plain, 301, "0x1.a1159a47c8361p-2", "0x1.a585ce9e9a49bp-9");
        (Montecarlo.Importance 1.0, 301, "0x1.96f5e76bb739bp-2",
         "0x1.4745ac7c17245p-9");
        (Montecarlo.Importance 2.5, 301, "0x1.a4ee5b8b58868p-2",
         "0x1.96d51219450f5p-7");
        (Montecarlo.Stratified 16, 304, "0x1.a02b1da46103cp-2",
         "0x1.97d4c9fbf8962p-9");
      ] );
    ( "BGC-10", Codebook.Balanced_gray, 10,
      [
        (Montecarlo.Plain, 301, "0x1.c83512335ebe3p-1", "0x1.03f4b22ca0cffp-8");
        (Montecarlo.Importance 1.0, 301, "0x1.c8eb149b06cf2p-1",
         "0x1.2d3df80541f2p-9");
        (Montecarlo.Importance 2.5, 301, "0x1.b06c9638e1271p-1",
         "0x1.2d14973725d72p-4");
        (Montecarlo.Stratified 16, 304, "0x1.c7bf53896e7b4p-1",
         "0x1.0796bb36e7c6ep-8");
      ] );
  ]

let test_golden_estimate_bits () =
  List.iter
    (fun (design, ct, m, rows) ->
      let a =
        Cave.analyze
          { Cave.default_config with Cave.code_type = ct; code_length = m }
      in
      List.iter
        (fun (strategy, samples, mean, std_error) ->
          let spec = Montecarlo.spec ~strategy (Montecarlo.fixed 301) in
          let e =
            Cave.mc_yield_window_par ~spec (Rng.create ~seed:2009)
              ~samples:301 a
          in
          let name = design ^ " " ^ Montecarlo.strategy_name strategy in
          Alcotest.(check int) (name ^ " samples") samples e.Montecarlo.samples;
          Alcotest.(check string) (name ^ " mean") mean
            (Printf.sprintf "%h" e.Montecarlo.mean);
          Alcotest.(check string) (name ^ " std_error") std_error
            (Printf.sprintf "%h" e.Montecarlo.std_error))
        rows)
    golden_estimates

(* --- allocation: the draw loops allocate nothing per Gaussian --- *)

let test_alloc_per_sample () =
  (* Without a context the estimator runs on this domain alone, so the
     minor-heap word count is deterministic.  A precompiled kernel keeps
     the one-off compile out of the count, and differencing a run of
     [2n] samples against one of [n] (both cut into the same 64 chunks)
     keeps out every per-run and per-chunk cost: what is left is what
     each sample allocates.  Plain and importance keep only the boxed
     float their target returns (2 words): the sample's stream is
     derived in place and the draws allocate nothing — stratified
     included, its quantile computed in the cell's slot by
     [Special.normal_quantile_in_place]. *)
  let samples = 600 in
  List.iter
    (fun (ct, m) ->
      let a = analysis_of ct m in
      let kernel = Cave.kernel_of_analysis a in
      List.iter
        (fun (strategy, bound) ->
          let run samples =
            let spec = Montecarlo.spec ~strategy (Montecarlo.fixed samples) in
            let before = Gc.minor_words () in
            let e =
              Cave.mc_yield_window_par ~spec ~kernel (Rng.create ~seed:3)
                ~samples a
            in
            (Gc.minor_words () -. before, e.Montecarlo.samples)
          in
          ignore (run samples);
          let words_n, n = run samples in
          let words_2n, n2 = run (2 * samples) in
          let per_sample = (words_2n -. words_n) /. float_of_int (n2 - n) in
          if per_sample > bound then
            Alcotest.failf "%s M=%d %s: %.2f words per sample (> %g)"
              (Codebook.name ct) m
              (Montecarlo.strategy_name strategy)
              per_sample bound)
        [
          (Montecarlo.Plain, 4.);
          (Montecarlo.Importance 1.0, 4.);
          (Montecarlo.Stratified 16, 4.);
        ])
    [ (Codebook.Tree, 6); (Codebook.Hot, 4); (Codebook.Balanced_gray, 10) ]

let test_heap_per_sample () =
  (* The engine's own footprint: 200,000 samples of a target that
     allocates nothing cost the result slot (8 B) and a snapshot per
     chunk, not a materialised generator per sample (~97 B each when
     the streams were split up front). *)
  let samples = 200_000 in
  let run () =
    ignore
      (Montecarlo.run (Montecarlo.spec (Montecarlo.fixed samples))
         (Rng.create ~seed:4)
         (Montecarlo.target (fun _ -> 0.5)))
  in
  run ();
  let before = Gc.allocated_bytes () in
  run ();
  let per_sample = (Gc.allocated_bytes () -. before) /. float_of_int samples in
  if per_sample > 16. then
    Alcotest.failf "%.1f bytes allocated per sample (> 16)" per_sample

(* --- satellite: sort-based pass extraction pins the historical order --- *)

let test_pass_order_regression () =
  (* Hand-built step matrix; the pass list (order included!) is part of
     the MC draw order, so it is pinned exactly: rows ascending, and
     within a row the distinct doses in reverse first-occurrence order —
     what the historical kept-list scan produced. *)
  let s =
    Fmatrix.init ~rows:3 ~cols:4 (fun i j ->
        [|
          [| 2.; 3.; 2.; 0. |];
          [| 0.; 7.; 7.; 2. |];
          [| 5.; 5.; 5.; 5. |];
        |].(i).(j))
  in
  let expected =
    [
      { Process.after_wire = 0; dose = 3.; mask = [| false; true; false; false |] };
      { Process.after_wire = 0; dose = 2.; mask = [| true; false; true; false |] };
      { Process.after_wire = 1; dose = 2.; mask = [| false; false; false; true |] };
      { Process.after_wire = 1; dose = 7.; mask = [| false; true; true; false |] };
      { Process.after_wire = 2; dose = 5.; mask = [| true; true; true; true |] };
    ]
  in
  Alcotest.(check bool)
    "pinned pass list" true
    (Process.passes_of_step_matrix s = expected);
  Alcotest.(check int) "distinct doses" 4
    (Process.distinct_doses (Process.passes_of_step_matrix s))

let test_pass_eps_merge () =
  (* Values within eps of an earlier dose merge into it: the pass carries
     the first-occurrence value and a mask covering both columns. *)
  let s =
    Fmatrix.init ~rows:1 ~cols:3 (fun _ j -> [| 1.0; 1.0 +. 5e-10; 2.0 |].(j))
  in
  match Process.passes_of_step_matrix s with
  | [ p2; p1 ] ->
    (* reverse first-occurrence order within the row: 2.0 before 1.0 *)
    Alcotest.(check (float 0.)) "distinct dose" 2.0 p2.Process.dose;
    Alcotest.(check (float 0.)) "merged dose" 1.0 p1.Process.dose;
    Alcotest.(check bool) "merged mask" true
      (p1.Process.mask = [| true; true; false |])
  | passes -> Alcotest.failf "expected 2 passes, got %d" (List.length passes)

(* --- satellite: metrics from one sorted array --- *)

let test_metrics_duplicates () =
  let w digits = Word.make ~radix:2 digits in
  let m =
    Metrics.of_words [ w [| 0; 0 |]; w [| 0; 1 |]; w [| 0; 0 |]; w [| 1; 1 |] ]
  in
  Alcotest.(check int) "n_words" 4 m.Metrics.n_words;
  Alcotest.(check int) "distinct" 3 m.Metrics.distinct_words;
  Alcotest.(check int) "min pairwise" 1 m.Metrics.min_pairwise_distance;
  let far = Metrics.of_words [ w [| 0; 0 |]; w [| 1; 1 |] ] in
  Alcotest.(check int) "distance-2 pair" 2 far.Metrics.min_pairwise_distance;
  let single = Metrics.of_words [ w [| 1; 0 |]; w [| 1; 0 |] ] in
  Alcotest.(check int) "all equal: distinct" 1 single.Metrics.distinct_words;
  Alcotest.(check int) "all equal: min pairwise" 0
    single.Metrics.min_pairwise_distance

let test_metrics_matches_bruteforce () =
  (* The sorted-array computation equals the quadratic definition on a
     real codebook with duplicates appended. *)
  let words =
    Codebook.sequence ~radix:2 ~length:6 ~count:12 Codebook.Balanced_gray
  in
  let words = words @ List.filteri (fun i _ -> i mod 3 = 0) words in
  let m = Metrics.of_words words in
  let arr = Array.of_list words in
  let n = Array.length arr in
  let distinct = List.length (List.sort_uniq Word.compare words) in
  let best = ref (Word.length arr.(0)) in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if not (Word.equal arr.(i) arr.(j)) then
        best := Stdlib.min !best (Word.hamming_distance arr.(i) arr.(j))
    done
  done;
  Alcotest.(check int) "distinct" distinct m.Metrics.distinct_words;
  Alcotest.(check int) "min pairwise" !best m.Metrics.min_pairwise_distance

(* --- satellite: precomputed-nu fast paths --- *)

let test_variability_nu_passthrough () =
  let p =
    Pattern.of_codebook ~radix:2 ~length:8 ~n_wires:12 Codebook.Balanced_gray
  in
  let nu = Variability.nu_matrix p in
  Alcotest.(check (float 0.)) "average_nu" (Variability.average_nu p)
    (Variability.average_nu ~nu p);
  Alcotest.(check (float 0.)) "region_std"
    (Variability.region_std ~sigma_t:0.05 p ~wire:3 ~region:5)
    (Variability.region_std ~nu ~sigma_t:0.05 p ~wire:3 ~region:5);
  Alcotest.(check (float 0.)) "sigma_norm1"
    (Variability.sigma_norm1 ~sigma_t:0.05 p)
    (Variability.sigma_norm1 ~nu ~sigma_t:0.05 p);
  Alcotest.(check bool) "normalized_std_matrix" true
    (Fmatrix.equal
       (Variability.normalized_std_matrix p)
       (Variability.normalized_std_matrix ~nu p))

let suite =
  [
    Alcotest.test_case "kernel equals reference (domains 1/4)" `Quick
      test_kernel_equals_reference;
    Alcotest.test_case "kernel equals reference under fault plans" `Quick
      test_kernel_equals_reference_under_faults;
    Alcotest.test_case "sequential estimator runs the kernel" `Quick
      test_sequential_kernel_path;
    Alcotest.test_case "compiled program size equals sum(nu)" `Quick
      test_kernel_draw_accounting;
    Alcotest.test_case "add_gaussians = gaussian loop across batches" `Quick
      test_gaussian_stream_batches;
    Alcotest.test_case "estimate bits pinned (plain/importance/stratified)"
      `Quick test_golden_estimate_bits;
    Alcotest.test_case "draws allocate <= 4 words per sample" `Quick
      test_alloc_per_sample;
    Alcotest.test_case "engine allocates <= 16 B per sample" `Quick
      test_heap_per_sample;
    Alcotest.test_case "pass order regression (sort-based dedup)" `Quick
      test_pass_order_regression;
    Alcotest.test_case "pass eps merge keeps first occurrence" `Quick
      test_pass_eps_merge;
    Alcotest.test_case "metrics with duplicate words" `Quick
      test_metrics_duplicates;
    Alcotest.test_case "metrics equal brute force" `Quick
      test_metrics_matches_bruteforce;
    Alcotest.test_case "variability accepts precomputed nu" `Quick
      test_variability_nu_passthrough;
  ]
