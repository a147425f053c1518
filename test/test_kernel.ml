(* The compiled MC kernel layer (Kernel / Rng.Fast / Workspace) and the
   satellite fast paths of the same PR: sort-based pass extraction,
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
    Montecarlo.estimate (Rng.create ~seed:5) ~samples:150 (Kernel.draw k)
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

let test_fast_mirror_stream () =
  (* Rng.Fast must replay the generator's exact Gaussian stream through
     load/draw/store cycles of every length, including the polar spare
     cached across a store/load boundary. *)
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  let fast = Rng.Fast.create () in
  for k = 0 to 16 do
    let xs = Array.init k (fun _ -> Rng.gaussian ~sigma:0.05 a) in
    Rng.Fast.load fast b;
    let ys = Array.init k (fun _ -> 0.05 *. Rng.Fast.gaussian_std fast) in
    Rng.Fast.store fast b;
    Alcotest.(check bool)
      (Printf.sprintf "gaussian run of %d" k)
      true (xs = ys);
    Alcotest.(check bool)
      (Printf.sprintf "uniform draw after run of %d" k)
      true
      (Rng.float a = Rng.float b)
  done

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
    Alcotest.test_case "Rng.Fast mirrors the gaussian stream" `Quick
      test_fast_mirror_stream;
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
