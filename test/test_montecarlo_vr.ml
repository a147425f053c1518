(* The redesigned Monte-Carlo entry point: [Montecarlo.spec] (strategy
   x stopping rule) behind [Montecarlo.run].

   Four layers:
   - determinism: every strategy and the adaptive stopping rule are
     bit-for-bit invariant in domain count, chunking policy, batch size
     and injected (recovered) faults — the same contract the plain
     estimators have always carried;
   - analytic fixtures: evaluators with closed-form answers (an exact
     antithetic pair, the even-predicate kernel identity, importance
     sampling's variance collapse on a high-yield design);
   - spec validation: every malformed spec is rejected with the
     documented [Invalid_argument] message, and strategies a target
     cannot evaluate raise the error-taxonomy [Invalid_input];
   - shared validators: the CLI and the daemon reject malformed
     [mc-method] / [rel-error] knobs through the same
     [Nanodec_error] parsers, so their messages agree verbatim. *)

open Nanodec_numerics
open Nanodec_codes
open Nanodec_crossbar
open Nanodec_serve
module Run_ctx = Nanodec_parallel.Run_ctx
module Fault = Nanodec_fault.Fault
module E = Nanodec_error

let estimate : Montecarlo.estimate Alcotest.testable =
  Alcotest.testable Montecarlo.pp (fun a b -> a = b)

let analysis_of ?(n_wires = 20) ct m =
  Cave.analyze
    { Cave.default_config with Cave.code_type = ct; code_length = m; n_wires }

let strategies =
  [
    Montecarlo.Plain;
    Montecarlo.Antithetic;
    Montecarlo.Stratified 8;
    Montecarlo.Importance 1.0;
  ]

let fault_plan () =
  Fault.create
    (Fault.parse_exn
       "seed=17;pool.chunk:crash:p=0.3;mc.sample_batch:crash:p=0.2")

(* --- determinism: strategies across domains, chunking and faults --- *)

let test_strategy_determinism () =
  let a = analysis_of Codebook.Balanced_gray 10 in
  let kernel = Cave.kernel_of_analysis a in
  let target = Kernel.target kernel in
  List.iter
    (fun strategy ->
      let spec = Montecarlo.spec ~strategy (Montecarlo.fixed 384) in
      let name = Montecarlo.strategy_name strategy in
      let baseline = Montecarlo.run spec (Rng.create ~seed:2009) target in
      List.iter
        (fun domains ->
          List.iter
            (fun fault ->
              Run_ctx.with_ctx ~domains ?fault
                ~chunking:(Run_ctx.Fixed 7) ~warn:false (fun ctx ->
                  Alcotest.check estimate
                    (Printf.sprintf "%s, domains=%d, faults=%b" name domains
                       (fault <> None))
                    baseline
                    (Montecarlo.run ~ctx spec (Rng.create ~seed:2009) target)))
            [ None; Some (fault_plan ()) ])
        [ 1; 4 ])
    strategies

let test_adaptive_schedule_invariance () =
  let a = analysis_of Codebook.Tree 8 in
  let kernel = Cave.kernel_of_analysis a in
  let target = Kernel.target kernel in
  let spec =
    Montecarlo.spec
      (Montecarlo.until_rel_error ~min_samples:32 ~max_samples:2048 0.02)
  in
  let baseline = Montecarlo.run spec (Rng.create ~seed:5) target in
  List.iter
    (fun (domains, chunking) ->
      Run_ctx.with_ctx ~domains ~chunking ~warn:false (fun ctx ->
          Alcotest.check estimate
            (Printf.sprintf "domains=%d %s" domains
               (match chunking with
               | Run_ctx.Auto -> "auto"
               | Run_ctx.Fixed c -> Printf.sprintf "chunks=%d" c))
            baseline
            (Montecarlo.run ~ctx spec (Rng.create ~seed:5) target)))
    [
      (1, Run_ctx.Fixed 3);
      (1, Run_ctx.Auto);
      (4, Run_ctx.Fixed 3);
      (4, Run_ctx.Fixed 16);
      (4, Run_ctx.Auto);
    ];
  Run_ctx.with_ctx ~domains:4 ~fault:(fault_plan ()) ~warn:false (fun ctx ->
      Alcotest.check estimate "adaptive under injected faults" baseline
        (Montecarlo.run ~ctx spec (Rng.create ~seed:5) target))

(* --- analytic fixtures --- *)

(* An antithetic evaluator whose pair average is the constant 1/2:
   the estimate must be exactly (0.5, se 0) at any sample count. *)
let test_antithetic_exact_pair () =
  let target =
    Montecarlo.target
      ~antithetic:(fun g ->
        let u = Rng.float g in
        (u +. (1. -. u)) /. 2.)
      Rng.float
  in
  let e =
    Montecarlo.run
      (Montecarlo.spec ~strategy:Montecarlo.Antithetic (Montecarlo.fixed 100))
      (Rng.create ~seed:1) target
  in
  Alcotest.(check (float 0.)) "mean exactly 1/2" 0.5 e.Montecarlo.mean;
  Alcotest.(check (float 0.)) "zero variance" 0. e.Montecarlo.std_error;
  Alcotest.(check int) "all samples spent" 100 e.Montecarlo.samples

(* The window predicate is even in the noise vector, so the kernel's
   antithetic pair average equals the plain draw on the same streams:
   antithetic is a draw-cost optimization, bit-equal to plain. *)
let test_kernel_antithetic_equals_plain () =
  let a = analysis_of Codebook.Hot 4 in
  let kernel = Cave.kernel_of_analysis a in
  let target = Kernel.target kernel in
  let run strategy =
    Montecarlo.run
      (Montecarlo.spec ~strategy (Montecarlo.fixed 256))
      (Rng.create ~seed:42) target
  in
  Alcotest.check estimate "antithetic == plain on even predicate"
    (run Montecarlo.Plain)
    (run Montecarlo.Antithetic)

(* On a high-yield design the plain estimator mostly sees all-pass
   samples; importance sampling aims every sample at the failure
   boundary and reweights, so its interval must still bracket the
   analytic yield while being strictly tighter. *)
let test_importance_tightens_high_yield () =
  let a =
    Cave.analyze
      {
        Cave.default_config with
        Cave.code_type = Codebook.Balanced_gray;
        code_length = 10;
        n_wires = 20;
        sigma_t = 0.02;
      }
  in
  let kernel = Cave.kernel_of_analysis a in
  let target = Kernel.target kernel in
  let run strategy =
    Montecarlo.run
      (Montecarlo.spec ~strategy (Montecarlo.fixed 2000))
      (Rng.create ~seed:2009) target
  in
  let plain = run Montecarlo.Plain in
  let imp = run (Montecarlo.Importance 1.0) in
  Alcotest.(check bool)
    (Printf.sprintf "importance brackets analytic yield (%g vs %g +/- %g)"
       a.Cave.yield imp.Montecarlo.mean imp.Montecarlo.std_error)
    true
    (Float.abs (imp.Montecarlo.mean -. a.Cave.yield)
    <= (6. *. imp.Montecarlo.std_error) +. 1e-9);
  Alcotest.(check bool)
    (Printf.sprintf "importance se %g < plain se %g" imp.Montecarlo.std_error
       plain.Montecarlo.std_error)
    true
    (imp.Montecarlo.std_error < plain.Montecarlo.std_error)

(* Stratifying the dominant cell keeps the estimator unbiased: the
   stratified mean agrees with the analytic yield, and the stratified
   SE never exceeds the plain SE by more than noise. *)
let test_stratified_brackets_exact () =
  let a = analysis_of Codebook.Balanced_gray 10 in
  let kernel = Cave.kernel_of_analysis a in
  let target = Kernel.target kernel in
  let e =
    Montecarlo.run
      (Montecarlo.spec ~strategy:(Montecarlo.Stratified 16)
         (Montecarlo.fixed 1600))
      (Rng.create ~seed:7) target
  in
  Alcotest.(check bool)
    (Printf.sprintf "stratified brackets analytic yield (%g vs %g +/- %g)"
       a.Cave.yield e.Montecarlo.mean e.Montecarlo.std_error)
    true
    (Float.abs (e.Montecarlo.mean -. a.Cave.yield)
    <= (6. *. e.Montecarlo.std_error) +. 1e-2);
  (* sample count aligned up to a multiple of the strata count *)
  Alcotest.(check int) "aligned samples" 1600 e.Montecarlo.samples

(* Adaptive stopping on a near-deterministic integrand stops at the
   minimum round; on a noisy one it keeps doubling until the CI target
   or the cap. *)
let test_adaptive_stops () =
  let quiet = Montecarlo.target (fun g -> 10. +. (1e-12 *. Rng.float g)) in
  let noisy = Montecarlo.target Rng.gaussian in
  let spec rel =
    Montecarlo.spec
      (Montecarlo.until_rel_error ~min_samples:16 ~max_samples:256 rel)
  in
  let e = Montecarlo.run (spec 0.01) (Rng.create ~seed:3) quiet in
  Alcotest.(check int) "quiet integrand stops at min_samples" 16
    e.Montecarlo.samples;
  (* gaussian mean ~ 0: the relative-error target is unreachable, so
     the round doubling runs to the cap *)
  let e = Montecarlo.run (spec 0.01) (Rng.create ~seed:3) noisy in
  Alcotest.(check int) "noisy integrand runs to max_samples" 256
    e.Montecarlo.samples

(* --- spec validation --- *)

let test_spec_validation () =
  let target = Montecarlo.target Rng.float in
  let run s = ignore (Montecarlo.run s (Rng.create ~seed:1) target) in
  let raises msg s =
    Alcotest.check_raises msg (Invalid_argument ("Montecarlo.run" ^ msg))
      (fun () -> run s)
  in
  raises ": need >= 2 samples" (Montecarlo.spec (Montecarlo.fixed 1));
  raises ": stratified needs >= 2 strata"
    (Montecarlo.spec ~strategy:(Montecarlo.Stratified 1)
       (Montecarlo.fixed 10));
  raises ": importance shift must be positive and finite"
    (Montecarlo.spec ~strategy:(Montecarlo.Importance 0.)
       (Montecarlo.fixed 10));
  raises ": importance shift must be positive and finite"
    (Montecarlo.spec ~strategy:(Montecarlo.Importance infinity)
       (Montecarlo.fixed 10));
  raises ": rel_error must be in (0, 0.5]"
    (Montecarlo.spec (Montecarlo.until_rel_error 0.9));
  raises ": max_samples must be >= min_samples"
    (Montecarlo.spec
       (Montecarlo.until_rel_error ~min_samples:100 ~max_samples:50 0.1))

let test_unsupported_strategy () =
  (* a bare target carries only the plain integrand; asking for a
     variance-reduced strategy is a taxonomy error, not a crash *)
  let target = Montecarlo.target Rng.float in
  List.iter
    (fun strategy ->
      let spec = Montecarlo.spec ~strategy (Montecarlo.fixed 10) in
      match Montecarlo.run spec (Rng.create ~seed:1) target with
      | _ -> Alcotest.failf "%s ran" (Montecarlo.strategy_name strategy)
      | exception E.Error (E.Invalid_input _) -> ())
    [ Montecarlo.Antithetic; Montecarlo.Stratified 4;
      Montecarlo.Importance 1.0 ]

(* --- spec keys are injective over the knob grid --- *)

let test_spec_key_injective () =
  let specs =
    List.concat_map
      (fun strategy ->
        [
          Montecarlo.spec ~strategy (Montecarlo.fixed 100);
          Montecarlo.spec ~strategy (Montecarlo.fixed 200);
          Montecarlo.spec ~strategy (Montecarlo.until_rel_error 0.05);
          Montecarlo.spec ~strategy
            (Montecarlo.until_rel_error ~min_samples:64 0.05);
          Montecarlo.spec ~strategy (Montecarlo.until_rel_error 0.01);
        ])
      (strategies
      @ [ Montecarlo.Stratified 16; Montecarlo.Importance 1.5 ])
  in
  let keys = List.map Montecarlo.spec_key specs in
  let sorted = List.sort_uniq compare keys in
  Alcotest.(check int) "all spec keys distinct" (List.length specs)
    (List.length sorted)

(* --- CLI and daemon share the knob validators verbatim --- *)

let invalid_message f =
  match f () with
  | _ -> Alcotest.fail "expected Invalid_input"
  | exception E.Error (E.Invalid_input { what; _ }) -> what

let test_shared_method_validator () =
  (match E.parse_mc_method "stratified:32" with
  | `Stratified 32 -> ()
  | _ -> Alcotest.fail "stratified:32 parsed wrong");
  (match E.parse_mc_method "importance:2.5" with
  | `Importance s -> Alcotest.(check (float 0.)) "shift" 2.5 s
  | _ -> Alcotest.fail "importance:2.5 parsed wrong");
  (* the daemon rejects a bad method with the very message the shared
     validator produces — one grammar, two front ends *)
  let expected =
    invalid_message (fun () -> E.parse_mc_method ~what:"method" "bogus")
  in
  Run_ctx.with_ctx ~domains:1 ~warn:false @@ fun ctx ->
  let state = Protocol.make_state ~base:ctx () in
  let response =
    Protocol.handle_line state
      {|{"verb":"yield","params":{"code":"TC","length":6},"exec":{"seed":1,"mc_samples":100,"method":"bogus"}}|}
  in
  let json =
    match Json.parse response with
    | Ok v -> v
    | Error m -> Alcotest.failf "unparsable response: %s" m
  in
  let field name =
    match Json.member name json with
    | Some (Json.String s) -> s
    | _ -> Alcotest.failf "missing field %s" name
  in
  Alcotest.(check string) "status" "error" (field "status");
  Alcotest.(check string) "kind" "invalid-input" (field "kind");
  Alcotest.(check string) "daemon message == shared validator message"
    expected (field "message")

let test_shared_rel_error_validator () =
  let expected =
    invalid_message (fun () -> E.check_rel_error ~what:"rel_error" 0.9)
  in
  Run_ctx.with_ctx ~domains:1 ~warn:false @@ fun ctx ->
  let state = Protocol.make_state ~base:ctx () in
  let response =
    Protocol.handle_line state
      {|{"verb":"yield","params":{"code":"TC","length":6},"exec":{"seed":1,"mc_samples":100,"rel_error":0.9}}|}
  in
  match Json.parse response with
  | Error m -> Alcotest.failf "unparsable response: %s" m
  | Ok json -> (
    match Json.member "message" json with
    | Some (Json.String got) ->
      Alcotest.(check string) "daemon message == shared validator message"
        expected got
    | _ -> Alcotest.fail "missing message field")

(* --- the context carries the knobs end to end --- *)

let test_ctx_carries_spec () =
  let a = analysis_of Codebook.Balanced_gray 10 in
  let direct =
    let spec =
      Montecarlo.spec ~strategy:(Montecarlo.Importance 1.0)
        (Montecarlo.fixed 300)
    in
    Cave.mc_yield_window_par ~spec (Rng.create ~seed:9) ~samples:300 a
  in
  Run_ctx.with_ctx ~domains:2 ~mc_method:(Run_ctx.Importance 1.0) ~warn:false
    (fun ctx ->
      Alcotest.check estimate "ctx mc_method == explicit spec" direct
        (Cave.mc_yield_window_par ~ctx (Rng.create ~seed:9) ~samples:300 a))

let suite =
  [
    Alcotest.test_case "strategies: domain/chunk/fault invariance" `Slow
      test_strategy_determinism;
    Alcotest.test_case "adaptive stopping: schedule invariance" `Slow
      test_adaptive_schedule_invariance;
    Alcotest.test_case "antithetic: exact pair fixture" `Quick
      test_antithetic_exact_pair;
    Alcotest.test_case "kernel antithetic == plain (even predicate)" `Quick
      test_kernel_antithetic_equals_plain;
    Alcotest.test_case "importance: brackets yield, tighter CI" `Slow
      test_importance_tightens_high_yield;
    Alcotest.test_case "stratified: unbiased, aligned samples" `Slow
      test_stratified_brackets_exact;
    Alcotest.test_case "adaptive stopping: min and cap" `Quick
      test_adaptive_stops;
    Alcotest.test_case "spec validation messages" `Quick test_spec_validation;
    Alcotest.test_case "unsupported strategies raise Invalid_input" `Quick
      test_unsupported_strategy;
    Alcotest.test_case "spec keys injective" `Quick test_spec_key_injective;
    Alcotest.test_case "shared --mc-method validator (CLI == daemon)" `Quick
      test_shared_method_validator;
    Alcotest.test_case "shared --rel-error validator (CLI == daemon)" `Quick
      test_shared_rel_error_validator;
    Alcotest.test_case "Run_ctx carries strategy to the estimators" `Quick
      test_ctx_carries_spec;
  ]
