(* Batched-scheduler stress suite.

   The scheduling plan — chunk count and batch size, Auto or Fixed — is
   supposed to be invisible in the results: every sample owns its own
   split stream and result slot, so the estimate is a pure function of
   (seed, samples, f).  These tests drive the scheduler through the
   adversarial corners of that contract: degenerate chunkings, every
   Auto shape up to 8 domains, active fault plans at every domain
   count, a starvation check that every domain of a pool actually
   claims work on a job big enough to share, and a check that a
   telemetry sink never changes the plan. *)

open Nanodec_numerics
open Nanodec_parallel
module Fault = Nanodec_fault.Fault
module Telemetry = Nanodec_telemetry.Telemetry

let estimate : Montecarlo.estimate Alcotest.testable =
  Alcotest.testable Montecarlo.pp ( = )

let integrand rng =
  let a = Rng.float rng in
  let b = Rng.gaussian rng in
  (a *. b) +. sin (5. *. a)

(* The plain fixed-count estimate of [integrand] on the streams of
   [seed], under [ctx]'s scheduling. *)
let estimate_on ?ctx ~seed ~samples () =
  Montecarlo.run ?ctx
    (Montecarlo.spec (Montecarlo.fixed samples))
    (Rng.create ~seed) (Montecarlo.target integrand)

(* --- adversarial chunkings --- *)

let test_adversarial_chunking () =
  let samples = 97 in
  (* One pool-less, fixed-chunk reference; every scheduling shape must
     reproduce it bit-for-bit. *)
  let baseline =
    estimate_on
      ~ctx:(Run_ctx.make ~chunking:(Run_ctx.Fixed 8) ())
      ~seed:2009 ~samples ()
  in
  let chunkings =
    Run_ctx.
      [
        Fixed 1;  (* single chunk: the whole job is one inline claim *)
        Fixed 2;  (* fewer chunks than a 4-domain pool *)
        Fixed samples;  (* one sample per chunk *)
        Fixed 300;  (* chunks >> samples: most chunks are empty *)
        Fixed 7;
        Fixed 64;
        Auto;  (* 64 chunks in batches of 16 (1 domain) or 4 (4 domains) *)
      ]
  in
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          List.iteri
            (fun i chunking ->
              let ctx = Run_ctx.make ~pool ~chunking () in
              Alcotest.check estimate
                (Printf.sprintf "domains=%d chunking #%d" domains i)
                baseline
                (estimate_on ~ctx ~seed:2009 ~samples ()))
            chunkings))
    [ 1; 4 ]

(* --- determinism under active fault plans, every domain count --- *)

let fault_spec = "seed=7;pool.chunk:crash:p=0.2;mc.sample_batch:crash:p=0.15"

let test_determinism_under_faults () =
  let samples = 300 in
  let baseline =
    estimate_on
      ~ctx:(Run_ctx.make ~chunking:(Run_ctx.Fixed 16) ())
      ~seed:2009 ~samples ()
  in
  List.iter
    (fun domains ->
      List.iter
        (fun (what, chunking) ->
          (* A fresh engine per run: the plan's decision streams restart
             so every (domains, chunking) shape faces the same faults. *)
          let fault = Fault.create (Fault.parse_exn fault_spec) in
          let e =
            Run_ctx.with_ctx ~domains ~fault ~warn:false ~chunking (fun ctx ->
                estimate_on ~ctx ~seed:2009 ~samples ())
          in
          Alcotest.check estimate
            (Printf.sprintf "faulted run, domains=%d %s" domains what)
            baseline e)
        [ ("fixed 16", Run_ctx.Fixed 16); ("fixed 3", Run_ctx.Fixed 3);
          ("auto", Run_ctx.Auto) ])
    [ 1; 2; 4; 8 ]

(* --- no domain starves on a job big enough to share --- *)

let test_no_starvation () =
  let domains = 4 in
  let chunks = 96 in
  Pool.with_pool ~domains (fun pool ->
      let owner = Array.make chunks (-1) in
      (* Sleeping bodies release the CPU, so even a single-core host
         schedules every worker domain into the claim loop. *)
      Pool.parallel_for ~batch:2 pool ~chunks (fun i ->
          Unix.sleepf 0.002;
          owner.(i) <- (Domain.self () :> int));
      Alcotest.(check bool) "every chunk ran" true
        (Array.for_all (fun d -> d >= 0) owner);
      let distinct =
        List.length (List.sort_uniq compare (Array.to_list owner))
      in
      Alcotest.(check int)
        (Printf.sprintf "all %d domains claimed batches" domains)
        domains distinct)

(* --- batch accounting: claims are disjoint and exactly cover the job --- *)

let test_batch_accounting () =
  let sink = Telemetry.create () in
  Pool.with_pool ~domains:4 ~telemetry:sink (fun pool ->
      Pool.parallel_for ~batch:4 pool ~chunks:42 ignore);
  let counters = Telemetry.counters sink in
  let value name = Option.value ~default:0 (List.assoc_opt name counters) in
  (* ceil(42 / 4) = 11 claims, regardless of which domain won each. *)
  Alcotest.(check int) "pool.batches counts claims" 11 (value "pool.batches");
  Alcotest.(check int) "every chunk counted once" 42
    (value "pool.chunks.submitter" + value "pool.chunks.worker")

(* --- the Auto plan: a pure function of (samples, domains) --- *)

(* The plan [Montecarlo.run] documents for [Run_ctx.Auto]. *)
let auto_plan ~samples ~domains =
  let chunks = min samples (max 64 (8 * domains)) in
  (chunks, max 1 (chunks / (4 * domains)))

let test_auto_plans () =
  (* Every Auto shape — fewer samples than chunks, the 64-chunk floor
     and either side of it, a full-size job — runs and reproduces a
     one-chunk sequential run, at every pool width up to 8. *)
  let shapes = [ 2; 3; 63; 64; 65; 4000 ] in
  let fixed =
    List.map
      (fun samples ->
        let ctx = Run_ctx.make ~chunking:(Run_ctx.Fixed 1) () in
        (samples, estimate_on ~ctx ~seed:2009 ~samples ()))
      shapes
  in
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          let ctx = Run_ctx.make ~pool () in
          List.iter
            (fun (samples, expected) ->
              Alcotest.check estimate
                (Printf.sprintf "auto = fixed, samples=%d domains=%d" samples
                   domains)
                expected
                (estimate_on ~ctx ~seed:2009 ~samples ()))
            fixed))
    [ 1; 2; 4; 8 ]

(* --- Auto vs Fixed: the Run_ctx chunking policy is value-invariant --- *)

let test_auto_equals_fixed () =
  let samples = 400 in
  let fixed =
    Run_ctx.with_ctx ~domains:4 ~chunking:(Run_ctx.Fixed 11) (fun ctx ->
        estimate_on ~ctx ~seed:2009 ~samples ())
  in
  (* Auto with no sink, and Auto on a sink that already holds an
     earlier estimate's spans and counters: the same bits either way. *)
  let auto_cold =
    Run_ctx.with_ctx ~domains:4 (fun ctx ->
        estimate_on ~ctx ~seed:2009 ~samples ())
  in
  let sink = Telemetry.create () in
  let auto_warm =
    Run_ctx.with_ctx ~domains:4 ~telemetry:sink (fun ctx ->
        ignore (estimate_on ~ctx ~seed:1 ~samples ());
        estimate_on ~ctx ~seed:2009 ~samples ())
  in
  Alcotest.check estimate "auto (no sink) = fixed" fixed auto_cold;
  Alcotest.check estimate "auto (warm sink) = fixed" fixed auto_warm

let test_traced_schedule () =
  (* Telemetry observes the schedule and never steers it: on a sink
     that already holds an estimate's history, the next estimate claims
     exactly the batches of the deterministic plan again.  The inert
     fault engine keeps an exported chaos plan from adding retries. *)
  let samples = 4000 and domains = 4 in
  let chunks, batch = auto_plan ~samples ~domains in
  let claims = (chunks + batch - 1) / batch in
  let sink = Telemetry.create () in
  let batches () =
    Option.value ~default:0
      (List.assoc_opt "pool.batches" (Telemetry.counters sink))
  in
  Run_ctx.with_ctx ~domains ~telemetry:sink ~fault:(Fault.inert ())
    (fun ctx ->
      List.iter
        (fun run ->
          let before = batches () in
          ignore (estimate_on ~ctx ~seed:2009 ~samples ());
          Alcotest.(check int)
            (Printf.sprintf "%s run claims ceil(%d / %d) batches" run chunks
               batch)
            claims
            (batches () - before))
        [ "cold"; "warm" ])

let suite =
  [
    Alcotest.test_case "adversarial chunkings" `Quick
      test_adversarial_chunking;
    Alcotest.test_case "determinism under fault plans, domains 1/2/4/8"
      `Quick test_determinism_under_faults;
    Alcotest.test_case "no domain starves on a large job" `Quick
      test_no_starvation;
    Alcotest.test_case "batch claims exactly cover the job" `Quick
      test_batch_accounting;
    Alcotest.test_case "auto plans equal fixed for samples x domains" `Quick
      test_auto_plans;
    Alcotest.test_case "auto and fixed chunking are bit-identical" `Quick
      test_auto_equals_fixed;
    Alcotest.test_case "a traced estimate claims the same batches as an \
                        untraced one" `Quick test_traced_schedule;
  ]
