(* Fault injection and the error taxonomy: the chaos suite.

   The contract under test, end to end: a deterministic fault plan
   crashes/delays/stalls work at the named sites; the supervised pool
   retries injected crashes and degrades the job to sequential
   execution when they persist; every run that completes — injected or
   not — computes bit-for-bit the same results; and every failure that
   does surface is a structured [Nanodec_error.t] with a stable exit
   code. *)

open Nanodec_numerics
open Nanodec_parallel
module Fault = Nanodec_fault.Fault
module E = Nanodec_error

let plan_of_string s = Fault.parse_exn s
let engine s = Fault.create (plan_of_string s)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* The reference workload: a chunked Monte-Carlo estimate, the library's
   canonical restartable fan-out. *)
let estimate ~ctx () =
  (* The fixed chunk count rides on a derived context now that the
     estimators take all scheduling through [Run_ctx]. *)
  Run_ctx.with_request ~base:ctx ~chunking:(Run_ctx.Fixed 8) ~warn:false
    (fun ctx ->
      Montecarlo.run ~ctx
        (Montecarlo.spec (Montecarlo.fixed 400))
        (Rng.create ~seed:2009)
        (Montecarlo.target (fun rng -> Rng.gaussian rng +. Rng.float rng)))

let workload ?fault ?timeout_s ?cancel ~domains () =
  Run_ctx.with_ctx ~domains ?fault ?timeout_s ?cancel (fun ctx ->
      estimate ~ctx ())

let baseline = lazy (workload ~domains:1 ())

let check_equals_baseline what e =
  Alcotest.(check bool) what true (e = Lazy.force baseline)

(* --- plan grammar --- *)

let test_parse_round_trip () =
  let specs =
    [
      "seed=7;pool.chunk:crash:p=0.05:max=3";
      "seed=2009;mc.sample_batch:delay=2ms:p=0.1";
      "seed=2009;cave.window:stall=500ms:key=3:after=2";
      "seed=2009;telemetry.flush:crash";
      "seed=2009";
    ]
  in
  List.iter
    (fun s ->
      Alcotest.(check string) s s (Fault.plan_to_string (plan_of_string s)))
    specs;
  (* Defaults fill in: a bare rule gets seed 2009, p=1, no budget. *)
  let p = plan_of_string "pool.chunk:crash" in
  Alcotest.(check int) "default seed" Fault.default_seed p.Fault.seed;
  match p.Fault.rules with
  | [ r ] ->
    Alcotest.(check (float 0.)) "default p" 1. r.Fault.prob;
    Alcotest.(check bool) "no budget" true (r.Fault.max_fires = None)
  | _ -> Alcotest.fail "expected exactly one rule"

let test_parse_rejects () =
  List.iter
    (fun s ->
      match Fault.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" s))
    [
      "bogus.site:crash";
      "pool.chunk:explode";
      "pool.chunk:crash:p=1.5";
      "pool.chunk:delay=2";
      "pool.chunk:crash:max=-1";
      "seed=abc";
      "seed";
    ];
  (* ... and parse_exn surfaces them as Invalid_input with the grammar
     as hint. *)
  match Fault.parse_exn "pool.chunk:explode" with
  | exception E.Error (E.Invalid_input { hint = Some _; _ }) -> ()
  | exception _ -> Alcotest.fail "wrong exception"
  | _ -> Alcotest.fail "parse_exn accepted a bad plan"

let test_empty_plan () =
  let p = plan_of_string "" in
  Alcotest.(check int) "no rules" 0 (List.length p.Fault.rules);
  (* hit on None and on an inert engine are both no-ops *)
  Fault.hit None "pool.chunk";
  let inert = Fault.inert () in
  for key = 0 to 99 do
    Fault.hit (Some inert) ~key "pool.chunk"
  done;
  Alcotest.(check int) "inert never fires" 0 (Fault.total_fired inert)

let test_decision_determinism () =
  (* Two engines from the same plan make identical decisions; a
     different plan seed makes different ones (for a non-trivial p). *)
  let spec = "seed=5;pool.chunk:crash:p=0.4" in
  let fires e =
    List.init 64 (fun key ->
        match Fault.hit (Some e) ~key "pool.chunk" with
        | () -> false
        | exception Fault.Injected _ -> true)
  in
  let a = fires (engine spec) and b = fires (engine spec) in
  Alcotest.(check (list bool)) "same plan, same decisions" a b;
  let c = fires (engine "seed=6;pool.chunk:crash:p=0.4") in
  Alcotest.(check bool) "different seed differs somewhere" true (a <> c)

(* --- recovery: retries and degradation --- *)

let test_crash_first_and_last_chunk () =
  (* One crash on a single key: the retry's fresh decision is blocked
     by max=1, so the chunk succeeds in place and nothing degrades. *)
  List.iter
    (fun key ->
      List.iter
        (fun domains ->
          let f =
            engine (Printf.sprintf "pool.chunk:crash:key=%d:max=1" key)
          in
          let e = workload ~fault:f ~domains () in
          check_equals_baseline
            (Printf.sprintf "crash key %d on %d domains" key domains)
            e;
          Alcotest.(check int)
            "fired exactly once" 1 (Fault.total_fired f))
        [ 1; 4 ])
    [ 0; 7 ]

let test_crash_everywhere_degrades () =
  (* p=1, no budget: every attempt of every chunk dies; the job must
     degrade and still produce the baseline bits. *)
  let f = engine "pool.chunk:crash:p=1" in
  let sink = Nanodec_telemetry.Telemetry.create () in
  let fanned_out () =
    Nanodec_telemetry.Telemetry.(counter_value (counter sink "pool.jobs"))
  in
  Run_ctx.with_ctx ~domains:4 ~telemetry:sink ~fault:f (fun ctx ->
      check_equals_baseline "degraded run" (estimate ~ctx ());
      match Run_ctx.pool ctx with
      | None -> Alcotest.fail "expected a pool"
      | Some pool ->
        Alcotest.(check int) "one degraded job" 1 (Pool.degraded_jobs pool);
        Alcotest.(check bool) "retries counted" true (Pool.retries pool > 0);
        (* Degradation is the job's, not the pool's: the next job fans
           out on the full pool again. *)
        let before = fanned_out () in
        Pool.parallel_for pool ~chunks:8 ignore;
        Alcotest.(check int) "next job fans out" (before + 1) (fanned_out ());
        check_equals_baseline "post-degradation job" (estimate ~ctx ());
        Alcotest.(check int) "that job degrades on its own" 2
          (Pool.degraded_jobs pool))

let test_no_degrade_fails_closed () =
  (* [with_ctx ~degrade:false] plumbing, fanned and inline paths. *)
  List.iter
    (fun domains ->
      match
        Run_ctx.with_ctx ~domains ~degrade:false
          ~fault:(engine "pool.chunk:crash:p=1") (fun ctx ->
            estimate ~ctx ())
      with
      | _ -> Alcotest.fail "expected Degraded"
      | exception E.Error (E.Degraded { site; _ }) ->
        Alcotest.(check string) "site" "pool.chunk" site)
    [ 1; 4 ]

let test_retry_clears_transient () =
  (* max=2 with p=1: the first two attempts of chunk 0 die, the third
     (last allowed retry) finds the budget exhausted and succeeds. *)
  let f = engine "pool.chunk:crash:p=1:key=0:max=2" in
  let e = workload ~fault:f ~domains:4 () in
  check_equals_baseline "transient crash retried" e;
  Alcotest.(check int) "fired twice" 2 (Fault.total_fired f)

let test_delay_is_transparent () =
  let f = engine "mc.sample_batch:delay=1ms:p=0.5" in
  let e = workload ~fault:f ~domains:4 () in
  check_equals_baseline "delays change nothing" e;
  Alcotest.(check bool) "some delays fired" true (Fault.total_fired f > 0)

let test_poolless_ctx_recovers () =
  (* No pool in the context at all: the job runs through the pool's
     sequential executor, with its bounded retries and suppressed
     re-execution. *)
  let f = engine "mc.sample_batch:crash:p=1" in
  let e = Run_ctx.with_ctx ~fault:f (fun ctx -> estimate ~ctx ()) in
  check_equals_baseline "pool-less recovery" e

let test_poolless_no_degrade_fails_closed () =
  (* The degrade policy binds pool-less contexts too: with it off, an
     exhausted retry budget raises instead of degrading silently. *)
  match
    Run_ctx.with_ctx ~degrade:false ~fault:(engine "mc.sample_batch:crash:p=1")
      (fun ctx ->
        Montecarlo.run ~ctx
          (Montecarlo.spec (Montecarlo.fixed 400))
          (Rng.create ~seed:2009)
          (Montecarlo.target (fun rng -> Rng.gaussian rng +. Rng.float rng)))
  with
  | _ -> Alcotest.fail "expected Degraded"
  | exception E.Error (E.Degraded { site; _ }) ->
    Alcotest.(check string) "site" "pool.chunk" site

let test_poolless_timeout () =
  (* A pool-less context enforces its deadline at chunk boundaries like
     a 1-domain pool: 500 samples of 1 ms each stop well short of the
     0.5 s they would take. *)
  let t0 = Unix.gettimeofday () in
  match
    Run_ctx.with_ctx ~timeout_s:0.05 (fun ctx ->
        Montecarlo.run ~ctx
          (Montecarlo.spec (Montecarlo.fixed 500))
          (Rng.create ~seed:1)
          (Montecarlo.target (fun _ ->
               Unix.sleepf 0.001;
               1.)))
  with
  | _ -> Alcotest.fail "expected Timeout"
  | exception E.Error (E.Timeout { seconds = Some s; _ }) ->
    Alcotest.(check (float 1e-9)) "deadline surfaced" 0.05 s;
    Alcotest.(check bool) "stopped early" true
      (Unix.gettimeofday () -. t0 < 0.4)

let test_request_faults_share_the_pool () =
  (* Request-scoped fault plans and degrade policies travel with the
     jobs: every derivation borrows the base pool, and none of them
     changes what the base pool computes afterwards. *)
  Run_ctx.with_ctx ~domains:4 (fun base ->
      let pool = Run_ctx.pool base in
      let squares = Array.init 4 (fun i -> i * i) in
      for i = 0 to 999 do
        let plan =
          match i mod 4 with
          | 0 | 1 -> Printf.sprintf "seed=%d;pool.chunk:crash:p=1" i
          | 2 -> Printf.sprintf "seed=%d;pool.chunk:delay=1ms:p=0.05" i
          | _ -> Printf.sprintf "seed=%d;pool.chunk:crash:p=0.5:max=1" i
        in
        let degrade = i mod 4 <> 1 in
        Run_ctx.with_request ~base ~fault:(engine plan) ~degrade ~warn:false
          (fun ctx ->
            if not (Run_ctx.pool ctx == pool) then
              Alcotest.failf "derivation %d left the base pool" i;
            let out = Array.make 4 0 in
            match
              Run_ctx.parallel_for ctx ~chunks:4 (fun k -> out.(k) <- k * k)
            with
            | () when degrade ->
              if out <> squares then
                Alcotest.failf "derivation %d: wrong slots" i
            | () -> Alcotest.failf "derivation %d: expected Degraded" i
            | exception E.Error (E.Degraded _) when not degrade -> ())
      done;
      check_equals_baseline "base pool after 1000 derivations"
        (estimate ~ctx:base ()))

(* --- deadlines and cancellation --- *)

let test_timeout_mid_job () =
  List.iter
    (fun domains ->
      match
        Run_ctx.with_ctx ~domains ~timeout_s:0.02 (fun ctx ->
            match Run_ctx.pool ctx with
            | None -> Alcotest.fail "expected a pool"
            | Some pool ->
              Pool.parallel_for ?timeout_s:(Run_ctx.timeout_s ctx) pool
                ~chunks:8 (fun _ -> Unix.sleepf 0.05))
      with
      | () -> Alcotest.fail "expected Timeout"
      | exception E.Error (E.Timeout { seconds = Some s; _ }) ->
        Alcotest.(check (float 1e-9)) "deadline surfaced" 0.02 s)
    [ 1; 4 ]

let test_stall_plus_timeout () =
  (* A stall plan driving the deadline over: the injected stall is the
     cause, the timeout is the symptom the taxonomy reports. *)
  let f = engine "mc.sample_batch:stall=50ms" in
  match workload ~fault:f ~timeout_s:0.02 ~domains:4 () with
  | _ -> Alcotest.fail "expected Timeout"
  | exception E.Error (E.Timeout _) -> ()

let test_cancellation () =
  List.iter
    (fun domains ->
      let cancel = Pool.Cancel.create () in
      Alcotest.(check bool) "fresh token" false
        (Pool.Cancel.is_cancelled cancel);
      Pool.with_pool ~domains (fun pool ->
          (* The first chunk cancels the job; later claim boundaries
             observe the token. *)
          match
            Pool.parallel_for ~cancel pool ~chunks:64 (fun i ->
                if i = 0 then Pool.Cancel.cancel cancel)
          with
          | () -> Alcotest.fail "expected cancellation"
          | exception E.Error (E.Timeout { seconds = None; _ }) -> ()))
    [ 1; 4 ]

let test_organic_exceptions_not_retried () =
  (* Real bugs must not be retried or degraded away, even with an
     engine installed. *)
  Pool.with_pool ~domains:4 (fun pool ->
      match
        Pool.parallel_for ~fault:(engine "seed=2009") pool ~chunks:8 (fun i ->
            if i = 3 then failwith "organic")
      with
      | () -> Alcotest.fail "expected Failure"
      | exception Failure msg ->
        Alcotest.(check string) "organic" "organic" msg)

(* --- taxonomy --- *)

let test_exit_codes_distinct () =
  let all =
    [
      E.Invalid_input { what = "w"; hint = None };
      E.Timeout { site = "s"; seconds = Some 1. };
      E.Worker_crash { site = "s"; detail = "d"; injected = true };
      E.Degraded { site = "s"; reason = "r" };
      E.Internal { detail = "d" };
    ]
  in
  let codes = List.map E.exit_code all in
  Alcotest.(check (list int)) "documented codes" [ 2; 3; 4; 5; 70 ] codes;
  Alcotest.(check int) "all distinct"
    (List.length codes)
    (List.length (List.sort_uniq compare codes));
  List.iter
    (fun t ->
      let s = E.to_string t in
      Alcotest.(check bool)
        (E.label t ^ " rendered with label")
        true
        (String.length s > 0 && s.[0] = '[' && contains s (E.label t)))
    all

let test_classify () =
  let open Nanodec in
  (match Errors.classify Nanodec_codes.Balanced_gray.Search_exhausted with
  | Some (E.Invalid_input { hint = Some h; _ }) ->
    Alcotest.(check bool) "hint names the BGC bound" true (contains h "4096")
  | _ -> Alcotest.fail "BGC Search_exhausted should be Invalid_input");
  (match Errors.classify Nanodec_codes.Arranged_hot.Search_exhausted with
  | Some (E.Invalid_input { hint = Some h; _ }) ->
    Alcotest.(check bool) "hint names the AHC bound" true (contains h "2048")
  | _ -> Alcotest.fail "AHC Search_exhausted should be Invalid_input");
  (match
     Errors.classify (Fault.Injected { site = "cave.window"; key = 1 })
   with
  | Some (E.Worker_crash { injected = true; site; _ }) ->
    Alcotest.(check string) "site kept" "cave.window" site
  | _ -> Alcotest.fail "escaped Injected should be Worker_crash");
  (match Errors.classify (Invalid_argument "nope") with
  | Some (E.Invalid_input { what = "nope"; _ }) -> ()
  | _ -> Alcotest.fail "Invalid_argument should be Invalid_input");
  (match Errors.classify (E.Error (E.Internal { detail = "x" })) with
  | Some (E.Internal _) -> ()
  | _ -> Alcotest.fail "Error payload should unwrap");
  match Errors.classify Not_found with
  | None -> ()
  | Some _ -> Alcotest.fail "unknown exceptions must stay unclassified"

let test_guard () =
  let open Nanodec in
  Alcotest.(check int) "guard passes values through" 42
    (Errors.guard (fun () -> 42));
  (match
     Errors.guard (fun () ->
         raise Nanodec_codes.Balanced_gray.Search_exhausted)
   with
  | exception E.Error (E.Invalid_input _) -> ()
  | _ -> Alcotest.fail "guard should classify");
  match Errors.guard (fun () -> raise Not_found) with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "guard must re-raise unclassified exceptions"

let test_check_int_range () =
  E.check_int_range ~what:"x" ~min:1 ~max:64 1;
  E.check_int_range ~what:"x" ~min:1 ~max:64 64;
  match E.check_int_range ~what:"--domains" ~min:1 ~max:64 65 with
  | exception E.Error (E.Invalid_input { what; _ }) ->
    Alcotest.(check bool) "names the flag" true (contains what "--domains")
  | () -> Alcotest.fail "expected Invalid_input"

let test_of_env () =
  let with_env value f =
    let prev = Sys.getenv_opt Fault.env_var in
    Unix.putenv Fault.env_var value;
    Fun.protect
      ~finally:(fun () ->
        Unix.putenv Fault.env_var (Option.value ~default:"" prev))
      f
  in
  with_env "" (fun () ->
      Alcotest.(check bool) "empty is None" true (Fault.of_env () = None));
  with_env "pool.chunk:crash:max=1" (fun () ->
      match Fault.of_env () with
      | Some e ->
        Alcotest.(check int) "one rule" 1
          (List.length (Fault.plan e).Fault.rules)
      | None -> Alcotest.fail "expected an engine");
  with_env "garbage" (fun () ->
      match Fault.of_env () with
      | exception E.Error (E.Invalid_input _) -> ()
      | _ -> Alcotest.fail "malformed env plan must be Invalid_input")

let test_telemetry_records_faults () =
  let f = engine "pool.chunk:crash:key=0:max=1" in
  let sink = Nanodec_telemetry.Telemetry.create () in
  Fault.set_telemetry f (Some sink);
  let e =
    Run_ctx.with_ctx ~domains:2 ~fault:f (fun ctx -> estimate ~ctx ())
  in
  check_equals_baseline "instrumented chaos run" e;
  Alcotest.(check (list (pair string int)))
    "fired counts by site"
    [ ("pool.chunk", 1) ]
    (Fault.fired f);
  let path = Filename.temp_file "nanodec-fault" ".json" in
  Nanodec_telemetry.Telemetry.write_json sink ~path;
  let ic = open_in path in
  let json = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  Alcotest.(check bool) "sink saw the injection" true
    (contains json "fault.fired.pool.chunk"
    && contains json "fault.injected.crash")

let suite =
  [
    Alcotest.test_case "plan spec round-trips" `Quick test_parse_round_trip;
    Alcotest.test_case "plan spec rejects malformed input" `Quick
      test_parse_rejects;
    Alcotest.test_case "empty/inert plans are no-ops" `Quick test_empty_plan;
    Alcotest.test_case "decisions are a pure function of the plan" `Quick
      test_decision_determinism;
    Alcotest.test_case "crash in first/last chunk is retried" `Quick
      test_crash_first_and_last_chunk;
    Alcotest.test_case "persistent crashes degrade to sequential" `Quick
      test_crash_everywhere_degrades;
    Alcotest.test_case "no-degrade fails closed with Degraded" `Quick
      test_no_degrade_fails_closed;
    Alcotest.test_case "bounded retries clear transient crashes" `Quick
      test_retry_clears_transient;
    Alcotest.test_case "delays never change results" `Quick
      test_delay_is_transparent;
    Alcotest.test_case "pool-less contexts recover too" `Quick
      test_poolless_ctx_recovers;
    Alcotest.test_case "pool-less no-degrade fails closed" `Quick
      test_poolless_no_degrade_fails_closed;
    Alcotest.test_case "pool-less contexts honour the deadline" `Quick
      test_poolless_timeout;
    Alcotest.test_case "request fault plans share the base pool" `Quick
      test_request_faults_share_the_pool;
    Alcotest.test_case "deadline expiry raises Timeout" `Quick
      test_timeout_mid_job;
    Alcotest.test_case "injected stall trips the deadline" `Quick
      test_stall_plus_timeout;
    Alcotest.test_case "cancellation tokens stop the job" `Quick
      test_cancellation;
    Alcotest.test_case "organic exceptions are never retried" `Quick
      test_organic_exceptions_not_retried;
    Alcotest.test_case "exit codes are documented and distinct" `Quick
      test_exit_codes_distinct;
    Alcotest.test_case "classify maps every failure family" `Quick
      test_classify;
    Alcotest.test_case "guard re-raises through the taxonomy" `Quick
      test_guard;
    Alcotest.test_case "check_int_range validates bounds" `Quick
      test_check_int_range;
    Alcotest.test_case "NANODEC_FAULT_PLAN environment activation" `Quick
      test_of_env;
    Alcotest.test_case "telemetry records every injected fault" `Quick
      test_telemetry_records_faults;
  ]
