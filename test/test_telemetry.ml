(* Telemetry sink: spans, counters, histograms, export, and the
   Run_ctx execution-context API built on top of it.

   The headline properties: recording is domain-safe and exception-safe,
   exported span trees are always well-formed (even under a
   non-monotonic wall clock), the JSON export parses back to what was
   recorded,
   and a context never changes numeric results — the bitwise
   telemetry-on/off oracle lives in lib/proptest/oracles.ml; here we
   test the machinery itself. *)

open Nanodec_parallel
module Telemetry = Nanodec_telemetry.Telemetry

(* --- counters --- *)

let test_counters () =
  let sink = Telemetry.create () in
  let c = Telemetry.counter sink "alpha" in
  Telemetry.incr c;
  Telemetry.add c 41;
  Alcotest.(check int) "handle value" 42 (Telemetry.counter_value c);
  Alcotest.(check string) "handle name" "alpha" (Telemetry.counter_name c);
  let c' = Telemetry.counter sink "alpha" in
  Telemetry.incr c';
  Alcotest.(check int) "same name, same cell" 43 (Telemetry.counter_value c);
  Telemetry.count (Some sink) "beta" 7;
  Telemetry.count None "ignored" 99;
  Alcotest.(check (list (pair string int)))
    "export, sorted by name"
    [ ("alpha", 43); ("beta", 7) ]
    (List.sort compare (Telemetry.counters sink))

(* --- histograms --- *)

let test_histograms () =
  let sink = Telemetry.create () in
  let h = Telemetry.histogram sink "lat" in
  Telemetry.observe h 0.001;
  Telemetry.observe h 0.004;
  Telemetry.observe h (-1.0) (* clamps to 0 *);
  Telemetry.record (Some sink) "lat" 0.002;
  Telemetry.record None "ignored" 1.0;
  match Telemetry.histograms sink with
  | [ hs ] ->
    Alcotest.(check string) "name" "lat" hs.Telemetry.hs_name;
    Alcotest.(check int) "count" 4 hs.Telemetry.hs_count;
    Alcotest.(check (float 1e-9)) "sum" 0.007 hs.Telemetry.hs_sum_s;
    Alcotest.(check (float 1e-12)) "min clamped to 0" 0. hs.Telemetry.hs_min_s;
    Alcotest.(check (float 1e-9)) "max" 0.004 hs.Telemetry.hs_max_s;
    let bucketed =
      List.fold_left (fun acc (_, n) -> acc + n) 0 hs.Telemetry.hs_buckets
    in
    Alcotest.(check int) "every observation bucketed" 4 bucketed;
    List.iter
      (fun (upper, _) ->
        Alcotest.(check bool) "bucket bounds positive" true (upper > 0.))
      hs.Telemetry.hs_buckets
  | other ->
    Alcotest.failf "expected exactly one histogram, got %d" (List.length other)

(* --- spans --- *)

let test_span_nesting () =
  let sink = Telemetry.create () in
  let tel = Some sink in
  Telemetry.with_span tel "outer" (fun () ->
      Telemetry.with_span tel "inner-1" (fun () -> ());
      Telemetry.with_span tel "inner-2" (fun () -> ()));
  Telemetry.with_span tel "second-root" (fun () -> ());
  Alcotest.(check bool) "well-formed" true (Telemetry.well_formed sink);
  match Telemetry.span_trees sink with
  | [ outer; second ] ->
    Alcotest.(check string) "root 1" "outer" outer.Telemetry.span_name;
    Alcotest.(check string) "root 2" "second-root" second.Telemetry.span_name;
    Alcotest.(check (list string))
      "children in start order" [ "inner-1"; "inner-2" ]
      (List.map
         (fun s -> s.Telemetry.span_name)
         outer.Telemetry.children);
    Alcotest.(check (list string)) "no grandchildren" []
      (List.concat_map
         (fun s -> List.map (fun c -> c.Telemetry.span_name) s.Telemetry.children)
         outer.Telemetry.children)
  | other -> Alcotest.failf "expected 2 roots, got %d" (List.length other)

let test_span_exception_safe () =
  let sink = Telemetry.create () in
  (try
     Telemetry.with_span (Some sink) "explodes" (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check bool) "well-formed after exception" true
    (Telemetry.well_formed sink);
  Alcotest.(check (list (pair string (pair int (float 1e9)))))
    "span closed and exported"
    [ ("explodes", (1, 0.)) ]
    (List.map
       (fun (n, (c, _)) -> (n, (c, 0.)))
       (Telemetry.span_totals sink))

let test_span_none_passthrough () =
  Alcotest.(check int) "with_span None is f ()" 42
    (Telemetry.with_span None "nothing" (fun () -> 42))

let test_non_monotonic_clock () =
  (* A wall clock stepping backwards (NTP) must not produce negative
     durations or ill-formed trees: the per-domain clamp holds time
     still until the clock catches up. *)
  let times = ref [ 0.0; 10.0; 5.0; 6.0; 20.0 ] in
  let clock () =
    match !times with
    | [ last ] -> last
    | t :: rest ->
      times := rest;
      t
    | [] -> assert false
  in
  let sink = Telemetry.create ~clock () in
  Telemetry.with_span (Some sink) "outer" (fun () ->
      Telemetry.with_span (Some sink) "inner" (fun () -> ()));
  Alcotest.(check bool) "well-formed despite clock step" true
    (Telemetry.well_formed sink)

let test_spans_across_domains () =
  let sink = Telemetry.create () in
  Pool.with_pool ~domains:4 ~telemetry:sink (fun pool ->
      let got =
        Pool.map pool
          (fun i ->
            Telemetry.with_span (Some sink) "chunk" (fun () -> i * i))
          (Array.init 32 Fun.id)
      in
      Alcotest.(check (array int)) "results unchanged"
        (Array.init 32 (fun i -> i * i))
        got);
  Alcotest.(check bool) "well-formed across domains" true
    (Telemetry.well_formed sink);
  let totals = Telemetry.span_totals sink in
  (match List.assoc_opt "chunk" totals with
  | Some (count, seconds) ->
    Alcotest.(check int) "every chunk span recorded" 32 count;
    Alcotest.(check bool) "non-negative total" true (seconds >= 0.)
  | None -> Alcotest.fail "chunk spans missing from totals");
  Alcotest.(check int) "nothing dropped" 0 (Telemetry.dropped_spans sink)

(* --- JSON export: rendered, then parsed back with Json.parse --- *)

module Json = Nanodec_json.Json

let json = Alcotest.testable (Fmt.of_to_string Json.to_string) ( = )

(* [export sink path] walks object fields of the parsed export. *)
let export sink =
  match Json.parse (Json.to_string (Telemetry.to_json sink)) with
  | Error msg -> Alcotest.failf "export does not parse: %s" msg
  | Ok doc ->
    List.fold_left (fun j key -> Option.bind j (Json.member key)) (Some doc)

let test_json_export () =
  let sink = Telemetry.create () in
  let span = "needs \"escaping\"\n" and counter = "c\\slash" in
  let hist = "h\"\n\\" in
  Telemetry.with_span (Some sink) span (fun () ->
      Telemetry.with_span (Some sink) "child" (fun () -> ()));
  Telemetry.count (Some sink) counter 3;
  Telemetry.record (Some sink) hist 0.001;
  let get = export sink in
  Alcotest.(check (option json)) "version" (Some (Int 1)) (get [ "version" ]);
  (match get [ "spans" ] with
  | Some (List [ root ]) ->
    Alcotest.(check (option json)) "escaped span name round-trips"
      (Some (String span)) (Json.member "name" root);
    (match Json.member "children" root with
    | Some (List [ child ]) ->
      Alcotest.(check (option json)) "child nests under its parent"
        (Some (String "child")) (Json.member "name" child);
      Alcotest.(check (option json)) "leaf has no children" (Some (List []))
        (Json.member "children" child)
    | _ -> Alcotest.fail "expected one child span")
  | _ -> Alcotest.fail "expected one root span");
  Alcotest.(check (option json)) "counter under its escaped name"
    (Some (Int 3)) (get [ "counters"; counter ]);
  Alcotest.(check (option json)) "histogram under its escaped name"
    (Some (Int 1)) (get [ "histograms"; hist; "count" ])

let test_json_export_empty () =
  let get = export (Telemetry.create ()) in
  List.iter
    (fun (field, want) ->
      Alcotest.(check (option json)) field (Some want) (get [ field ]))
    [
      ("version", Json.Int 1);
      ("dropped_spans", Int 0);
      ("spans", List []);
      ("counters", Obj []);
      ("histograms", Obj []);
    ]

(* --- Run_ctx --- *)

let test_run_ctx_builder () =
  (* Sequential by default. *)
  Run_ctx.with_ctx (fun ctx ->
      Alcotest.(check bool) "no pool" true (Run_ctx.pool ctx = None);
      Alcotest.(check int) "default seed" Run_ctx.default_seed
        (Run_ctx.seed ctx);
      Alcotest.(check int) "default samples" Run_ctx.default_mc_samples
        (Run_ctx.mc_samples ctx);
      Alcotest.(check bool) "no sink" true (Run_ctx.telemetry ctx = None));
  (* ~domains spawns an owned pool and shutdown joins it. *)
  let escaped =
    Run_ctx.with_ctx ~domains:2 ~seed:7 ~mc_samples:10 (fun ctx ->
        match Run_ctx.pool ctx with
        | None -> Alcotest.fail "expected a pool"
        | Some pool ->
          Alcotest.(check int) "pool size" 2 (Pool.domains pool);
          Alcotest.(check int) "seed carried" 7 (Run_ctx.seed ctx);
          Alcotest.(check int) "samples carried" 10 (Run_ctx.mc_samples ctx);
          pool)
  in
  Alcotest.check_raises "owned pool joined on exit"
    (Invalid_argument "Pool: used after shutdown") (fun () ->
      ignore (Pool.map escaped Fun.id [| 1 |]))

let test_run_ctx_validation () =
  Alcotest.check_raises "negative mc_samples"
    (Invalid_argument "Run_ctx.make: mc_samples must be >= 0") (fun () ->
      ignore (Run_ctx.make ~mc_samples:(-1) ()));
  (* [with_request] runs the same check, under its own name. *)
  let base = Run_ctx.resolve () in
  let derive = Run_ctx.with_request ~base in
  List.iter
    (fun (msg, run) ->
      Alcotest.check_raises msg
        (Invalid_argument ("Run_ctx.with_request: " ^ msg)) run)
    [
      ("mc_samples must be >= 0", fun () -> derive ~mc_samples:(-1) ignore);
      ("timeout_s must be positive", fun () -> derive ~timeout_s:0. ignore);
      ( "Fixed chunking must be >= 1",
        fun () -> derive ~chunking:(Run_ctx.Fixed 0) ignore );
      ("rel_error must be in (0, 0.5]", fun () -> derive ~rel_error:0.6 ignore);
    ]

let test_run_ctx_resolve () =
  (* A given ctx wins: it comes back unchanged. *)
  Run_ctx.with_ctx ~domains:2 ~seed:5 (fun ctx ->
      Alcotest.(check bool) "ctx returned as is" true
        (Run_ctx.resolve ~ctx () == ctx));
  let r = Run_ctx.resolve () in
  Alcotest.(check bool) "nothing given: sequential default" true
    (Run_ctx.pool r = None)

let suite =
  [
    Alcotest.test_case "counters" `Quick test_counters;
    Alcotest.test_case "histograms" `Quick test_histograms;
    Alcotest.test_case "span nesting and order" `Quick test_span_nesting;
    Alcotest.test_case "spans close on exception" `Quick
      test_span_exception_safe;
    Alcotest.test_case "with_span None is identity" `Quick
      test_span_none_passthrough;
    Alcotest.test_case "non-monotonic clock stays well-formed" `Quick
      test_non_monotonic_clock;
    Alcotest.test_case "spans record across pool domains" `Quick
      test_spans_across_domains;
    Alcotest.test_case "JSON export is valid JSON" `Quick test_json_export;
    Alcotest.test_case "empty sink exports valid JSON" `Quick
      test_json_export_empty;
    Alcotest.test_case "Run_ctx builder and ownership" `Quick
      test_run_ctx_builder;
    Alcotest.test_case "Run_ctx validates arguments" `Quick
      test_run_ctx_validation;
    Alcotest.test_case "Run_ctx.resolve precedence" `Quick
      test_run_ctx_resolve;
  ]
