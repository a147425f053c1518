(* The serve daemon's test battery.

   Three layers:
   - protocol round trips through [Protocol.handle_line] directly (no
     sockets): every verb, the cached flag, per-request seed isolation,
     bit-for-bit agreement with standalone sequential runs, and the
     timeout / no-degrade / fault-plan error mapping onto the same
     taxonomy kinds the CLI turns into exit codes;
   - a protocol fuzz battery: malformed JSON, truncated documents,
     hostile nesting, wrong-typed and out-of-range numerics — every one
     must come back as a parseable [invalid-input] error response and
     leave the daemon answering;
   - real sockets: a server thread serving Unix-domain and TCP clients,
     oversized-line resync, partial-line EOF, shutdown draining
     pipelined requests, warm hits answered on the select loop (and
     only those), and the 8-client soak whose responses must be
     byte-identical across clients and across domain counts 1 and 4. *)

open Nanodec_serve
module Run_ctx = Nanodec_parallel.Run_ctx
module Telemetry = Nanodec_telemetry.Telemetry
module Fault = Nanodec_fault.Fault
module E = Nanodec_error

(* The renderer keeps a float's value, not its constructor: integral
   floats print as integers.  Response bytes are pinned by the goldens,
   so readers take float fields through [to_float_opt]. *)
let test_json_float_rendering () =
  let back f = Json.parse (Json.to_string (Json.Float f)) in
  List.iter
    (fun (f, text, parsed) ->
      Alcotest.(check string) (text ^ " rendered") text
        (Json.to_string (Json.Float f));
      Alcotest.(check bool) (text ^ " parsed back") true (back f = Ok parsed))
    [
      (0., "0", Json.Int 0);
      (2., "2", Json.Int 2);
      (0.5, "0.5", Json.Float 0.5);
      (1e20, "1e+20", Json.Float 1e20);
    ];
  Alcotest.(check (option (float 0.))) "to_float_opt reads Int 2" (Some 2.)
    (Option.bind (Result.to_option (back 2.)) Json.to_float_opt)

let with_state ?cache_enabled ?(domains = 2) f =
  Run_ctx.with_ctx ~domains @@ fun ctx ->
  f (Protocol.make_state ?cache_enabled ~base:ctx ())

let parse_response line =
  match Json.parse line with
  | Ok v -> v
  | Error msg -> Alcotest.failf "unparsable response %S: %s" line msg

let member name json =
  match Json.member name json with
  | Some v -> v
  | None -> Alcotest.failf "response lacks field %S: %s" name (Json.to_string json)

let string_member name json =
  match Json.to_string_opt (member name json) with
  | Some s -> s
  | None -> Alcotest.failf "field %S is not a string" name

let int_member name json =
  match Json.to_int_opt (member name json) with
  | Some i -> i
  | None -> Alcotest.failf "field %S is not an int" name

let float_member name json =
  match Json.to_float_opt (member name json) with
  | Some f -> f
  | None -> Alcotest.failf "field %S is not a number" name

let bool_member name json =
  match Json.to_bool_opt (member name json) with
  | Some b -> b
  | None -> Alcotest.failf "field %S is not a bool" name

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  n = 0 || scan 0

let ask state line = parse_response (Protocol.handle_line state line)

let expect_ok response =
  Alcotest.(check string)
    ("status of " ^ Json.to_string response)
    "ok"
    (string_member "status" response);
  member "result" response

let expect_error ~kind ~exit_code response =
  Alcotest.(check string) "status" "error" (string_member "status" response);
  Alcotest.(check string) "kind" kind (string_member "kind" response);
  Alcotest.(check int) "exit_code" exit_code (int_member "exit_code" response)

(* --- protocol round trips --- *)

let test_ping () =
  with_state @@ fun state ->
  let r = ask state {|{"id":"abc","verb":"ping"}|} in
  Alcotest.(check string) "id echoed" "abc" (string_member "id" r);
  Alcotest.(check string) "verb echoed" "ping" (string_member "verb" r);
  Alcotest.(check bool) "pong" true (bool_member "pong" (expect_ok r))

let test_evaluate_matches_direct () =
  with_state @@ fun state ->
  let r =
    ask state {|{"verb":"evaluate","params":{"code":"BGC","length":10}}|}
  in
  let result = expect_ok r in
  let direct =
    Nanodec.Design.evaluate
      (Nanodec.Design.spec ~code_type:Nanodec_codes.Codebook.Balanced_gray
         ~code_length:10 ())
  in
  Alcotest.(check int) "phi" direct.Nanodec.Design.phi (int_member "phi" result);
  Alcotest.(check (float 0.)) "crossbar_yield"
    direct.Nanodec.Design.crossbar_yield
    (float_member "crossbar_yield" result);
  Alcotest.(check (float 0.)) "bit_area" direct.Nanodec.Design.bit_area
    (float_member "bit_area" result)

let test_evaluate_mc_matches_direct () =
  with_state @@ fun state ->
  let r =
    ask state
      {|{"verb":"evaluate","params":{"code":"BGC","length":8},"exec":{"seed":11,"mc_samples":300}}|}
  in
  let mc = member "mc" (expect_ok r) in
  let direct =
    Run_ctx.with_ctx ~domains:2 @@ fun ctx ->
    let spec =
      Nanodec.Design.spec ~code_type:Nanodec_codes.Codebook.Balanced_gray
        ~code_length:8 ()
    in
    Nanodec_crossbar.Cave.mc_yield_window_par ~ctx
      (Nanodec_numerics.Rng.create ~seed:11)
      ~samples:300
      (Nanodec_crossbar.Cave.analyze spec.Nanodec.Design.cave)
  in
  Alcotest.(check (float 0.)) "mc mean is bit-for-bit the direct estimate"
    direct.Nanodec_numerics.Montecarlo.mean
    (float_member "mean" mc);
  Alcotest.(check int) "samples" 300 (int_member "samples" mc);
  Alcotest.(check int) "seed" 11 (int_member "seed" mc)

let test_cached_flag_and_identical_result () =
  with_state @@ fun state ->
  let line =
    {|{"verb":"evaluate","params":{"code":"TC","length":8},"exec":{"seed":3,"mc_samples":200}}|}
  in
  let r1 = ask state line in
  let r2 = ask state line in
  Alcotest.(check bool) "first is cold" false (bool_member "cached" r1);
  Alcotest.(check bool) "second is cached" true (bool_member "cached" r2);
  Alcotest.(check string) "hit result is byte-identical to the cold result"
    (Json.to_string (member "result" r1))
    (Json.to_string (member "result" r2))

let test_yield_defaults () =
  with_state @@ fun state ->
  let r = ask state {|{"verb":"yield","params":{"code":"TC","length":6}}|} in
  let mc = member "mc" (expect_ok r) in
  Alcotest.(check int) "default samples" 1000 (int_member "samples" mc);
  Alcotest.(check int) "default seed" Run_ctx.default_seed
    (int_member "seed" mc)

let test_seed_isolation () =
  with_state @@ fun state ->
  let line seed =
    Printf.sprintf
      {|{"verb":"yield","params":{"code":"TC","length":6},"exec":{"seed":%d,"mc_samples":200}}|}
      seed
  in
  let r1 = ask state (line 1) in
  let r2 = ask state (line 2) in
  let r3 = ask state (line 1) in
  Alcotest.(check string) "same seed reproduces across interleaved requests"
    (Json.to_string (member "result" r1))
    (Json.to_string (member "result" r3));
  Alcotest.(check bool) "different seeds draw different noise" false
    (String.equal
       (Json.to_string (member "result" r1))
       (Json.to_string (member "result" r2)))

let test_matches_standalone_sequential_run () =
  (* A daemon request must return exactly what a one-shot sequential
     CLI-style run of the same parameters computes. *)
  let direct =
    Run_ctx.with_ctx ~domains:1 @@ fun ctx ->
    let spec =
      Nanodec.Design.spec ~code_type:Nanodec_codes.Codebook.Gray
        ~code_length:8 ()
    in
    Nanodec_crossbar.Cave.mc_yield_window_par ~ctx
      (Nanodec_numerics.Rng.create ~seed:21)
      ~samples:400
      (Nanodec_crossbar.Cave.analyze spec.Nanodec.Design.cave)
  in
  with_state ~domains:4 @@ fun state ->
  let r =
    ask state
      {|{"verb":"yield","params":{"code":"GC","length":8},"exec":{"seed":21,"mc_samples":400}}|}
  in
  let mc = member "mc" (expect_ok r) in
  Alcotest.(check (float 0.)) "daemon(4 domains) = standalone(1 domain)"
    direct.Nanodec_numerics.Montecarlo.mean
    (float_member "mean" mc)

let test_codes_round_trip () =
  with_state @@ fun state ->
  let r =
    ask state {|{"verb":"codes","params":{"code":"AHC","length":6,"count":5}}|}
  in
  let result = expect_ok r in
  let words =
    match Json.to_list_opt (member "words" result) with
    | Some l -> List.filter_map Json.to_string_opt l
    | None -> Alcotest.fail "words is not a list"
  in
  let direct =
    List.map Nanodec_codes.Word.to_string
      (Nanodec_codes.Codebook.sequence ~radix:2 ~length:6 ~count:5
         Nanodec_codes.Codebook.Arranged_hot)
  in
  Alcotest.(check (list string)) "word sequence" direct words

let test_sweep_round_trip () =
  with_state @@ fun state ->
  let line = {|{"verb":"sweep","params":{"radix":2,"wires":20}}|} in
  let r1 = ask state line in
  let rows =
    match Json.to_list_opt (member "rows" (expect_ok r1)) with
    | Some l -> l
    | None -> Alcotest.fail "rows is not a list"
  in
  let direct = Nanodec.Optimizer.sweep () in
  Alcotest.(check int) "row count matches Optimizer.sweep"
    (List.length direct) (List.length rows);
  let r2 = ask state line in
  Alcotest.(check bool) "sweep result cached on repeat" true
    (bool_member "cached" r2)

let test_check_verb () =
  with_state @@ fun state ->
  let r = ask state {|{"verb":"check","params":{"count":2,"seed":5}}|} in
  let result = expect_ok r in
  Alcotest.(check int) "runs every oracle"
    (List.length Nanodec_proptest.Oracles.all)
    (int_member "properties" result);
  Alcotest.(check int) "no failures" 0 (int_member "failed" result);
  Alcotest.(check int) "echoes the seed" 5 (int_member "seed" result)

let test_stats_counts () =
  with_state @@ fun state ->
  ignore (ask state {|{"verb":"ping"}|});
  ignore (ask state {|not json|});
  ignore (ask state {|{"verb":"evaluate"}|});
  let r = ask state {|{"verb":"stats"}|} in
  let result = expect_ok r in
  Alcotest.(check int) "requests counted" 4 (int_member "requests" result);
  Alcotest.(check int) "errors counted" 1 (int_member "errors" result);
  let cache = member "cache" result in
  Alcotest.(check bool) "evaluate populated the cache" true
    (int_member "entries" cache > 0);
  (* Without a server attached the scheduler view is the serial
     picture: this very request in flight, nothing queued or shed. *)
  let serve = member "serve" result in
  Alcotest.(check int) "serial inflight" 1 (int_member "inflight" serve);
  Alcotest.(check int) "serial queued" 0 (int_member "queued" serve);
  Alcotest.(check int) "serial shed" 0 (int_member "shed" serve)

(* [cache.evicted_cost_s] is the build work eviction threw away: zero
   until an entry is evicted, then that entry's measured build cost,
   which is part of [build_s]. *)
let test_stats_evicted_cost () =
  Run_ctx.with_ctx ~domains:1 @@ fun ctx ->
  let state = Protocol.make_state ~cache_capacity:1 ~base:ctx () in
  let cache () = member "cache" (expect_ok (ask state {|{"verb":"stats"}|})) in
  let sweep wires =
    expect_ok
      (ask state
         (Printf.sprintf {|{"verb":"sweep","params":{"radix":2,"wires":%d}}|}
            wires))
    |> ignore
  in
  sweep 20;
  Alcotest.(check (float 0.)) "nothing evicted, nothing lost" 0.
    (float_member "evicted_cost_s" (cache ()));
  sweep 24;
  let c = cache () in
  Alcotest.(check int) "one eviction" 1 (int_member "evictions" c);
  let lost = float_member "evicted_cost_s" c in
  Alcotest.(check bool)
    (Printf.sprintf "0 < evicted_cost_s %g < build_s %g" lost
       (float_member "build_s" c))
    true
    (lost > 0. && lost < float_member "build_s" c)

(* Concurrent duplicates of one cold request cost what a single request
   costs: every cache layer (estimate, kernel, analysis, ν) is built
   once, exactly one response is the cold build, and every response
   carries the serial result bytes. *)
let test_concurrent_duplicates_build_once () =
  let line =
    {|{"verb":"yield","params":{"code":"BGC","length":8},"exec":{"seed":11,"mc_samples":2000}}|}
  in
  let cache_stats state = member "cache" (expect_ok (ask state {|{"verb":"stats"}|})) in
  let reference, ref_cache =
    with_state @@ fun state ->
    let r = ask state line in
    (Json.to_string (expect_ok r), cache_stats state)
  in
  let n = 8 in
  with_state @@ fun state ->
  let ready = Atomic.make 0 in
  let responses = Array.make n "" in
  let threads =
    List.init n (fun i ->
        Thread.create
          (fun () ->
            Atomic.incr ready;
            while Atomic.get ready < n do
              Thread.yield ()
            done;
            responses.(i) <- Protocol.handle_line state line)
          ())
  in
  List.iter Thread.join threads;
  let parsed = Array.map parse_response responses in
  Array.iteri
    (fun i r ->
      Alcotest.(check string)
        (Printf.sprintf "response %d = serial result bytes" i)
        reference
        (Json.to_string (expect_ok r)))
    parsed;
  let cold =
    Array.fold_left
      (fun acc r -> if bool_member "cached" r then acc else acc + 1)
      0 parsed
  in
  Alcotest.(check int) "exactly one cold response" 1 cold;
  let cache = cache_stats state in
  Alcotest.(check (pair int int)) "builds and entries = one serial request"
    (int_member "misses" ref_cache, int_member "entries" ref_cache)
    (int_member "misses" cache, int_member "entries" cache)

let test_shutdown_flag () =
  with_state @@ fun state ->
  Alcotest.(check bool) "not stopping initially" false
    (Protocol.stopping state);
  let r = ask state {|{"verb":"shutdown"}|} in
  Alcotest.(check bool) "stopping acknowledged" true
    (bool_member "stopping" (expect_ok r));
  Alcotest.(check bool) "state marked stopping" true (Protocol.stopping state)

(* --- error mapping --- *)

let test_unknown_verb () =
  with_state @@ fun state ->
  let r = ask state {|{"id":7,"verb":"frobnicate"}|} in
  expect_error ~kind:"invalid-input" ~exit_code:2 r;
  Alcotest.(check int) "id still echoed" 7 (int_member "id" r);
  let hint = string_member "hint" r in
  Alcotest.(check bool) "hint lists the verbs" true
    (List.for_all (fun v -> contains ~needle:v hint) Protocol.known_verbs)

let test_malformed_json_then_alive () =
  with_state @@ fun state ->
  let r = ask state "{" in
  expect_error ~kind:"invalid-input" ~exit_code:2 r;
  let r2 = ask state {|{"verb":"ping"}|} in
  Alcotest.(check bool) "daemon still answers" true
    (bool_member "pong" (expect_ok r2))

let test_non_object_request () =
  with_state @@ fun state ->
  expect_error ~kind:"invalid-input" ~exit_code:2 (ask state "[1,2,3]");
  expect_error ~kind:"invalid-input" ~exit_code:2 (ask state "42")

let test_invalid_numerics () =
  with_state @@ fun state ->
  let cases =
    [
      {|{"verb":"yield","exec":{"mc_samples":0}}|};
      {|{"verb":"yield","exec":{"mc_samples":-5}}|};
      {|{"verb":"yield","exec":{"mc_samples":1}}|};
      {|{"verb":"yield","exec":{"seed":-1}}|};
      {|{"verb":"yield","exec":{"seed":1.5}}|};
      {|{"verb":"yield","exec":{"timeout":-1}}|};
      {|{"verb":"yield","exec":{"timeout":0}}|};
      {|{"verb":"yield","exec":{"chunks":0}}|};
      {|{"verb":"yield","exec":{"chunks":"minus one"}}|};
      {|{"verb":"evaluate","params":{"radix":1}}|};
      {|{"verb":"evaluate","params":{"radix":-2}}|};
      {|{"verb":"evaluate","params":{"length":0}}|};
      {|{"verb":"evaluate","params":{"wires":0}}|};
      {|{"verb":"evaluate","params":{"raw_bits":0}}|};
      {|{"verb":"codes","params":{"count":0}}|};
      {|{"verb":"check","params":{"count":0}}|};
      {|{"verb":"check","params":{"count":1000000}}|};
      {|{"verb":"evaluate","params":{"code":"XYZ"}}|};
    ]
  in
  List.iter
    (fun line -> expect_error ~kind:"invalid-input" ~exit_code:2 (ask state line))
    cases;
  Alcotest.(check bool) "daemon still answers after the battery" true
    (bool_member "pong" (expect_ok (ask state {|{"verb":"ping"}|})))

let test_fuzz_battery () =
  with_state @@ fun state ->
  let deep = String.concat "" (List.init 100 (fun _ -> "[")) in
  let hostile =
    [
      "";
      "   ";
      "{";
      "[";
      "\"just a string\"";
      "null";
      "true";
      "{\"verb\":\"ping\"";
      "{\"verb\": }";
      "{\"verb\":42}";
      "{\"verb\":[\"ping\"]}";
      "{\"verb\":\"ping\",\"id\":}";
      "{\"verb\":\"ping\"}garbage";
      deep;
      "{\"verb\":\"evaluate\",\"params\":{\"length\":\"ten\"}}";
      "{\"verb\":\"evaluate\",\"params\":42}";
      "{\"verb\":\"evaluate\",\"exec\":[]}";
      "{\"verb\":\"yield\",\"exec\":{\"seed\":99999999999999999999999999}}";
      "{\"verb\":\"yield\",\"exec\":{\"timeout\":NaN}}";
      "{\"verb\":\"yield\",\"exec\":{\"timeout\":Infinity}}";
      "{\"verb\":\"ping\",\"id\":\"\\u0000 raw \x01 control\"}";
    ]
  in
  List.iter
    (fun line ->
      let r = ask state line in
      Alcotest.(check string)
        (Printf.sprintf "hostile line %S maps to an error" line)
        "error"
        (string_member "status" r);
      Alcotest.(check string)
        (Printf.sprintf "hostile line %S is invalid-input" line)
        "invalid-input"
        (string_member "kind" r))
    hostile;
  Alcotest.(check bool) "daemon survives the fuzz battery" true
    (bool_member "pong" (expect_ok (ask state {|{"verb":"ping"}|})))

(* The timed-out build stores nothing: the same request without a
   deadline is then a cold build with the bytes a fresh daemon
   returns. *)
let test_timeout_mapping () =
  let line =
    {|{"verb":"yield","params":{"code":"BGC","length":10},"exec":{"mc_samples":50000}}|}
  in
  let fresh = with_state @@ fun state -> Json.to_string (expect_ok (ask state line)) in
  with_state @@ fun state ->
  let r =
    ask state
      {|{"verb":"yield","params":{"code":"BGC","length":10},"exec":{"mc_samples":50000,"timeout":1e-06}}|}
  in
  expect_error ~kind:"timeout" ~exit_code:3 r;
  Alcotest.(check bool) "shared pool still serves after the timeout" true
    (bool_member "pong" (expect_ok (ask state {|{"verb":"ping"}|})));
  let r = ask state line in
  Alcotest.(check bool) "the timed-out estimate was not stored" false
    (bool_member "cached" r);
  Alcotest.(check string) "the retry returns fresh-daemon bytes" fresh
    (Json.to_string (expect_ok r))

(* A deadline that is met changes nothing about the result, so a
   deadline-bearing request shares the result cache both ways round:
   it hits what a plain request built, and a plain request hits what
   it built. *)
let test_deadline_shares_the_cache () =
  let plain =
    {|{"verb":"yield","params":{"code":"BGC","length":8},"exec":{"seed":5,"mc_samples":300}}|}
  and timed =
    {|{"verb":"yield","params":{"code":"BGC","length":8},"exec":{"seed":5,"mc_samples":300,"timeout":60}}|}
  in
  List.iter
    (fun (order, first, second) ->
      with_state @@ fun state ->
      let r1 = ask state first in
      let r2 = ask state second in
      Alcotest.(check bool) (order ^ ": first is cold") false
        (bool_member "cached" r1);
      Alcotest.(check bool) (order ^ ": second is cached") true
        (bool_member "cached" r2);
      Alcotest.(check string) (order ^ ": byte-identical results")
        (Json.to_string (expect_ok r1))
        (Json.to_string (expect_ok r2)))
    [ ("plain then deadline", plain, timed); ("deadline then plain", timed, plain) ]

let test_no_degrade_mapping () =
  with_state @@ fun state ->
  let baseline =
    ask state
      {|{"verb":"yield","params":{"code":"TC","length":6},"exec":{"seed":9,"mc_samples":200}}|}
  in
  let r =
    ask state
      {|{"verb":"yield","params":{"code":"TC","length":6},"exec":{"seed":9,"mc_samples":200,"fault_plan":"seed=1;pool.chunk:crash:p=1","no_degrade":true}}|}
  in
  expect_error ~kind:"degraded" ~exit_code:5 r;
  (* With degradation allowed the same chaos plan must recover to the
     exact uninjected result — on the shared pool, whose next jobs run
     as if no request had injected anything. *)
  let recovered =
    ask state
      {|{"verb":"yield","params":{"code":"TC","length":6},"exec":{"seed":9,"mc_samples":200,"fault_plan":"seed=1;pool.chunk:crash:p=0.4:max=20"}}|}
  in
  Alcotest.(check string) "chaos run recovers the uninjected bytes"
    (Json.to_string (member "result" baseline))
    (Json.to_string (member "result" recovered));
  let after =
    ask state
      {|{"verb":"yield","params":{"code":"TC","length":6},"exec":{"seed":9,"mc_samples":200}}|}
  in
  Alcotest.(check string) "shared pool unaffected, result unchanged"
    (Json.to_string (member "result" baseline))
    (Json.to_string (member "result" after))

(* --- spliced fragments ---

   Cached verbs answer with stored result bytes spliced into the
   envelope; these pin the splices to what rendering the whole tree
   gives. *)

(* [line] with the envelope's cached flag cleared, so responses that
   differ only in it compare equal. *)
let uncached line =
  let flag = {|"cached":true|} in
  let n = String.length flag in
  let rec find i =
    if i + n > String.length line then line
    else if String.sub line i n = flag then
      String.sub line 0 i ^ {|"cached":false|}
      ^ String.sub line (i + n) (String.length line - i - n)
    else find (i + 1)
  in
  find 0

let fragment_lines =
  [
    {|{"id":1,"verb":"evaluate","params":{"code":"GC","length":8}}|};
    {|{"id":2,"verb":"evaluate","params":{"code":"GC","length":8},"exec":{"seed":4,"mc_samples":300}}|};
    {|{"id":3,"verb":"evaluate","params":{"code":"GC","length":8},"exec":{"seed":4,"mc_samples":300,"method":"antithetic"}}|};
    {|{"id":4,"verb":"yield","params":{"code":"GC","length":8},"exec":{"seed":4,"mc_samples":300}}|};
    {|{"id":5,"verb":"yield","params":{"code":"GC","length":8},"exec":{"seed":4,"mc_samples":300,"method":"antithetic"}}|};
    {|{"id":6,"verb":"sweep","params":{"radix":2,"wires":16}}|};
    {|{"id":7,"verb":"codes","params":{"code":"HC","length":6,"count":7}}|};
    {|{"id":8,"verb":"yield","params":{"code":"GC","length":8},"exec":{"seed":4,"mc_samples":300,"fault_plan":"seed=3;pool.chunk:delay=1ms:p=0.5"}}|};
  ]

(* Miss, hit and cache-off answers of every cached verb — the
   fault-plan bypass included — are the same bytes but for the cached
   flag. *)
let test_miss_hit_nocache_same_bytes () =
  let misses =
    List.map
      (fun line -> with_state @@ fun state -> Protocol.handle_line state line)
      fragment_lines
  in
  let hits =
    with_state @@ fun state ->
    List.iter (fun l -> ignore (Protocol.handle_line state l)) fragment_lines;
    List.map (Protocol.handle_line state) fragment_lines
  in
  let nocache =
    with_state ~cache_enabled:false @@ fun state ->
    List.map (Protocol.handle_line state) fragment_lines
  in
  List.iteri
    (fun i line ->
      let miss = List.nth misses i in
      Alcotest.(check bool) ("a fresh state misses: " ^ line) false
        (bool_member "cached" (parse_response miss));
      Alcotest.(check string) ("hit ≡ miss: " ^ line) miss
        (uncached (List.nth hits i));
      Alcotest.(check string) ("no-cache ≡ miss: " ^ line) miss
        (List.nth nocache i))
    fragment_lines;
  Alcotest.(check (list bool)) "the repeats were hits, but for the bypass"
    [ true; true; true; true; true; true; true; false ]
    (List.map (fun r -> bool_member "cached" (parse_response r)) hits)

(* The mc object of evaluate + mc_samples is the mc object of yield for
   the same (config, seed, samples), method tag included, and dropping
   it gives the plain evaluate bytes. *)
let test_evaluate_mc_splice () =
  with_state @@ fun state ->
  let result i = expect_ok (ask state (List.nth fragment_lines i)) in
  let plain = result 0 in
  List.iter
    (fun (eval_i, yield_i) ->
      let eval = result eval_i and yld = result yield_i in
      Alcotest.(check string)
        (Printf.sprintf "evaluate %d mc ≡ yield %d mc" eval_i yield_i)
        (Json.to_string (member "mc" yld))
        (Json.to_string (member "mc" eval));
      match eval with
      | Json.Obj fields ->
        Alcotest.(check string) "evaluate without mc ≡ plain evaluate"
          (Json.to_string plain)
          (Json.to_string (Json.Obj (List.remove_assoc "mc" fields)))
      | _ -> Alcotest.fail "evaluate result is not an object")
    [ (1, 3); (2, 4) ];
  Alcotest.(check string) "method tag"
    "antithetic"
    (string_member "method" (member "mc" (result 2)))

(* --- sockets --- *)

let serve_in_thread ?max_line_bytes ?max_inflight ?max_queue ?idle_timeout_s
    ?cache_file ?snapshot_interval_s ?sink ?fault ?(domains = 2) ?cache_enabled
    address k =
  Run_ctx.with_ctx ?telemetry:sink ?fault ~domains @@ fun ctx ->
  let state = Protocol.make_state ?cache_enabled ~base:ctx () in
  let server =
    Server.create ?max_line_bytes ?max_inflight ?max_queue ?idle_timeout_s
      ?cache_file ?snapshot_interval_s ~state address
  in
  let thread = Thread.create Server.serve server in
  Fun.protect
    ~finally:(fun () ->
      (* Belt and braces: if the test failed before shutting down. *)
      Server.close server;
      Thread.join thread)
    (fun () -> k (Server.address server))

(* One daemon lifetime, joined to completion: create, run one client
   session, shut down over the wire and wait for the graceful drain to
   finish — so anything the drain promises (the final cache snapshot
   in particular) is on disk before this returns. *)
let daemon_session ?cache_file ?snapshot_interval_s ?(domains = 2) k =
  Run_ctx.with_ctx ~domains @@ fun ctx ->
  let state = Protocol.make_state ~base:ctx () in
  let server = Server.create ?cache_file ?snapshot_interval_s ~state (`Tcp 0) in
  let thread = Thread.create Server.serve server in
  match
    Client.with_connection (Server.address server) @@ fun conn ->
    let result = k conn in
    ignore (Client.request conn {|{"verb":"shutdown"}|});
    result
  with
  | result ->
    Thread.join thread;
    result
  | exception exn ->
    Server.close server;
    Thread.join thread;
    raise exn

let tmp_socket_path () =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "nanodec-test-%d.sock" (Unix.getpid ()))

let test_unix_socket_end_to_end () =
  let path = tmp_socket_path () in
  serve_in_thread (`Unix path) @@ fun address ->
  Client.with_connection address @@ fun conn ->
  let ping = parse_response (Client.request conn {|{"verb":"ping"}|}) in
  Alcotest.(check bool) "pong over the socket" true
    (bool_member "pong" (expect_ok ping));
  let eval =
    parse_response
      (Client.request conn {|{"verb":"evaluate","params":{"length":8}}|})
  in
  ignore (expect_ok eval);
  let bye = parse_response (Client.request conn {|{"verb":"shutdown"}|}) in
  Alcotest.(check bool) "shutdown acknowledged" true
    (bool_member "stopping" (expect_ok bye));
  (* The server loop exits and unlinks its socket. *)
  let rec wait n =
    if Sys.file_exists path && n > 0 then (Unix.sleepf 0.05; wait (n - 1))
  in
  wait 40;
  Alcotest.(check bool) "socket path unlinked" false (Sys.file_exists path)

let test_tcp_end_to_end () =
  serve_in_thread (`Tcp 0) @@ fun address ->
  (match address with
  | `Tcp port -> Alcotest.(check bool) "kernel picked a port" true (port > 0)
  | `Unix _ -> Alcotest.fail "expected a TCP address");
  Client.with_connection address @@ fun conn ->
  let ping = parse_response (Client.request conn {|{"verb":"ping"}|}) in
  Alcotest.(check bool) "pong over TCP" true (bool_member "pong" (expect_ok ping));
  ignore (Client.request conn {|{"verb":"shutdown"}|})

let test_shutdown_drains_pipelined_requests () =
  serve_in_thread (`Tcp 0) @@ fun address ->
  let conn = Client.connect address in
  (* Both lines land in one write: the ping is already buffered when
     the shutdown executes, so the drain must still answer it. *)
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (match address with
  | `Tcp port ->
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
  | `Unix path -> Unix.connect fd (Unix.ADDR_UNIX path));
  let payload = {|{"id":1,"verb":"shutdown"}|} ^ "\n" ^ {|{"id":2,"verb":"ping"}|} ^ "\n" in
  ignore (Unix.write_substring fd payload 0 (String.length payload));
  let ic = Unix.in_channel_of_descr fd in
  let l1 = parse_response (input_line ic) in
  let l2 = parse_response (input_line ic) in
  Alcotest.(check bool) "shutdown answered" true
    (bool_member "stopping" (expect_ok l1));
  Alcotest.(check bool) "pipelined ping drained" true
    (bool_member "pong" (expect_ok l2));
  Unix.close fd;
  Client.close conn

let test_oversized_line_resync () =
  serve_in_thread ~max_line_bytes:1024 (`Tcp 0) @@ fun address ->
  Client.with_connection address @@ fun conn ->
  let flood = String.make 5000 'x' in
  let r1 = parse_response (Client.request conn flood) in
  expect_error ~kind:"invalid-input" ~exit_code:2 r1;
  Alcotest.(check bool) "error names the limit" true
    (contains ~needle:"exceeds" (string_member "message" r1));
  let r2 = parse_response (Client.request conn {|{"verb":"ping"}|}) in
  Alcotest.(check bool) "connection resynchronised" true
    (bool_member "pong" (expect_ok r2));
  ignore (Client.request conn {|{"verb":"shutdown"}|})

let test_partial_line_eof_dropped () =
  serve_in_thread (`Tcp 0) @@ fun address ->
  (* First client sends half a request and hangs up. *)
  (Client.with_connection address @@ fun conn ->
   ignore conn);
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (match address with
  | `Tcp port ->
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
  | `Unix path -> Unix.connect fd (Unix.ADDR_UNIX path));
  let partial = {|{"verb":"pi|} in
  ignore (Unix.write_substring fd partial 0 (String.length partial));
  Unix.close fd;
  Unix.sleepf 0.1;
  (* Second client: the daemon is still alive and well. *)
  Client.with_connection address @@ fun conn ->
  let r = parse_response (Client.request conn {|{"verb":"ping"}|}) in
  Alcotest.(check bool) "daemon alive after partial-line EOF" true
    (bool_member "pong" (expect_ok r));
  ignore (Client.request conn {|{"verb":"shutdown"}|})

(* --- admission control --- *)

let raw_connect address =
  match address with
  | `Tcp port ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    fd
  | `Unix path ->
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    fd

(* One write far larger than a socket read: the lines straddle read
   boundaries, yet every one is answered, in arrival order, with the
   bytes a serial [handle_line] run gives.  Each line is unique, so no
   response depends on which worker reached the cache first.  A line
   sent afterwards in two short writes then lands in a read buffer
   still holding the big write's newlines; only the bytes actually
   read may count. *)
let test_pipelined_write_over_64k () =
  let pad = String.make 900 'p' in
  let lines =
    List.init 96 (fun i ->
        if i mod 8 = 0 then
          Printf.sprintf
            {|{"id":%d,"verb":"evaluate","params":{"code":"%s","length":%d},"pad":"%s"}|}
            i
            (if i mod 16 = 0 then "TC" else "BGC")
            (4 + (i / 16))
            pad
        else Printf.sprintf {|{"id":%d,"verb":"ping","pad":"%s"}|} i pad)
  in
  let payload = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
  Alcotest.(check bool) "payload exceeds one 64 KiB read" true
    (String.length payload > 65536);
  let split = ({|{"id":"split","verb":|}, {|"ping"}|}) in
  let serial, serial_split =
    with_state @@ fun state ->
    let serial = List.map (Protocol.handle_line state) lines in
    (serial, Protocol.handle_line state (fst split ^ snd split))
  in
  serve_in_thread ~max_queue:256 (`Tcp 0) @@ fun address ->
  let fd = raw_connect address in
  let writer =
    Thread.create
      (fun () -> ignore (Unix.write_substring fd payload 0 (String.length payload)))
      ()
  in
  let ic = Unix.in_channel_of_descr fd in
  let answered = List.map (fun _ -> input_line ic) lines in
  Thread.join writer;
  Alcotest.(check (list string)) "arrival order, serial bytes" serial answered;
  let send s = ignore (Unix.write_substring fd s 0 (String.length s)) in
  send (fst split);
  Thread.delay 0.05;
  send (snd split ^ "\n");
  Alcotest.(check string) "a line split over two reads" serial_split
    (input_line ic);
  Unix.close fd;
  Client.with_connection address @@ fun conn ->
  ignore (Client.request conn {|{"verb":"shutdown"}|})

(* A client that pipelines many large responses and reads nothing until
   it has written every line: the daemon buffers megabytes of replies,
   and they must come back whole, in order, as the serial bytes.  The
   cache is warmed first so every reply is a hit whichever worker runs
   it. *)
let test_pipelined_sweeps_read_late () =
  let params =
    List.init 8 (fun i ->
        Printf.sprintf {|"params":{"radix":2,"wires":%d}|} (12 + (2 * i)))
  in
  let warm = List.map (fun p -> Printf.sprintf {|{"verb":"sweep",%s}|} p) params in
  let lines =
    List.init 2000 (fun i ->
        Printf.sprintf {|{"id":%d,"verb":"sweep",%s}|} i
          (List.nth params (i mod 8)))
  in
  let serial =
    with_state @@ fun state ->
    List.iter (fun l -> ignore (Protocol.handle_line state l)) warm;
    List.map (Protocol.handle_line state) lines
  in
  serve_in_thread ~max_queue:2048 (`Tcp 0) @@ fun address ->
  (Client.with_connection address @@ fun conn ->
   List.iter (fun l -> ignore (Client.request conn l)) warm);
  let fd = raw_connect address in
  let payload = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
  let written = ref 0 in
  while !written < String.length payload do
    written :=
      !written
      + Unix.write_substring fd payload !written
          (String.length payload - !written)
  done;
  let ic = Unix.in_channel_of_descr fd in
  let answered = List.map (fun _ -> input_line ic) lines in
  Unix.close fd;
  Alcotest.(check bool) "megabytes were buffered" true
    (List.fold_left (fun n r -> n + String.length r) 0 answered > 1 lsl 20);
  Alcotest.(check (list string)) "arrival order, serial bytes" serial answered;
  Client.with_connection address @@ fun conn ->
  ignore (Client.request conn {|{"verb":"shutdown"}|})

let test_overload_sheds_deterministically () =
  (* Capacity max_inflight + max_queue = 2.  The injected stall parks
     the single worker on the first request for 400 ms, so of five
     lines landing in one write exactly two are admitted (one
     executing, one queued) and three are shed — no matter how the
     threads are scheduled, because admission counts submissions minus
     completions and nothing can complete while the worker stalls. *)
  let sink = Telemetry.create () in
  let fault = Fault.create (Fault.parse_exn "seed=1;serve.dispatch:stall=400ms:key=0") in
  serve_in_thread ~sink ~fault ~max_inflight:1 ~max_queue:1 (`Tcp 0)
  @@ fun address ->
  let fd = raw_connect address in
  let payload =
    String.concat ""
      (List.init 5 (fun i ->
           Printf.sprintf {|{"id":%d,"verb":"ping"}|} i ^ "\n"))
  in
  ignore (Unix.write_substring fd payload 0 (String.length payload));
  let ic = Unix.in_channel_of_descr fd in
  let responses = List.init 5 (fun _ -> parse_response (input_line ic)) in
  Unix.close fd;
  (* Responses come back in arrival order: the stalled ping, the queued
     ping, then the three rejects. *)
  List.iteri
    (fun i r ->
      Alcotest.(check int)
        (Printf.sprintf "response %d is for request %d" i i)
        i (int_member "id" r))
    (List.filteri (fun i _ -> i < 2) responses);
  List.iteri
    (fun i r ->
      if i < 2 then
        Alcotest.(check bool)
          (Printf.sprintf "request %d admitted" i)
          true
          (bool_member "pong" (expect_ok r))
      else begin
        expect_error ~kind:"overloaded" ~exit_code:6 r;
        Alcotest.(check bool)
          (Printf.sprintf "request %d names the limit" i)
          true
          (contains ~needle:"(limit 2)" (string_member "message" r))
      end)
    responses;
  (* The scheduler view and the telemetry counter agree with the wire:
     exactly three sheds. *)
  Client.with_connection address @@ fun conn ->
  let stats = parse_response (Client.request conn {|{"verb":"stats"}|}) in
  let serve = member "serve" (expect_ok stats) in
  Alcotest.(check int) "stats shed count" 3 (int_member "shed" serve);
  Alcotest.(check int) "stats max_inflight" 1 (int_member "max_inflight" serve);
  Alcotest.(check int) "stats max_queue" 1 (int_member "max_queue" serve);
  Alcotest.(check bool) "stats batch is null" true
    (member "batch" serve = Json.Null);
  Alcotest.(check (option int)) "serve.shed telemetry matches exactly"
    (Some 3)
    (List.assoc_opt "serve.shed" (Telemetry.counters sink));
  let bye = parse_response (Client.request conn {|{"verb":"shutdown"}|}) in
  let payload = expect_ok bye in
  Alcotest.(check int) "shutdown reports the shed split" 3
    (int_member "shed" payload);
  Alcotest.(check bool) "shutdown reports a drain count" true
    (int_member "draining" payload >= 0)

let test_dispatch_fault_classified () =
  (* An injected serve.dispatch crash (keyed by global arrival index,
     so exactly the second request) must come back as a classified
     worker-crash response and leave the daemon serving. *)
  let fault = Fault.create (Fault.parse_exn "seed=1;serve.dispatch:crash:key=1") in
  serve_in_thread ~fault (`Tcp 0) @@ fun address ->
  Client.with_connection address @@ fun conn ->
  let r0 = parse_response (Client.request conn {|{"verb":"ping"}|}) in
  Alcotest.(check bool) "first request clean" true
    (bool_member "pong" (expect_ok r0));
  let r1 = parse_response (Client.request conn {|{"verb":"ping"}|}) in
  expect_error ~kind:"worker-crash" ~exit_code:4 r1;
  Alcotest.(check bool) "error names the site" true
    (contains ~needle:"serve.dispatch" (string_member "message" r1));
  let r2 = parse_response (Client.request conn {|{"verb":"ping"}|}) in
  Alcotest.(check bool) "daemon survives the injected crash" true
    (bool_member "pong" (expect_ok r2));
  ignore (Client.request conn {|{"verb":"shutdown"}|})

(* --- answers on the select loop --- *)

let warm_line = {|{"id":"warm","verb":"evaluate","params":{"code":"TC","length":6}}|}

(* One worker, and every dispatch stalls it for 400 ms, so it is parked
   on a ping: a cached evaluate on another connection is answered on the
   select loop without waiting for it, while a cold one queues behind
   the ping. *)
let test_warm_hit_skips_parked_worker () =
  let fault =
    Fault.create (Fault.parse_exn "seed=1;serve.dispatch:stall=400ms")
  in
  serve_in_thread ~fault ~max_inflight:1 (`Tcp 0) @@ fun address ->
  Client.with_connection address @@ fun conn ->
  ignore (expect_ok (parse_response (Client.request conn warm_line)));
  let parked = raw_connect address in
  let ping = {|{"verb":"ping"}|} ^ "\n" in
  let t_parked = Telemetry.monotonic_s () in
  ignore (Unix.write_substring parked ping 0 (String.length ping));
  Thread.delay 0.02;
  let timed line =
    let t0 = Telemetry.monotonic_s () in
    let r = parse_response (Client.request conn line) in
    (r, Telemetry.monotonic_s () -. t0)
  in
  let warm, warm_s = timed warm_line in
  Alcotest.(check bool) "warm hit served" true (bool_member "cached" warm);
  Alcotest.(check bool)
    (Printf.sprintf "warm hit within 200 ms of asking (took %.3f s)" warm_s)
    true (warm_s < 0.2);
  let cold, _ =
    timed {|{"verb":"evaluate","params":{"code":"TC","length":8}}|}
  in
  Alcotest.(check bool) "cold request computed" false (bool_member "cached" cold);
  let waited = Telemetry.monotonic_s () -. t_parked in
  Alcotest.(check bool)
    (Printf.sprintf "cold request waited for the parked worker (%.3f s)" waited)
    true (waited >= 0.38);
  let ic = Unix.in_channel_of_descr parked in
  Alcotest.(check bool) "parked ping answered" true
    (bool_member "pong" (expect_ok (parse_response (input_line ic))));
  Unix.close parked;
  ignore (Client.request conn {|{"verb":"shutdown"}|})

(* A miss holds back the hits pipelined behind it on its connection:
   they go to the workers and come back after it, as the serial bytes. *)
let test_pipelined_miss_then_hit () =
  let lines =
    [
      {|{"id":1,"verb":"evaluate","params":{"code":"BGC","length":8},"exec":{"seed":5,"mc_samples":2000}}|};
      {|{"id":2,"verb":"evaluate","params":{"code":"TC","length":6}}|};
      {|{"id":3,"verb":"codes","params":{"code":"GC","length":6,"count":8}}|};
      {|{"id":4,"verb":"evaluate","params":{"code":"TC","length":6}}|};
    ]
  in
  let warm = [ warm_line; List.nth lines 2 ] in
  let serial =
    with_state @@ fun state ->
    List.iter (fun l -> ignore (Protocol.handle_line state l)) warm;
    List.map (Protocol.handle_line state) lines
  in
  serve_in_thread (`Tcp 0) @@ fun address ->
  (Client.with_connection address @@ fun conn ->
   List.iter (fun l -> ignore (Client.request conn l)) warm);
  let fd = raw_connect address in
  let payload = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
  ignore (Unix.write_substring fd payload 0 (String.length payload));
  let ic = Unix.in_channel_of_descr fd in
  let answered = List.map (fun _ -> input_line ic) lines in
  Unix.close fd;
  Alcotest.(check (list string)) "arrival order, serial bytes" serial answered;
  Client.with_connection address @@ fun conn ->
  ignore (Client.request conn {|{"verb":"shutdown"}|})

(* Every arrival key below names a worker crash at [serve.dispatch], so
   a request comes back ok only if the select loop answered it: the
   cached hit (key 1) and nothing else. *)
let test_only_plain_cache_reads_inline () =
  let fault =
    Fault.create
      (Fault.parse_exn
         (String.concat ";"
            ("seed=1"
            :: List.init 5 (fun i ->
                   Printf.sprintf "serve.dispatch:crash:key=%d" (i + 1)))))
  in
  serve_in_thread ~fault (`Tcp 0) @@ fun address ->
  Client.with_connection address @@ fun conn ->
  let ask line = parse_response (Client.request conn line) in
  ignore (expect_ok (ask warm_line));
  let hit = ask warm_line in
  ignore (expect_ok hit);
  Alcotest.(check bool) "a plain hit is answered inline" true
    (bool_member "cached" hit);
  List.iter
    (fun (what, line) ->
      let r = ask line in
      expect_error ~kind:"worker-crash" ~exit_code:4 r;
      Alcotest.(check bool) (what ^ " went to a worker") true
        (contains ~needle:"serve.dispatch" (string_member "message" r)))
    [
      ( "a fault plan",
        {|{"verb":"evaluate","params":{"code":"TC","length":6},"exec":{"fault_plan":"seed=1;pool.chunk:delay=1ms:p=0"}}|}
      );
      ( "no_degrade",
        {|{"verb":"evaluate","params":{"code":"TC","length":6},"exec":{"no_degrade":true}}|}
      );
      ("ping", {|{"verb":"ping"}|});
      ("stats", {|{"verb":"stats"}|});
    ];
  ignore (Client.request conn {|{"verb":"shutdown"}|})

(* Hits, misses, evictions, partial hits and invalid parameters, sent
   one line at a time so the select loop attempts each, leave the cache
   exactly as a serial [handle_line] run does.  Capacity 1 makes the
   eviction order independent of measured build costs; at 256 nothing
   is evicted and the keys are compared as a set, since their order
   depends on build costs that differ between runs. *)
let inline_battery =
  let mc = {|"exec":{"seed":3,"mc_samples":40}|} in
  let eval = {|"verb":"evaluate","params":{"code":"TC","length":4,"wires":8}|} in
  [
    {|{"verb":"codes","params":{"code":"GC","length":4,"count":4}}|};
    {|{"verb":"codes","params":{"code":"GC","length":4,"count":4}}|};
    "{" ^ eval ^ "}";
    "{" ^ eval ^ "}";
    "{" ^ eval ^ "," ^ mc ^ "}";
    "{" ^ eval ^ "," ^ mc ^ "}";
    "{" ^ eval ^ "}";
    {|{"verb":"yield","params":{"code":"TC","length":4,"wires":8},|} ^ mc ^ "}";
    {|{"verb":"yield","params":{"code":"TC","length":4,"wires":8},|} ^ mc ^ "}";
    {|{"verb":"evaluate","params":{"code":"TC","length":4,"wires":8},"exec":{"seed":3,"mc_samples":40,"timeout":60}}|};
    {|{"verb":"codes","params":{"code":"GC","length":99}}|};
    {|{"verb":"evaluate","exec":{"seed":-1}}|};
    {|{"verb":"ping"}|};
    {|{"verb":"sweep","params":{"wires":8}}|};
    {|{"verb":"sweep","params":{"wires":8}}|};
    {|{"verb":"codes","params":{"code":"GC","length":4,"count":4}}|};
    {|{"verb":"codes","params":{"code":"GC","length":4,"count":4}}|};
  ]

(* The [stats] fields that count, without the measured seconds. *)
let stats_counts response =
  let r = expect_ok (parse_response response) in
  let cache = member "cache" r in
  ( [ int_member "requests" r; int_member "errors" r ],
    List.map
      (fun f -> int_member f cache)
      [ "capacity"; "entries"; "hits"; "misses"; "evictions" ] )

let test_inline_leaves_no_trace () =
  let stats_line = {|{"verb":"stats"}|} in
  List.iter
    (fun capacity ->
      let order keys = if capacity = 1 then keys else List.sort compare keys in
      let serial_stats, serial_keys =
        Run_ctx.with_ctx ~domains:2 @@ fun ctx ->
        let state = Protocol.make_state ~cache_capacity:capacity ~base:ctx () in
        List.iter (fun l -> ignore (Protocol.handle_line state l)) inline_battery;
        ( stats_counts (Protocol.handle_line state stats_line),
          order (Artifact_cache.keys (Protocol.artifacts state)) )
      in
      let sink = Telemetry.create () in
      Run_ctx.with_ctx ~telemetry:sink ~domains:2 @@ fun ctx ->
      let state = Protocol.make_state ~cache_capacity:capacity ~base:ctx () in
      let server = Server.create ~state (`Tcp 0) in
      let thread = Thread.create Server.serve server in
      let daemon_stats =
        Fun.protect
          ~finally:(fun () ->
            Server.close server;
            Thread.join thread)
          (fun () ->
            Client.with_connection (Server.address server) @@ fun conn ->
            List.iter (fun l -> ignore (Client.request conn l)) inline_battery;
            stats_counts (Client.request conn stats_line))
      in
      let label = Printf.sprintf "capacity %d: " capacity in
      Alcotest.(check (pair (list int) (list int)))
        (label ^ "stats counts") serial_stats daemon_stats;
      Alcotest.(check (list string))
        (label ^ "cache keys") serial_keys
        (order (Artifact_cache.keys (Protocol.artifacts state)));
      Alcotest.(check (option int))
        (label ^ "serve.requests counts every answer")
        (Some (List.length inline_battery + 1))
        (List.assoc_opt "serve.requests" (Telemetry.counters sink)))
    [ 1; 256 ]

(* --- client deadlines & idle reaping --- *)

let test_client_timeout_on_wedged_daemon () =
  (* A listener that accepts and never answers: the pre-hardening
     client would block forever; with a deadline it must raise the
     taxonomy Timeout (exit 3). *)
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen fd 1;
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Client.with_connection ~timeout_s:0.2 (`Tcp port) @@ fun conn ->
  match Client.request conn {|{"verb":"ping"}|} with
  | (_ : string) -> Alcotest.fail "expected the client deadline to fire"
  | exception E.Error (E.Timeout { site; seconds } as err) ->
    Alcotest.(check string) "timeout site" "client.read" site;
    Alcotest.(check (float 0.)) "timeout carries the deadline" 0.2 seconds;
    Alcotest.(check int) "timeout exit code" 3 (E.exit_code err)

let test_idle_and_slowloris_reaped () =
  serve_in_thread ~idle_timeout_s:0.2 (`Tcp 0) @@ fun address ->
  (* A silent connection and one drip-feeding half a line both get
     reaped once the deadline passes: the daemon closes them (read
     returns EOF) instead of holding the fd forever. *)
  let silent = raw_connect address in
  let drip = raw_connect address in
  let partial = {|{"verb":"pi|} in
  ignore (Unix.write_substring drip partial 0 (String.length partial));
  let eof fd what =
    let b = Bytes.create 16 in
    match Unix.read fd b 0 16 with
    | 0 -> ()
    | n -> Alcotest.failf "%s: expected EOF, got %d bytes" what n
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ()
  in
  eof silent "silent connection";
  eof drip "slow-read connection";
  Unix.close silent;
  Unix.close drip;
  (* An active client is untouched and the daemon still answers. *)
  Client.with_connection address @@ fun conn ->
  let r = parse_response (Client.request conn {|{"verb":"ping"}|}) in
  Alcotest.(check bool) "daemon alive after reaping idlers" true
    (bool_member "pong" (expect_ok r));
  ignore (Client.request conn {|{"verb":"shutdown"}|})

(* --- crash-safe cache persistence --- *)

let persist_line =
  {|{"verb":"yield","params":{"code":"BGC","length":8},"exec":{"seed":31,"mc_samples":200}}|}

let with_cache_file k =
  let path = Filename.temp_file "nanodec-test-snap" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> k path)

(* One daemon lifetime answering [persist_line]; the graceful drain
   writes the snapshot before [daemon_session] returns. *)
let persist_once ~cache_file =
  daemon_session ~cache_file @@ fun conn ->
  parse_response (Client.request conn persist_line)

let test_snapshot_survives_restart () =
  with_cache_file @@ fun cache_file ->
  let cold = persist_once ~cache_file in
  Alcotest.(check bool) "first daemon computes cold" false
    (bool_member "cached" cold);
  let warm = persist_once ~cache_file in
  Alcotest.(check bool) "restarted daemon serves from the snapshot" true
    (bool_member "cached" warm);
  Alcotest.(check string) "warm result ≡ pre-restart bytes"
    (Json.to_string (member "result" cold))
    (Json.to_string (member "result" warm))

let test_corrupt_snapshot_starts_cold () =
  (* Truncation, bit flips and zero fill: every mutilation must cost
     exactly the warm cache — the daemon starts cold, answers the same
     bytes, and never crashes. *)
  let corruptions =
    [
      ("truncated", fun bytes -> String.sub bytes 0 (String.length bytes / 2));
      ( "bit-flipped",
        fun bytes ->
          let b = Bytes.of_string bytes in
          let i = Bytes.length b / 2 in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
          Bytes.to_string b );
      ("zero-filled", fun bytes -> String.make (String.length bytes) '\000');
    ]
  in
  with_cache_file @@ fun cache_file ->
  let reference = persist_once ~cache_file in
  let reference_result = Json.to_string (member "result" reference) in
  List.iter
    (fun (what, mutilate) ->
      (* Re-seed a valid snapshot, then mutilate it. *)
      ignore (persist_once ~cache_file);
      let ic = open_in_bin cache_file in
      let bytes = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let oc = open_out_bin cache_file in
      output_string oc (mutilate bytes);
      close_out oc;
      let r = persist_once ~cache_file in
      Alcotest.(check bool) (what ^ ": daemon starts cold") false
        (bool_member "cached" r);
      Alcotest.(check string) (what ^ ": cold recompute ≡ reference bytes")
        reference_result
        (Json.to_string (member "result" r)))
    corruptions

(* The pre-fragment snapshot format: magic v1, a schema line pinned to
   the OCaml version, and records whose payload is [Marshal] output of
   (cost, value) under a CRC-32 of key and payload. *)
let v1_snapshot entries =
  let crc32 s =
    let crc = ref 0xFFFFFFFF in
    String.iter
      (fun ch ->
        crc := !crc lxor Char.code ch;
        for _ = 0 to 7 do
          crc :=
            if !crc land 1 = 1 then 0xEDB88320 lxor (!crc lsr 1)
            else !crc lsr 1
        done)
      s;
    lnot !crc land 0xFFFFFFFF
  in
  let b = Buffer.create 256 in
  let u32 n = Buffer.add_int32_le b (Int32.of_int n) in
  Buffer.add_string b "nanodec-snapshot v1\n";
  Buffer.add_string b ("nanodec-artifacts-v1|ocaml-" ^ Sys.ocaml_version ^ "\n");
  u32 (List.length entries);
  List.iter
    (fun (key, payload) ->
      u32 (String.length key);
      Buffer.add_string b key;
      u32 (String.length payload);
      Buffer.add_string b payload;
      u32 (crc32 (key ^ payload)))
    entries;
  Buffer.contents b

(* Snapshots from before the fragment format, and snapshots whose
   records are not fragments, cost the warm cache and nothing else: the
   daemon starts cold, answers the reference bytes, and its next
   snapshot is a good one. *)
let test_stale_snapshot_starts_cold () =
  with_cache_file @@ fun cache_file ->
  let reference = Json.to_string (persist_once ~cache_file) in
  let estimate_key =
    match Snapshot.load ~path:cache_file ~schema:Artifacts.snapshot_schema with
    | Ok [ (key, _, _) ] -> key
    | Ok entries ->
      Alcotest.failf "expected one persisted fragment, got %d"
        (List.length entries)
    | Error msg -> Alcotest.failf "fresh snapshot unreadable: %s" msg
  in
  let write bytes =
    Out_channel.with_open_bin cache_file (fun oc -> output_string oc bytes)
  in
  let save entries =
    match Snapshot.save ~path:cache_file ~schema:Artifacts.snapshot_schema entries with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "save failed: %s" msg
  in
  List.iter
    (fun (what, seed_file) ->
      seed_file ();
      let cold = persist_once ~cache_file in
      Alcotest.(check bool) (what ^ ": daemon starts cold") false
        (bool_member "cached" cold);
      Alcotest.(check string) (what ^ ": cold recompute ≡ reference bytes")
        reference
        (uncached (Json.to_string cold));
      Alcotest.(check bool) (what ^ ": the next start is warm") true
        (bool_member "cached" (persist_once ~cache_file)))
    [
      ( "v1 snapshot",
        fun () ->
          write
            (v1_snapshot
               [ (estimate_key, Marshal.to_string (0.5, [| 1.; 2. |]) []) ]) );
      ( "intermediate kind",
        fun () -> save [ ("analysis|" ^ estimate_key, 0.5, {|{"a":1}|}) ] );
      ( "non-JSON payload",
        fun () -> save [ (estimate_key, 0.5, Marshal.to_string 0.5 []) ] );
    ]

(* --- the 8-client soak ---

   Every client sends the same request list; the daemon executes
   serially, so after a warmup pass primes the cache every response is
   a hit and must be byte-identical across clients — and across domain
   counts, by the Monte-Carlo determinism contract. *)

let soak_requests =
  List.map
    (fun seed ->
      Printf.sprintf
        {|{"verb":"yield","params":{"code":"BGC","length":8},"exec":{"seed":%d,"mc_samples":200}}|}
        seed)
    [ 1; 2; 3; 4 ]
  @ [
      (* An active fault plan bypasses the result cache, so all eight
         clients execute this concurrently on the shared pool.  Injected
         delays are byte-neutral by the transparency contract but
         scramble chunk completion timing — the hardest regime for the
         server's arrival-order response writer, which must keep the
         concurrency invisible on the wire regardless. *)
      {|{"verb":"yield","params":{"code":"BGC","length":8},"exec":{"seed":5,"mc_samples":200,"fault_plan":"seed=2009;pool.chunk:delay=2ms:p=0.5;mc.sample_batch:delay=1ms:p=0.3"}}|};
    ]

let run_soak ?fault ?cache_enabled ?(warmup = true) ~clients ~domains () =
  serve_in_thread ?fault ?cache_enabled ~domains (`Tcp 0)
  @@ fun address ->
  (* Warmup: prime the cache so the soak responses all carry
     cached=true and are therefore byte-comparable.  Skipped for the
     cache-disabled soaks, where every response is a fresh build and
     byte-comparable by the determinism contract alone. *)
  if warmup then
    Client.with_connection address (fun conn ->
        List.iter (fun line -> ignore (Client.request conn line)) soak_requests);
  let results = Array.make clients [] in
  let clients =
    List.init clients (fun i ->
        Thread.create
          (fun () ->
            Client.with_connection address @@ fun conn ->
            results.(i) <-
              List.map (fun line -> Client.request conn line) soak_requests)
          ())
  in
  List.iter Thread.join clients;
  (Client.with_connection address @@ fun conn ->
   ignore (Client.request conn {|{"verb":"shutdown"}|}));
  Array.to_list results

let test_concurrent_soak_deterministic () =
  let soak1 = run_soak ~clients:8 ~domains:1 () in
  let soak4 = run_soak ~clients:8 ~domains:4 () in
  let reference = List.hd soak1 in
  List.iteri
    (fun i responses ->
      Alcotest.(check (list string))
        (Printf.sprintf "domains=1 client %d matches client 0" i)
        reference responses)
    soak1;
  List.iteri
    (fun i responses ->
      Alcotest.(check (list string))
        (Printf.sprintf "domains=4 client %d matches the domains=1 bytes" i)
        reference responses)
    soak4

(* With the result cache disabled every request is a fresh cold build
   — concurrent duplicates included, since a disabled cache has no
   single-flight — and the bytes still cannot move across domain
   counts. *)
let test_uncached_soak_identical () =
  let reference =
    List.hd (run_soak ~cache_enabled:false ~warmup:false ~clients:8 ~domains:1 ())
  in
  List.iteri
    (fun i responses ->
      Alcotest.(check (list string))
        (Printf.sprintf "uncached client %d at domains=4 = domains=1 bytes" i)
        reference responses)
    (run_soak ~cache_enabled:false ~warmup:false ~clients:8 ~domains:4 ())

(* Daemon-wide fault plans (dispatch delays, Monte-Carlo chunk delays)
   scramble completion order under concurrent cold load; responses
   must not move a byte. *)
let test_soak_under_fault_identical () =
  let reference =
    List.hd (run_soak ~cache_enabled:false ~warmup:false ~clients:1 ~domains:1 ())
  in
  List.iter
    (fun plan ->
      let fault = Fault.create (Fault.parse_exn plan) in
      List.iteri
        (fun i responses ->
          Alcotest.(check (list string))
            (Printf.sprintf "client %d under %s = fault-free bytes" i plan)
            reference responses)
        (run_soak ~fault ~cache_enabled:false ~warmup:false ~clients:4
           ~domains:4 ()))
    [
      "seed=3;serve.dispatch:delay=1ms:p=1";
      "seed=4;pool.chunk:delay=1ms:p=0.5;mc.sample_batch:delay=1ms:p=0.2";
    ]

let suite =
  [
    Alcotest.test_case "ping round trip" `Quick test_ping;
    Alcotest.test_case "evaluate matches Design.evaluate" `Quick
      test_evaluate_matches_direct;
    Alcotest.test_case "evaluate mc matches the direct estimate" `Quick
      test_evaluate_mc_matches_direct;
    Alcotest.test_case "cached flag, hit ≡ cold bytes" `Quick
      test_cached_flag_and_identical_result;
    Alcotest.test_case "yield defaults" `Quick test_yield_defaults;
    Alcotest.test_case "per-request seed isolation" `Quick test_seed_isolation;
    Alcotest.test_case "daemon = standalone sequential run" `Quick
      test_matches_standalone_sequential_run;
    Alcotest.test_case "codes round trip" `Quick test_codes_round_trip;
    Alcotest.test_case "sweep round trip" `Quick test_sweep_round_trip;
    Alcotest.test_case "check verb" `Quick test_check_verb;
    Alcotest.test_case "stats counters" `Quick test_stats_counts;
    Alcotest.test_case "stats reports evicted build cost" `Quick
      test_stats_evicted_cost;
    Alcotest.test_case "concurrent duplicates build each artifact once"
      `Quick test_concurrent_duplicates_build_once;
    Alcotest.test_case "shutdown flag" `Quick test_shutdown_flag;
    Alcotest.test_case "unknown verb" `Quick test_unknown_verb;
    Alcotest.test_case "JSON renders integral floats as integers" `Quick
      test_json_float_rendering;
    Alcotest.test_case "malformed JSON leaves the daemon alive" `Quick
      test_malformed_json_then_alive;
    Alcotest.test_case "non-object requests rejected" `Quick
      test_non_object_request;
    Alcotest.test_case "invalid numerics rejected uniformly" `Quick
      test_invalid_numerics;
    Alcotest.test_case "protocol fuzz battery" `Quick test_fuzz_battery;
    Alcotest.test_case "timeout maps to kind=timeout" `Quick
      test_timeout_mapping;
    Alcotest.test_case "deadline requests share the result cache" `Quick
      test_deadline_shares_the_cache;
    Alcotest.test_case "no-degrade maps to kind=degraded" `Quick
      test_no_degrade_mapping;
    Alcotest.test_case "miss, hit and no-cache answers are the same bytes"
      `Quick test_miss_hit_nocache_same_bytes;
    Alcotest.test_case "evaluate's mc splice ≡ yield's mc" `Quick
      test_evaluate_mc_splice;
    Alcotest.test_case "unix socket end to end" `Quick
      test_unix_socket_end_to_end;
    Alcotest.test_case "tcp end to end" `Quick test_tcp_end_to_end;
    Alcotest.test_case "shutdown drains pipelined requests" `Quick
      test_shutdown_drains_pipelined_requests;
    Alcotest.test_case "oversized line resync" `Quick
      test_oversized_line_resync;
    Alcotest.test_case "partial line at EOF dropped" `Quick
      test_partial_line_eof_dropped;
    Alcotest.test_case "pipelined write over 64 KiB, serial bytes" `Quick
      test_pipelined_write_over_64k;
    Alcotest.test_case "2,000 pipelined sweeps read late, serial bytes"
      `Quick test_pipelined_sweeps_read_late;
    Alcotest.test_case "overload sheds deterministically" `Quick
      test_overload_sheds_deterministically;
    Alcotest.test_case "a warm hit skips the parked worker" `Quick
      test_warm_hit_skips_parked_worker;
    Alcotest.test_case "pipelined miss then hit, serial bytes" `Quick
      test_pipelined_miss_then_hit;
    Alcotest.test_case "only plain cache reads are answered inline" `Quick
      test_only_plain_cache_reads_inline;
    Alcotest.test_case "inline attempts leave no trace in the cache" `Quick
      test_inline_leaves_no_trace;
    Alcotest.test_case "serve.dispatch fault classified, daemon survives"
      `Quick test_dispatch_fault_classified;
    Alcotest.test_case "client deadline on a wedged daemon" `Quick
      test_client_timeout_on_wedged_daemon;
    Alcotest.test_case "idle and slow-read connections reaped" `Quick
      test_idle_and_slowloris_reaped;
    Alcotest.test_case "snapshot survives a restart" `Quick
      test_snapshot_survives_restart;
    Alcotest.test_case "corrupt snapshot starts cold, never crashes" `Quick
      test_corrupt_snapshot_starts_cold;
    Alcotest.test_case "stale or non-fragment snapshot starts cold" `Quick
      test_stale_snapshot_starts_cold;
    Alcotest.test_case "8-client soak, domains 1 = domains 4" `Quick
      test_concurrent_soak_deterministic;
    Alcotest.test_case "uncached soak, domains 4 = domains 1" `Quick
      test_uncached_soak_identical;
    Alcotest.test_case "soak under fault plans = fault-free bytes" `Quick
      test_soak_under_fault_identical;
  ]
