open Nanodec_codes
open Nanodec_numerics
open Nanodec_crossbar
open Nanodec
module E = Nanodec_error
module Run_ctx = Nanodec_parallel.Run_ctx
module Fault = Nanodec_fault.Fault

(* A live view of the server's dispatch queue and snapshot clock,
   installed by the concurrent server so the [stats] and [shutdown]
   verbs can report scheduling state.  [None] (direct [handle_line]
   callers: tests, a hypothetical inline runner) reports zeros. *)
type scheduler = {
  max_inflight : int;
  max_queue : int;
  inflight : int;
  queued : int;
  shed : int;
  snapshot_age_s : float option;
}

type state = {
  artifacts : Artifacts.t;
  base : Run_ctx.t;
  (* Requests execute on worker threads, so the counters and the
     stopping latch are atomics rather than plain mutable fields. *)
  requests : int Atomic.t;
  errors : int Atomic.t;
  stopping : bool Atomic.t;
  mutable scheduler_probe : (unit -> scheduler) option;
}

let make_state ?(cache_enabled = true) ?(cache_capacity = 256) ~base () =
  {
    artifacts = Artifacts.create ~enabled:cache_enabled ~capacity:cache_capacity ();
    base;
    requests = Atomic.make 0;
    errors = Atomic.make 0;
    stopping = Atomic.make false;
    scheduler_probe = None;
  }

let artifacts state = state.artifacts
let base state = state.base
let requests state = Atomic.get state.requests
let errors state = Atomic.get state.errors
let stopping state = Atomic.get state.stopping
let set_scheduler_probe state probe = state.scheduler_probe <- probe

let scheduler_view state =
  match state.scheduler_probe with
  | Some probe -> probe ()
  | None ->
    {
      max_inflight = 1;
      max_queue = 0;
      inflight = 1;
      queued = 0;
      shed = 0;
      snapshot_age_s = None;
    }

let known_verbs =
  [ "ping"; "evaluate"; "yield"; "sweep"; "codes"; "check"; "stats"; "shutdown" ]

(* --- request field access ---

   Every accessor is total and fails as [Invalid_input] naming the
   field, so the fuzz battery's bad values (floats where ints belong,
   negative seeds, zero sample counts) all map to the same JSON error
   kind the CLI maps them to on exit code 2. *)

let obj_field json name = Json.member name json

let int_field json name =
  match obj_field json name with
  | None | Some Json.Null -> None
  | Some v -> (
    match Json.to_int_opt v with
    | Some i -> Some i
    | None ->
      E.invalid_inputf ~hint:(Printf.sprintf "got %s" (Json.to_string v))
        "field %S must be an integer" name)

let float_field json name =
  match obj_field json name with
  | None | Some Json.Null -> None
  | Some v -> (
    match Json.to_float_opt v with
    | Some f -> Some f
    | None ->
      E.invalid_inputf ~hint:(Printf.sprintf "got %s" (Json.to_string v))
        "field %S must be a number" name)

let string_field json name =
  match obj_field json name with
  | None | Some Json.Null -> None
  | Some v -> (
    match Json.to_string_opt v with
    | Some s -> Some s
    | None ->
      E.invalid_inputf ~hint:(Printf.sprintf "got %s" (Json.to_string v))
        "field %S must be a string" name)

let bool_field json name =
  match obj_field json name with
  | None | Some Json.Null -> None
  | Some v -> (
    match Json.to_bool_opt v with
    | Some b -> Some b
    | None ->
      E.invalid_inputf ~hint:(Printf.sprintf "got %s" (Json.to_string v))
        "field %S must be a boolean" name)

(* --- the execution knobs of one request --- *)

type exec = {
  seed : int option;
  mc_samples : int option;
  timeout_s : float option;
  fault : Fault.t option;
  no_degrade : bool;
  chunking : Run_ctx.chunking option;
  mc_method : Run_ctx.mc_method option;
  rel_error : float option;
}

let no_exec =
  {
    seed = None;
    mc_samples = None;
    timeout_s = None;
    fault = None;
    no_degrade = false;
    chunking = None;
    mc_method = None;
    rel_error = None;
  }

let exec_of_json json =
  match obj_field json "exec" with
  | None | Some Json.Null -> no_exec
  | Some (Json.Obj _ as e) ->
    let seed = int_field e "seed" in
    Option.iter (E.check_seed ~what:"seed") seed;
    let mc_samples = int_field e "mc_samples" in
    Option.iter (E.check_mc_samples ~what:"mc_samples") mc_samples;
    let timeout_s = float_field e "timeout" in
    Option.iter (E.check_timeout_s ~what:"timeout") timeout_s;
    let fault =
      match string_field e "fault_plan" with
      | None -> None
      | Some spec -> Some (Fault.create (Fault.parse_exn spec))
    in
    let no_degrade = Option.value (bool_field e "no_degrade") ~default:false in
    (* Same grammar and bounds as the CLI's --chunks, --mc-method and
       --rel-error, through the same shared parsers and validators, so
       both surfaces reject bad values identically. *)
    let chunking =
      Option.map (Run_ctx.parse_chunking ~what:"chunks")
        (match obj_field e "chunks" with
        | None | Some Json.Null -> None
        | Some (Json.Int n) -> Some (string_of_int n)
        | Some (Json.String s) -> Some s
        | Some v ->
          E.invalid_inputf ~hint:(Printf.sprintf "got %s" (Json.to_string v))
            "field \"chunks\" must be 'auto' or a positive integer")
    in
    let mc_method =
      Option.map (Run_ctx.parse_mc_method ~what:"method")
        (string_field e "method")
    in
    let rel_error = float_field e "rel_error" in
    Option.iter (E.check_rel_error ~what:"rel_error") rel_error;
    {
      seed;
      mc_samples;
      timeout_s;
      fault;
      no_degrade;
      chunking;
      mc_method;
      rel_error;
    }
  | Some v ->
    E.invalid_inputf ~hint:(Printf.sprintf "got %s" (Json.to_string v))
      "field \"exec\" must be an object"

(* A request that injects faults or forbids degradation must actually
   execute: serving its pooled work from the result cache would skip
   the very failure semantics it asked for.  A deadline is no such
   semantics — a result computed inside it is the same bytes as a
   cached one — so deadline-bearing requests share the cache, and the
   deadline bounds only the work the request runs itself. *)
let bypasses_result_cache exec = exec.fault <> None || exec.no_degrade

(* A request's own fault plan is chaos on purpose, so its degradation
   stays off stderr; otherwise the daemon's degrade/warn policy holds. *)
let with_request_ctx state exec f =
  Run_ctx.with_request ~base:state.base ?seed:exec.seed
    ?mc_samples:exec.mc_samples ?timeout_s:exec.timeout_s ?fault:exec.fault
    ?chunking:exec.chunking ?mc_method:exec.mc_method ?rel_error:exec.rel_error
    ?degrade:(if exec.no_degrade then Some false else None)
    ?warn:(if exec.fault <> None then Some false else None)
    f

(* --- design parameters --- *)

let code_type_field json =
  match string_field json "code" with
  | None -> Codebook.Balanced_gray
  | Some s -> (
    match Codebook.of_name s with
    | Some ct -> ct
    | None ->
      E.invalid_inputf ~hint:"known families: TC, GC, BGC, HC, AHC"
        "unknown code type %S" s)

let params_of_json json =
  match obj_field json "params" with
  | None | Some Json.Null -> Json.Obj []
  | Some (Json.Obj _ as p) -> p
  | Some v ->
    E.invalid_inputf ~hint:(Printf.sprintf "got %s" (Json.to_string v))
      "field \"params\" must be an object"

let spec_of_params params =
  let field name ~default = Option.value (int_field params name) ~default in
  let code_type = code_type_field params in
  let code_length = field "length" ~default:10 in
  let radix = field "radix" ~default:2 in
  let n_wires = field "wires" ~default:20 in
  let raw_bits = field "raw_bits" ~default:(16 * 1024 * 8) in
  Design.checked_spec ~what:Fun.id ~code_type ~code_length ~radix ~n_wires
    ~raw_bits

(* --- response rendering ---

   Responses carry no wall-clock, pid or host fields: a response is a
   pure function of the request, which is what makes the CI smoke
   goldens and the concurrent-soak byte-equality test possible. *)

(* The ok envelope around a rendered [result] fragment: the same bytes
   [Json.to_string] gives for the whole object, without rendering the
   result again. *)
let ok_response ~id ~verb ~cached result =
  String.concat ""
    [
      {|{"id":|};
      Json.to_string id;
      {|,"status":"ok","verb":|};
      Json.to_string (Json.String verb);
      {|,"cached":|};
      (if cached then "true" else "false");
      {|,"result":|};
      result;
      "}";
    ]

let error_response ~id err =
  Json.Obj
    [
      ("id", id);
      ("status", Json.String "error");
      ("kind", Json.String (E.label err));
      ("exit_code", Json.Int (E.exit_code err));
      ( "message",
        Json.String
          (match err with
          | E.Invalid_input { what; _ } -> what
          | E.Timeout { site; seconds } ->
            Printf.sprintf "%s timed out after %gs" site seconds
          | E.Worker_crash { site; detail; injected } ->
            Printf.sprintf "%s crashed%s: %s" site
              (if injected then " (injected)" else "")
              detail
          | E.Degraded { site; reason } ->
            Printf.sprintf "%s refused to degrade: %s" site reason
          | E.Overloaded { site; pending; limit } ->
            Printf.sprintf "%s shed the request: %d pending (limit %d)"
              site pending limit
          | E.Internal { detail } -> detail) );
      ( "hint",
        match err with
        | E.Invalid_input { hint = Some h; _ } -> Json.String h
        | _ -> Json.Null );
    ]

(* --- verbs --- *)

(* The request's sampling spec, built from the derived context exactly
   as a standalone CLI run would build it.  [Some spec] also flags the
   response to carry the method tag — only for requests that opted in,
   keeping legacy responses golden-stable. *)
let request_spec exec ~ctx ~samples =
  if exec.mc_method = None && exec.rel_error = None then None
  else Some (Montecarlo.spec_of_ctx ~ctx ~samples ())

let run_estimate state ~exec ~ctx ~samples config =
  let seed = Run_ctx.seed ctx in
  let spec = request_spec exec ~ctx ~samples in
  if bypasses_result_cache exec then
    ( Artifacts.build_estimate state.artifacts ~ctx ~seed ~samples ?spec config,
      false )
  else Artifacts.estimate state.artifacts ~ctx ~seed ~samples ?spec config

(* The report object with an ["mc"] field appended: the report
   fragment up to its closing brace, then the estimate fragment. *)
let run_evaluate state ~exec params =
  let spec = spec_of_params params in
  let report, report_hit = Artifacts.report state.artifacts spec in
  match exec.mc_samples with
  | None -> (report, report_hit)
  | Some samples ->
    with_request_ctx state exec @@ fun ctx ->
    let estimate, est_hit =
      run_estimate state ~exec ~ctx ~samples spec.Design.cave
    in
    ( String.concat ""
        [
          String.sub report 0 (String.length report - 1);
          {|,"mc":|};
          estimate;
          "}";
        ],
      report_hit && est_hit )

let run_yield state ~exec params =
  let spec = spec_of_params params in
  let samples = Option.value exec.mc_samples ~default:1000 in
  with_request_ctx state exec @@ fun ctx ->
  let config = spec.Design.cave in
  let analysis, _ = Artifacts.analysis state.artifacts config in
  let estimate, est_hit = run_estimate state ~exec ~ctx ~samples config in
  ( String.concat ""
      [
        {|{"analytic_yield":|};
        Json.to_string (Json.Float analysis.Cave.yield);
        {|,"mc":|};
        estimate;
        "}";
      ],
    est_hit )

let run_sweep state params =
  Artifacts.sweep state.artifacts (spec_of_params params)

let run_codes state params =
  let code_type = code_type_field params in
  let code_length = Option.value (int_field params "length") ~default:10 in
  E.check_int_range ~what:"length" ~min:1 ~max:64 code_length;
  let radix = Option.value (int_field params "radix") ~default:2 in
  E.check_int_range ~what:"radix" ~min:2 ~max:16 radix;
  let count = Option.value (int_field params "count") ~default:16 in
  E.check_int_range ~what:"count" ~min:1 ~max:1_000_000 count;
  (match Codebook.validate_length ~radix ~length:code_length code_type with
  | Ok () -> ()
  | Error msg -> E.fail (E.Invalid_input { what = msg; hint = None }));
  Artifacts.words state.artifacts ~radix ~length:code_length ~count code_type

let run_check params =
  let open Nanodec_proptest in
  let seed = int_field params "seed" in
  Option.iter (E.check_seed ~what:"seed") seed;
  let count = Option.value (int_field params "count") ~default:25 in
  E.check_int_range ~what:"count" ~min:1 ~max:10_000 count;
  let reports = Property.run_suite ?seed ~count Oracles.all in
  let failures =
    List.filter_map
      (fun r ->
        match r.Property.outcome with
        | Property.Pass _ -> None
        | Property.Fail f ->
          Some
            (Json.Obj
               [
                 ("name", Json.String (Property.name r.Property.property));
                 ("seed", Json.Int f.Property.seed);
                 ("case_index", Json.Int f.Property.case_index);
                 ("counterexample", Json.String f.Property.counterexample);
                 ( "message",
                   match f.Property.message with
                   | Some m -> Json.String m
                   | None -> Json.Null );
               ])
        )
      reports
  in
  Json.Obj
    [
      ("seed", Json.Int (Property.effective_seed seed));
      ("count", Json.Int count);
      ("properties", Json.Int (List.length reports));
      ("failed", Json.Int (List.length failures));
      ("failures", Json.List failures);
    ]

let run_stats state =
  let s = Artifact_cache.stats state.artifacts in
  let sched = scheduler_view state in
  Json.Obj
    [
      ("requests", Json.Int (Atomic.get state.requests));
      ("errors", Json.Int (Atomic.get state.errors));
      ( "serve",
        Json.Obj
          [
            ("max_inflight", Json.Int sched.max_inflight);
            ("max_queue", Json.Int sched.max_queue);
            ("inflight", Json.Int sched.inflight);
            ("queued", Json.Int sched.queued);
            ("shed", Json.Int sched.shed);
            ( "snapshot_age_s",
              match sched.snapshot_age_s with
              | Some a -> Json.Float a
              | None -> Json.Null );
            (* Always null; kept because perfbench/run.py still reads
               the field. *)
            ("batch", Json.Null);
          ] );
      ( "cache",
        Json.Obj
          [
            ("capacity", Json.Int s.Artifact_cache.capacity);
            ("entries", Json.Int s.Artifact_cache.entries);
            ("hits", Json.Int s.Artifact_cache.hits);
            ("misses", Json.Int s.Artifact_cache.misses);
            ("evictions", Json.Int s.Artifact_cache.evictions);
            ("build_s", Json.Float s.Artifact_cache.build_s);
            ("saved_s", Json.Float s.Artifact_cache.saved_s);
            ("evicted_cost_s", Json.Float s.Artifact_cache.evicted_cost_s);
          ] );
    ]

(* --- dispatch --- *)

let dispatch state ~id json =
  let verb =
    match string_field json "verb" with
    | Some v -> v
    | None ->
      E.invalid_inputf
        ~hint:("known verbs: " ^ String.concat ", " known_verbs)
        "request has no \"verb\" field"
  in
  let exec = exec_of_json json in
  let params = params_of_json json in
  let tree json = (Json.to_string json, false) in
  let result, cached =
    match verb with
    | "ping" -> tree (Json.Obj [ ("pong", Json.Bool true) ])
    | "evaluate" -> run_evaluate state ~exec params
    | "yield" -> run_yield state ~exec params
    | "sweep" -> run_sweep state params
    | "codes" -> run_codes state params
    | "check" -> tree (run_check params)
    | "stats" -> tree (run_stats state)
    | "shutdown" ->
      Atomic.set state.stopping true;
      (* What the drain will have to finish: every other in-flight
         request plus everything still queued (this request is the
         [- 1]).  [shed] is the admission-control reject count so far —
         the split between served-before-stopping and refused load. *)
      let sched = scheduler_view state in
      tree
        (Json.Obj
           [
             ("stopping", Json.Bool true);
             ( "draining",
               Json.Int (max 0 (sched.inflight - 1) + sched.queued) );
             ("shed", Json.Int sched.shed);
           ])
    | v ->
      E.invalid_inputf
        ~hint:("known verbs: " ^ String.concat ", " known_verbs)
        "unknown verb %S" v
  in
  ok_response ~id ~verb ~cached result

let error_line err = Json.to_string (error_response ~id:Json.Null err)

let handle_line state line =
  Atomic.incr state.requests;
  let id, response =
    match Json.parse line with
    | Error msg ->
      ( Json.Null,
        Error
          (E.Invalid_input { what = "malformed JSON request"; hint = Some msg })
      )
    | Ok (Json.Obj _ as json) -> (
      let id = Option.value (Json.member "id" json) ~default:Json.Null in
      match dispatch state ~id json with
      | response -> (id, Ok response)
      | exception exn -> (
        match Errors.classify exn with
        | Some err -> (id, Error err)
        | None ->
          (* A genuine bug — but a daemon must answer, not die.  The
             detail keeps the exception text so the bug is findable. *)
          (id, Error (E.internal (Printexc.to_string exn)))))
    | Ok v ->
      ( Json.Null,
        Error
          (E.Invalid_input
             {
               what = "request must be a JSON object";
               hint = Some (Printf.sprintf "got %s" (Json.to_string v));
             }) )
  in
  match response with
  | Ok r -> r
  | Error err ->
    Atomic.incr state.errors;
    Json.to_string (error_response ~id err)
