module Telemetry = Nanodec_telemetry.Telemetry
module Fault = Nanodec_fault.Fault

type chunking = Auto | Fixed of int

type mc_method =
  | Plain
  | Antithetic
  | Stratified of int
  | Importance of float

type t = {
  pool : Pool.t option;
  seed : int;
  mc_samples : int;
  telemetry : Telemetry.sink option;
  fault : Fault.t option;
  degrade : bool;
  warn : bool;
  timeout_s : float option;
  cancel : Pool.Cancel.t option;
  chunking : chunking;
  mc_method : mc_method;
  rel_error : float option;
  owns_pool : bool;  (* [make ~domains] spawned it, [shutdown] joins it *)
}

let default_seed = 2009
let default_mc_samples = 4000

(* Shared by [make] and [with_request], so both surfaces reject the
   Monte-Carlo knobs with identical messages. *)
let check_mc_knobs ~who ~mc_method ~rel_error =
  (match mc_method with
  | Stratified k when k < 2 ->
    invalid_arg (who ^ ": Stratified strata must be >= 2")
  | Importance s when (not (s > 0.)) || s = infinity ->
    invalid_arg (who ^ ": Importance shift must be positive and finite")
  | Plain | Antithetic | Stratified _ | Importance _ -> ());
  match rel_error with
  | Some r when (not (r > 0.)) || r > 0.5 ->
    invalid_arg (who ^ ": rel_error must be in (0, 0.5]")
  | Some _ | None -> ()

let make ?domains ?pool ?(seed = default_seed)
    ?(mc_samples = default_mc_samples) ?telemetry ?fault ?timeout_s ?cancel
    ?(chunking = Auto) ?(mc_method = Plain) ?rel_error
    ?(degrade = true) ?(warn = true) () =
  if mc_samples < 0 then invalid_arg "Run_ctx.make: mc_samples must be >= 0";
  (match timeout_s with
  | Some s when s <= 0. ->
    invalid_arg "Run_ctx.make: timeout_s must be positive"
  | Some _ | None -> ());
  (match chunking with
  | Fixed n when n < 1 ->
    invalid_arg "Run_ctx.make: Fixed chunking must be >= 1"
  | Fixed _ | Auto -> ());
  check_mc_knobs ~who:"Run_ctx.make" ~mc_method ~rel_error;
  (* The environment plan activates here and only here: contexts are the
     chaos boundary.  Direct [Pool] users (tests, benches) stay
     injection-free even when [NANODEC_FAULT_PLAN] is exported. *)
  let fault = match fault with Some _ as f -> f | None -> Fault.of_env () in
  (* Injected faults are telemetry-recorded whenever the run has a
     sink, without the caller wiring the two by hand. *)
  (match fault, telemetry with
  | Some f, Some _ -> Fault.set_telemetry f telemetry
  | _ -> ());
  let pool, owns_pool =
    match pool, domains with
    | Some _, Some _ ->
      invalid_arg "Run_ctx.make: ~domains and ~pool are mutually exclusive"
    | Some p, None ->
      (* Borrowed pool: route its scheduler probes into this context's
         sink (the caller keeps ownership and shutdown duty). *)
      (match telemetry with
      | Some _ -> Pool.set_telemetry p telemetry
      | None -> ());
      (Some p, false)
    | None, Some d -> (Some (Pool.create ~domains:d ?telemetry ()), true)
    | None, None -> (None, false)
  in
  {
    pool;
    seed;
    mc_samples;
    telemetry;
    fault;
    degrade;
    warn;
    timeout_s;
    cancel;
    chunking;
    mc_method;
    rel_error;
    owns_pool;
  }

let shutdown t = if t.owns_pool then Option.iter Pool.shutdown t.pool

let with_ctx ?domains ?pool ?seed ?mc_samples ?telemetry ?fault ?timeout_s
    ?cancel ?chunking ?mc_method ?rel_error ?degrade ?warn f =
  let t =
    make ?domains ?pool ?seed ?mc_samples ?telemetry ?fault ?timeout_s
      ?cancel ?chunking ?mc_method ?rel_error ?degrade ?warn ()
  in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let pool t = t.pool
let seed t = t.seed
let mc_samples t = t.mc_samples
let telemetry t = t.telemetry
let fault t = t.fault
let timeout_s t = t.timeout_s
let cancel t = t.cancel
let chunking t = t.chunking
let mc_method t = t.mc_method
let rel_error t = t.rel_error

let parallel_for ?batch t ~chunks body =
  let { timeout_s; cancel; fault; degrade; warn; _ } = t in
  match t.pool with
  | Some p ->
    Pool.parallel_for ?timeout_s ?cancel ?fault ~degrade ~warn ?batch p
      ~chunks body
  | None ->
    Pool.sequential_for ?timeout_s ?cancel ?fault ~degrade ~warn ~chunks body

let map_list t f xs =
  let xs = Array.of_list xs in
  let out = Array.make (Array.length xs) None in
  parallel_for t ~chunks:(Array.length xs) (fun i ->
      out.(i) <- Some (f xs.(i)));
  Array.to_list (Array.map Option.get out)

let with_request ~base ?seed ?mc_samples ?timeout_s ?fault ?chunking
    ?mc_method ?rel_error ?degrade ?warn f =
  let seed = Option.value seed ~default:base.seed in
  let mc_samples = Option.value mc_samples ~default:base.mc_samples in
  let chunking = Option.value chunking ~default:base.chunking in
  let mc_method = Option.value mc_method ~default:base.mc_method in
  let rel_error =
    match rel_error with Some _ as r -> r | None -> base.rel_error
  in
  (* Deadlines inherit like every other knob: a request without its own
     timeout still runs under the base context's safety net. *)
  let timeout_s =
    match timeout_s with Some _ as t -> t | None -> base.timeout_s
  in
  if mc_samples < 0 then
    invalid_arg "Run_ctx.with_request: mc_samples must be >= 0";
  (match timeout_s with
  | Some s when s <= 0. ->
    invalid_arg "Run_ctx.with_request: timeout_s must be positive"
  | Some _ | None -> ());
  (match chunking with
  | Fixed n when n < 1 ->
    invalid_arg "Run_ctx.with_request: Fixed chunking must be >= 1"
  | Fixed _ | Auto -> ());
  check_mc_knobs ~who:"Run_ctx.with_request" ~mc_method ~rel_error;
  (* Every request borrows the base pool: the fault engine and the
     degrade policy travel with each job, so nothing on the shared pool
     changes and any number of requests can derive from one base. *)
  let fault =
    match fault with
    | Some f as fault ->
      (match base.telemetry with
      | Some _ -> Fault.set_telemetry f base.telemetry
      | None -> ());
      fault
    | None -> base.fault
  in
  f
    {
      base with
      seed;
      mc_samples;
      fault;
      degrade = Option.value degrade ~default:base.degrade;
      warn = Option.value warn ~default:base.warn;
      timeout_s;
      chunking;
      mc_method;
      rel_error;
      owns_pool = false;
    }

let resolve ?ctx () =
  match ctx with
  | Some c -> c
  | None ->
    {
      pool = None;
      seed = default_seed;
      mc_samples = default_mc_samples;
      telemetry = None;
      fault = None;
      degrade = true;
      warn = true;
      timeout_s = None;
      cancel = None;
      chunking = Auto;
      mc_method = Plain;
      rel_error = None;
      owns_pool = false;
    }
