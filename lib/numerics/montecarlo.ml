type estimate = {
  samples : int;
  mean : float;
  std_error : float;
  ci95_low : float;
  ci95_high : float;
}

let z95 = 1.959963984540054

let of_mean_se ~samples ~mean ~std_error =
  {
    samples;
    mean;
    std_error;
    ci95_low = mean -. (z95 *. std_error);
    ci95_high = mean +. (z95 *. std_error);
  }

let estimate_proportion rng ~samples f =
  if samples < 2 then
    invalid_arg "Montecarlo.estimate_proportion: need >= 2 samples";
  let hits = ref 0 in
  for _ = 1 to samples do
    if f rng then incr hits
  done;
  let n = float_of_int samples in
  let p = float_of_int !hits /. n in
  let std_error = sqrt (p *. (1. -. p) /. n) in
  of_mean_se ~samples ~mean:p ~std_error

(* --- the unified estimator ---

   One engine runs every (strategy x stopping rule) combination.  The
   determinism contract is unchanged from the chunked estimators it
   replaces: sample [s] of a round owns its own stream, the [s]-th
   split of the round's root generator ([Rng.split_n]), and its own
   result slot, and the slots are folded sequentially in sample
   order once the fan-out joins.  The estimate is therefore a pure
   function of (seed, spec, target): chunk count, batch size, domain
   count and scheduling order can all move freely — including per
   machine, via {!Nanodec_parallel.Autotune} — without touching a
   single result bit.  The streams are never materialised: before the
   fan-out one sequential walk snapshots the root at each chunk's first
   sample ([Rng.skip_splits]), and the chunk body derives each sample's
   stream from its snapshot in place ([Rng.split_into]), so the draw
   loop allocates nothing per sample.  Chunks are contiguous sample
   ranges and a chunk body is idempotent (slot writes, streams
   re-derived from an untouched snapshot), so the pool's
   retry/degradation recovery reproduces the uninjected run exactly.

   Adaptive stopping adds batch-doubling rounds on top: round [r]
   derives its own root via one sequential [Rng.split] of the caller's
   generator, so the streams of round [r] do not depend on how many
   samples earlier rounds ran — and since every round's partial sums
   are themselves bit-identical across schedules, the stop/continue
   decision after each round is too.

   Telemetry wraps the chunk bodies with pure observation (per-chunk
   wall time, sample counters, end-to-end rate) and steers only the
   scheduling plan, never the draw streams or the merge order, so an
   instrumented estimate equals the bare one exactly. *)

module Telemetry = Nanodec_telemetry.Telemetry
module Run_ctx = Nanodec_parallel.Run_ctx
module Autotune = Nanodec_parallel.Autotune
module Workspace = Nanodec_parallel.Workspace
module Pool = Nanodec_parallel.Pool
module Fault = Nanodec_fault.Fault
module E = Nanodec_error

type strategy = Run_ctx.mc_method =
  | Plain
  | Antithetic
  | Stratified of int
  | Importance of float

type stopping =
  | Fixed_samples of int
  | Until_rel_error of {
      rel_error : float;
      min_samples : int;
      max_samples : int;
    }

type spec = { strategy : strategy; stopping : stopping }

let fixed n = Fixed_samples n
let default_min_samples = 256
let default_max_samples = 1 lsl 22

let until_rel_error ?(min_samples = default_min_samples)
    ?(max_samples = default_max_samples) rel_error =
  Until_rel_error { rel_error; min_samples; max_samples }

let spec ?(strategy = Plain) stopping = { strategy; stopping }

let spec_of_ctx ?ctx ~samples () =
  let ctx = Run_ctx.resolve ?ctx () in
  let strategy = Run_ctx.mc_method ctx in
  let stopping =
    match Run_ctx.rel_error ctx with
    | None -> Fixed_samples samples
    | Some rel_error ->
      (* [samples] becomes the adaptive cap: --mc-samples N --rel-error R
         reads "stop at the CI target, but never draw more than N". *)
      Until_rel_error
        {
          rel_error;
          min_samples = max 2 (min default_min_samples samples);
          max_samples = samples;
        }
  in
  { strategy; stopping }

let strategy_name = function
  | Plain -> "plain"
  | Antithetic -> "antithetic"
  | Stratified k -> Printf.sprintf "stratified:%d" k
  | Importance s -> Printf.sprintf "importance:%g" s

let spec_key s =
  (* Canonical injective serialization: the artifact-cache key
     component of an estimate.  Floats are %h (exact hex) so distinct
     shifts/targets never collide and the key is platform-stable. *)
  let strat =
    match s.strategy with
    | Plain -> "plain"
    | Antithetic -> "anti"
    | Stratified k -> Printf.sprintf "strat:%d" k
    | Importance f -> Printf.sprintf "imp:%h" f
  in
  let stop =
    match s.stopping with
    | Fixed_samples n -> Printf.sprintf "fixed:%d" n
    | Until_rel_error { rel_error; min_samples; max_samples } ->
      Printf.sprintf "rel:%h:%d:%d" rel_error min_samples max_samples
  in
  Printf.sprintf "mc/v1|%s|%s" strat stop

let validate_spec name s =
  (match s.strategy with
  | Plain | Antithetic -> ()
  | Stratified k ->
    if k < 2 then invalid_arg (name ^ ": stratified needs >= 2 strata")
  | Importance f ->
    if (not (f > 0.)) || f = infinity then
      invalid_arg (name ^ ": importance shift must be positive and finite"));
  match s.stopping with
  | Fixed_samples n ->
    if n < 2 then invalid_arg (name ^ ": need >= 2 samples")
  | Until_rel_error { rel_error; min_samples; max_samples } ->
    if (not (rel_error > 0.)) || rel_error > 0.5 then
      invalid_arg (name ^ ": rel_error must be in (0, 0.5]");
    if min_samples < 2 then invalid_arg (name ^ ": min_samples must be >= 2");
    if max_samples < min_samples then
      invalid_arg (name ^ ": max_samples must be >= min_samples")

(* --- targets ---

   A target bundles one integrand with its optional strategy-specific
   evaluators.  Each evaluator reduces one sample to one float whose
   expectation is the plain mean — antithetic returns the pair average,
   importance returns the already-reweighted value — so the engine
   stays strategy-agnostic: only the per-sample evaluation and (for
   stratified) the variance bookkeeping differ. *)

type target = {
  plain : Rng.t -> float;
  anti : (Rng.t -> float) option;
  strat : (strata:int -> stratum:int -> Rng.t -> float) option;
  imp : (shift:float -> Rng.t -> float) option;
}

let target ?antithetic ?stratified ?importance plain =
  { plain; anti = antithetic; strat = stratified; imp = importance }

let unsupported which =
  E.invalid_inputf
    ~hint:
      "build the target with the matching capability (Montecarlo.target \
       ~antithetic/~stratified/~importance, or Kernel.target for the \
       compiled yield path), or use mc-method plain"
    "Monte-Carlo strategy %s is not supported by this target" which

(* [eval ~index g] evaluates the sample with global index [index] on
   its own stream [g].  The index matters only to stratified sampling,
   which allocates strata round-robin — balanced exactly because totals
   are kept multiples of the strata count. *)
let evaluator spec target =
  match spec.strategy with
  | Plain -> fun ~index:_ g -> target.plain g
  | Antithetic -> (
    match target.anti with
    | Some f -> fun ~index:_ g -> f g
    | None -> unsupported "antithetic")
  | Stratified strata -> (
    match target.strat with
    | Some f -> fun ~index g -> f ~strata ~stratum:(index mod strata) g
    | None -> unsupported (strategy_name spec.strategy))
  | Importance shift -> (
    match target.imp with
    | Some f -> fun ~index:_ g -> f ~shift g
    | None -> unsupported (strategy_name spec.strategy))

(* Sample totals are aligned so stratified allocation stays exactly
   balanced (and every stratum keeps >= 2 samples for its variance
   term); other strategies run the requested count unchanged. *)
let align_samples strategy n =
  match strategy with
  | Stratified k ->
    let n = max n (2 * k) in
    (n + k - 1) / k * k
  | Plain | Antithetic | Importance _ -> n

(* --- scheduling scaffolding (unchanged discipline) --- *)

let default_chunks = 64

(* One scratch generator per domain, allocated on first use and re-aimed
   ([Rng.split_into]) at a fresh split stream for every sample — the hot
   loop allocates nothing per sample. *)
let scratch_rng : Rng.t Workspace.t =
  Workspace.create (fun () -> Rng.create ~seed:0)

(* Balanced contiguous ranges: chunk [i] covers samples
   [lo i, lo (i + 1)), the first [samples mod chunks] chunks one sample
   longer.  [chunks > samples] leaves the excess chunks empty. *)
let chunk_lo ~samples ~chunks i =
  (i * (samples / chunks)) + min i (samples mod chunks)

(* [sample_body root ~samples ~chunks f] is the chunk body that calls
   [f s g] for every sample [s] of its chunk in order, [g] drawing the
   stream of [(Rng.split_n root samples).(s)].  [root] is walked once,
   here, sequentially: it is snapshotted at each chunk's first sample
   and left where [samples] splits leave it.  The body derives its
   streams from a copy of the chunk's snapshot, so a retried chunk
   re-derives the same streams. *)
let sample_body root ~samples ~chunks f =
  let starts =
    Array.init chunks (fun i ->
        let start = Rng.copy root in
        Rng.skip_splits root
          (chunk_lo ~samples ~chunks (i + 1) - chunk_lo ~samples ~chunks i);
        start)
  in
  fun i ->
    let parent = Rng.copy starts.(i) in
    let g = Workspace.get scratch_rng in
    for s = chunk_lo ~samples ~chunks i to chunk_lo ~samples ~chunks (i + 1) - 1
    do
      Rng.split_into parent ~into:g;
      f s g
    done

(* How the job is cut: the context's [Fixed] policy wins, otherwise the
   autotuner sizes the plan.  Only the autotuned path records
   [pool.autotune.*] — fixed plans are the caller's decision, not the
   tuner's.  The context's [batch] overrides the plan's batch either
   way. *)
let resolve_plan ~ctx ~samples =
  let tel = Run_ctx.telemetry ctx in
  let plan =
    match Run_ctx.chunking ctx with
    | Run_ctx.Fixed c -> { Autotune.chunks = c; batch = 1; per_sample_ns = None }
    | Run_ctx.Auto ->
      let domains =
        match Run_ctx.pool ctx with Some p -> Pool.domains p | None -> 1
      in
      let plan = Autotune.plan ?telemetry:tel ~domains ~samples () in
      Autotune.record tel plan;
      plan
  in
  match Run_ctx.batch ctx with
  | Some b -> { plan with Autotune.batch = b }
  | None -> plan

(* Shared fan-out/observe scaffolding of every estimate round: time
   each chunk into [mc.chunk_s], probe the [mc.sample_batch] fault site
   per chunk, count the samples and record the round's rate.  [body i]
   fills the sample slots of chunk [i] and must be restartable. *)
let run_chunks ~ctx ~chunks ~batch ~samples body =
  let tel = Run_ctx.telemetry ctx in
  let fault = Run_ctx.fault ctx in
  let body =
    match fault with
    | None -> body
    | Some _ ->
      (* Inside the chunk body, so the pool's retry/degradation
         machinery covers injected batch crashes like its own site. *)
      fun i ->
        Fault.hit fault ~key:i "mc.sample_batch";
        body i
  in
  let body =
    match tel with
    | None -> body
    | Some sink ->
      let h = Telemetry.histogram sink "mc.chunk_s" in
      fun i ->
        let t0 = Telemetry.now sink in
        body i;
        Telemetry.observe h (Telemetry.now sink -. t0)
  in
  Telemetry.with_span tel "mc.estimate_par" @@ fun () ->
  let t0 = match tel with Some s -> Telemetry.now s | None -> 0. in
  Run_ctx.parallel_for ~batch ctx ~chunks body;
  match tel with
  | Some sink ->
    Telemetry.count tel "mc.samples" samples;
    let dt = Telemetry.now sink -. t0 in
    if dt > 0. then
      Telemetry.record tel "mc.samples_per_sec" (float_of_int samples /. dt)
  | None -> ()

(* --- merge bookkeeping ---

   One accumulator per run: global (n, sum, sum of squares) plus — for
   stratified sampling only — the same triple per stratum, so the
   standard error can drop the between-strata variance the strategy
   actually removed.  Rounds fold in sample order (in-order merge, part
   of the determinism contract). *)

type acc = {
  strata : int;  (* 1 for non-stratified strategies *)
  mutable n : int;
  mutable sum : float;
  mutable sum_sq : float;
  s_n : int array;
  s_sum : float array;
  s_sum_sq : float array;
}

let make_acc strategy =
  let strata = match strategy with Stratified k -> k | _ -> 1 in
  {
    strata;
    n = 0;
    sum = 0.;
    sum_sq = 0.;
    s_n = Array.make strata 0;
    s_sum = Array.make strata 0.;
    s_sum_sq = Array.make strata 0.;
  }

(* The running sums live in local refs, which the compiler keeps
   unboxed, and are written back once: the record's float fields are
   boxed, so updating them per sample would allocate. *)
let merge_round acc ~base values =
  let sum = ref acc.sum and sum_sq = ref acc.sum_sq in
  for s = 0 to Array.length values - 1 do
    let x = values.(s) in
    sum := !sum +. x;
    sum_sq := !sum_sq +. (x *. x);
    if acc.strata > 1 then begin
      let k = (base + s) mod acc.strata in
      acc.s_n.(k) <- acc.s_n.(k) + 1;
      acc.s_sum.(k) <- acc.s_sum.(k) +. x;
      acc.s_sum_sq.(k) <- acc.s_sum_sq.(k) +. (x *. x)
    end
  done;
  acc.n <- acc.n + Array.length values;
  acc.sum <- !sum;
  acc.sum_sq <- !sum_sq

let estimate_of_acc acc =
  let n = float_of_int acc.n in
  let mean = acc.sum /. n in
  let std_error =
    if acc.strata <= 1 then
      let variance =
        Float.max 0. ((acc.sum_sq -. (n *. mean *. mean)) /. (n -. 1.))
      in
      sqrt (variance /. n)
    else begin
      (* Proper stratified SE with equal weights and balanced
         allocation: Var(mean) = (1/K^2) * sum_k var_k / n_k.  The
         naive pooled variance would re-include the between-strata
         spread the stratification removed. *)
      let k = float_of_int acc.strata in
      let v = ref 0. in
      for s = 0 to acc.strata - 1 do
        let nk = float_of_int acc.s_n.(s) in
        let mk = acc.s_sum.(s) /. nk in
        let vark =
          Float.max 0. ((acc.s_sum_sq.(s) -. (nk *. mk *. mk)) /. (nk -. 1.))
        in
        v := !v +. (vark /. nk)
      done;
      sqrt (!v /. (k *. k))
    end
  in
  of_mean_se ~samples:acc.n ~mean ~std_error

let converged ~rel_error acc =
  let e = estimate_of_acc acc in
  z95 *. e.std_error <= rel_error *. Float.abs e.mean

let run ?ctx s rng target =
  validate_spec "Montecarlo.run" s;
  let ctx = Run_ctx.resolve ?ctx () in
  let eval = evaluator s target in
  let acc = make_acc s.strategy in
  let run_round ~base root round_n =
    let plan = resolve_plan ~ctx ~samples:round_n in
    let chunks = plan.Autotune.chunks and batch = plan.Autotune.batch in
    let values = Array.make round_n 0. in
    let body =
      sample_body root ~samples:round_n ~chunks (fun s g ->
          values.(s) <- eval ~index:(base + s) g)
    in
    run_chunks ~ctx ~chunks ~batch ~samples:round_n body;
    merge_round acc ~base values
  in
  (match s.stopping with
  | Fixed_samples n ->
    (* One round, streams split directly off the caller's generator —
       for [Plain] this reproduces the historical estimate_par bits
       exactly (same split streams, same slots, same merge). *)
    let n = align_samples s.strategy n in
    run_round ~base:0 rng n
  | Until_rel_error { rel_error; min_samples; max_samples } ->
    let min_s = align_samples s.strategy (max 2 min_samples) in
    let max_s = max min_s (align_samples s.strategy max_samples) in
    let total = ref 0 in
    let stop = ref false in
    while not !stop do
      let next =
        if !total = 0 then min_s
        else min max_s (align_samples s.strategy (2 * !total))
      in
      let round_n = next - !total in
      (* Each round's streams derive from one sequential split of the
         root, never from the caller's generator position after a
         variable number of draws — the schedule of rounds is fixed by
         (min, max), so round r's streams are a pure function of the
         seed. *)
      let round_rng = Rng.split rng in
      run_round ~base:!total round_rng round_n;
      total := next;
      if next >= max_s || converged ~rel_error acc then stop := true
    done);
  estimate_of_acc acc

(* --- legacy API: one definition site over [run] --- *)

let estimate rng ~samples f =
  if samples < 2 then invalid_arg "Montecarlo.estimate: need >= 2 samples";
  run { strategy = Plain; stopping = Fixed_samples samples } rng (target f)

let estimate_par ?ctx rng ~samples f =
  if samples < 2 then
    invalid_arg "Montecarlo.estimate_par: need >= 2 samples";
  let ctx = Run_ctx.resolve ?ctx () in
  run ~ctx { strategy = Plain; stopping = Fixed_samples samples } rng
    (target f)

let estimate_proportion_par ?ctx rng ~samples f =
  if samples < 2 then
    invalid_arg "Montecarlo.estimate_proportion_par: need >= 2 samples";
  let ctx = Run_ctx.resolve ?ctx () in
  let plan = resolve_plan ~ctx ~samples in
  let chunks = plan.Autotune.chunks and batch = plan.Autotune.batch in
  let hits = Bytes.make samples '\000' in
  let body =
    sample_body rng ~samples ~chunks (fun s g ->
        Bytes.unsafe_set hits s (if f g then '\001' else '\000'))
  in
  run_chunks ~ctx ~chunks ~batch ~samples body;
  let count = ref 0 in
  Bytes.iter (fun c -> if c <> '\000' then incr count) hits;
  let n = float_of_int samples in
  let p = float_of_int !count /. n in
  let std_error = sqrt (p *. (1. -. p) /. n) in
  of_mean_se ~samples ~mean:p ~std_error

let within e x = x >= e.ci95_low && x <= e.ci95_high

let pp ppf e =
  Format.fprintf ppf "%.6g ± %.2g (95%% CI [%.6g, %.6g], n=%d)" e.mean
    (z95 *. e.std_error) e.ci95_low e.ci95_high e.samples
