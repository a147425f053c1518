(* A supervised single-job work queue over a fixed set of worker domains.

   Scheduling is an atomic batched claim: a job exposes a [next] cursor
   (an atomic integer) and every participating domain grabs
   [fetch_and_add next batch] chunk indices at a time, runs the whole
   batch outside any lock, and only then takes the mutex once to retire
   the batch and check the join condition.  Claim traffic is therefore
   O(chunks / batch) atomic adds per job instead of one mutex round
   trip per chunk — the difference between the pool paying for itself
   and the pool being the bottleneck on sub-millisecond chunk bodies.

   Memory-model note: a chunk body's writes (into caller-owned result
   slots) happen before that domain's mutex acquisition in the batch
   retirement path, and the submitter only reads the slots after
   observing [finished] under the same mutex — so the fan-in is
   data-race free without per-slot atomics.

   There is one executor.  A job that does not fan out (no workers, a
   single claim, or a submission while the pool is busy) runs the same
   claim loop on the submitter alone, on a job record it never
   publishes to [current], and takes the same join and degrade path.

   Supervision (deadlines, injected-crash retries, degradation to
   sequential) is cooperative: it acts only at chunk boundaries
   (checked inside the batch loop, so a deadline can expire mid-batch),
   because a running domain cannot be preempted.  Its policy — fault
   engine, degrade, warn, deadline — belongs to the job, never to the
   pool, so jobs with different policies share one pool and no job's
   outcome changes how the next one runs.  All of it leaves successful
   results bit-for-bit identical to an unsupervised run — recovery
   re-executes restartable chunk bodies, never reorders the fan-in.

   Telemetry is strictly an observer: probes time and count the
   scheduler's decisions but never influence them, so an instrumented
   run computes bit-for-bit the same results as a bare one. *)

module Telemetry = Nanodec_telemetry.Telemetry
module Fault = Nanodec_fault.Fault
module E = Nanodec_error

(* Probe handles, created once with the pool so the per-chunk hot path
   never takes the sink mutex. *)
type tele = {
  sink : Telemetry.sink;
  c_jobs : Telemetry.counter;  (* pool.jobs: jobs fanned out to the queue *)
  c_jobs_seq : Telemetry.counter;
      (* pool.jobs.sequential: no workers, or a single claim *)
  c_jobs_inline : Telemetry.counter;
      (* pool.jobs.inline_nested: submissions while the pool was busy *)
  c_chunks_submitter : Telemetry.counter;
  c_chunks_worker : Telemetry.counter;  (* chunks stolen by worker domains *)
  c_batches : Telemetry.counter;  (* pool.batches: claims across all jobs *)
  c_retries : Telemetry.counter;  (* pool.retries: injected-crash retries *)
  c_timeouts : Telemetry.counter;  (* pool.timeouts: deadline trips *)
  c_degraded : Telemetry.counter;  (* pool.degraded_jobs *)
  h_queue_wait : Telemetry.histogram;  (* submit -> claim, per batch *)
  h_compute : Telemetry.histogram;  (* batch body wall time *)
  h_job : Telemetry.histogram;  (* submit -> join, per fanned-out job *)
}

type job = {
  chunks : int;
  batch : int;  (* chunk indices claimed per atomic fetch-and-add *)
  body : int -> unit;
  fault : Fault.t option;  (* probed at the [pool.chunk] site *)
  submitted : float;  (* sink-relative submit time; 0 with no telemetry *)
  timeout_s : float option;
  deadline : float option;  (* absolute, Telemetry.monotonic_s base *)
  next : int Atomic.t;  (* claim cursor; grows by [batch] per claim *)
  cancelled : bool Atomic.t;
      (* stop claiming new batches; set on first failure and on the
         deadline trip — claimed batches still drain *)
  abandon : bool Atomic.t;
      (* additionally skip the remaining bodies of already-claimed
         batches; set only by the deadline trip, never by organic
         failures, so lowest-index-failure-wins still sees every
         claimed chunk run *)
  mutable tripped : bool;  (* mutex: the one-time deadline trip *)
  mutable retired : int;  (* mutex: claimed chunk indices accounted for *)
  mutable finished : bool;  (* mutex *)
  mutable error : (int * exn * Printexc.raw_backtrace) option;
      (* failure with the lowest chunk index seen so far; index
         [max_int] marks the deadline sentinel so any real chunk
         failure wins over it *)
}

type t = {
  n_domains : int;
  mutex : Mutex.t;
  work_available : Condition.t;  (* workers wait here for a job *)
  job_done : Condition.t;  (* the submitter waits here for the join *)
  mutable current : job option;  (* the fanned-out job, if any *)
  mutable stop : bool;
  mutable workers : unit Domain.t array;
  tele : tele option;
  mutable warned : bool;  (* the one-time stderr degradation warning *)
}

let max_domains = 64
let max_retries = 2  (* per chunk, against injected crashes *)
let site = "pool.job"

let parse_domains s =
  (* Strictly decimal: [int_of_string_opt] would also accept hex,
     underscores and surrounding junk after a trim. *)
  let decimal = s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s in
  if not decimal then None
  else match int_of_string_opt s with
    | Some n when n >= 1 -> Some n
    | Some _ | None -> None

let default_domains () =
  match Sys.getenv_opt "NANODEC_DOMAINS" with
  | None -> Domain.recommended_domain_count ()
  | Some s -> (
    match parse_domains s with
    | Some n -> n
    | None ->
      invalid_arg
        (Printf.sprintf
           "NANODEC_DOMAINS=%S: expected a positive decimal integer" s))

let domains t = t.n_domains

let tele_of_sink sink =
  {
    sink;
    c_jobs = Telemetry.counter sink "pool.jobs";
    c_jobs_seq = Telemetry.counter sink "pool.jobs.sequential";
    c_jobs_inline = Telemetry.counter sink "pool.jobs.inline_nested";
    c_chunks_submitter = Telemetry.counter sink "pool.chunks.submitter";
    c_chunks_worker = Telemetry.counter sink "pool.chunks.worker";
    c_batches = Telemetry.counter sink "pool.batches";
    c_retries = Telemetry.counter sink "pool.retries";
    c_timeouts = Telemetry.counter sink "pool.timeouts";
    c_degraded = Telemetry.counter sink "pool.degraded_jobs";
    h_queue_wait = Telemetry.histogram sink "pool.chunk.queue_wait_s";
    h_compute = Telemetry.histogram sink "pool.chunk.compute_s";
    h_job = Telemetry.histogram sink "pool.job_s";
  }

(* Run one chunk body behind the [pool.chunk] fault site, retrying
   injected crashes in place with exponential backoff.  Every attempt
   re-probes the site (same key, next attempt number), so the engine's
   deterministic stream decides when the fault clears.  Organic
   exceptions are reported immediately: retrying real bugs only hides
   them. *)
let run_chunk_guarded t ~fault body i =
  let rec attempt k =
    match
      Fault.hit fault ~key:i "pool.chunk";
      body i
    with
    | () -> None
    | exception Fault.Injected _ when k < max_retries ->
      (match t.tele with Some tl -> Telemetry.incr tl.c_retries | None -> ());
      Unix.sleepf (0.001 *. float_of_int (1 lsl k));
      attempt (k + 1)
    | exception e -> Some (e, Printexc.get_raw_backtrace ())
  in
  attempt 0

(* A job's chunk exhausted its retries on injected crash [e]: fail
   with [Degraded], or count one degraded job (warning once per pool)
   so the caller finishes the job with injection suppressed. *)
let degrade_job t ~degrade ~warn e =
  if not degrade then
    E.fail (E.Degraded { site = "pool.chunk"; reason = Printexc.to_string e });
  if warn && not t.warned then begin
    t.warned <- true;
    Printf.eprintf
      "nanodec: warning: injected faults exhausted a job's retries; \
       finishing it sequentially\n%!"
  end;
  match t.tele with Some tl -> Telemetry.incr tl.c_degraded | None -> ()

(* A deadline trip, observed mid-batch by some domain: stop new claims
   AND the remaining bodies of claimed batches (they would only burn
   time past the deadline), record the sentinel error.  Taken at most
   once per job; called without the mutex. *)
let trip t j timeout_s =
  Mutex.lock t.mutex;
  if not j.tripped then begin
    j.tripped <- true;
    Atomic.set j.cancelled true;
    Atomic.set j.abandon true;
    (match t.tele with Some tl -> Telemetry.incr tl.c_timeouts | None -> ());
    (match j.error with
    | Some _ -> ()
    | None ->
      j.error <-
        Some
          ( max_int,
            E.Error (E.Timeout { site; seconds = timeout_s }),
            Printexc.get_callstack 0 ))
  end;
  Mutex.unlock t.mutex

(* Observe the deadline at a chunk boundary, without taking the mutex
   on the happy path.  The one place any job checks it. *)
let check_supervision t j =
  match j.deadline, j.timeout_s with
  | Some d, Some s
    when (not (Atomic.get j.abandon)) && Telemetry.monotonic_s () > d ->
    trip t j s
  | _ -> ()

(* Claim and run batches of [j] until the cursor is exhausted or the
   job is cancelled.  Called WITHOUT the mutex; takes it only to retire
   each batch.  Every claim with a live base index is retired exactly
   once — even when supervision skips its bodies — so the join
   condition below cannot hang.  [on_worker] distinguishes the steal
   counter from the submitter's own chunks. *)
let rec work_on t ~on_worker j =
  if not (Atomic.get j.cancelled) then begin
    let base = Atomic.fetch_and_add j.next j.batch in
    if base < j.chunks then begin
      let hi = min j.chunks (base + j.batch) in
      let tele = t.tele in
      (match tele with
      | Some tl ->
        let now = Telemetry.now tl.sink in
        Telemetry.observe tl.h_queue_wait (now -. j.submitted);
        Telemetry.incr tl.c_batches;
        Telemetry.add
          (if on_worker then tl.c_chunks_worker else tl.c_chunks_submitter)
          (hi - base)
      | None -> ());
      let t0 =
        match tele with Some tl -> Telemetry.now tl.sink | None -> 0.
      in
      let failure = ref None in
      let i = ref base in
      while !failure = None && !i < hi && not (Atomic.get j.abandon) do
        check_supervision t j;
        if not (Atomic.get j.abandon) then begin
          (match run_chunk_guarded t ~fault:j.fault j.body !i with
          | None -> ()
          | Some (e, bt) -> failure := Some (!i, e, bt));
          incr i
        end
      done;
      (match tele with
      | Some tl ->
        Telemetry.observe tl.h_compute (Telemetry.now tl.sink -. t0)
      | None -> ());
      Mutex.lock t.mutex;
      (match !failure with
      | None -> ()
      | Some (i, e, bt) -> (
        (* An organic failure stops new claims but lets already-claimed
           batches run to completion, exactly like the in-flight chunks
           of the unbatched scheduler — so when several chunks fail,
           the lowest claimed index still wins below. *)
        Atomic.set j.cancelled true;
        match j.error with
        | Some (i0, _, _) when i0 <= i -> ()
        | Some _ | None -> j.error <- Some (i, e, bt)));
      j.retired <- j.retired + (hi - base);
      (* Join condition: every claimed index retired and no more claims
         coming.  [next] is only read here after this domain's own
         fetch-and-add, so the final retirement always sees the full
         claim extent. *)
      let claimed =
        if Atomic.get j.cancelled then min j.chunks (Atomic.get j.next)
        else j.chunks
      in
      if (not j.finished) && j.retired >= claimed then begin
        j.finished <- true;
        Condition.broadcast t.job_done
      end;
      Mutex.unlock t.mutex;
      work_on t ~on_worker j
    end
  end

let worker_loop t =
  Mutex.lock t.mutex;
  let rec loop () =
    if t.stop then Mutex.unlock t.mutex
    else
      match t.current with
      | Some j
        when (not (Atomic.get j.cancelled)) && Atomic.get j.next < j.chunks
        ->
        Mutex.unlock t.mutex;
        work_on t ~on_worker:true j;
        Mutex.lock t.mutex;
        loop ()
      | Some _ | None ->
        Condition.wait t.work_available t.mutex;
        loop ()
  in
  loop ()

let create ?domains ?telemetry () =
  let requested =
    match domains with Some d -> d | None -> default_domains ()
  in
  if requested < 1 then invalid_arg "Pool.create: domains must be >= 1";
  let n = min requested max_domains in
  let t =
    {
      n_domains = n;
      mutex = Mutex.create ();
      work_available = Condition.create ();
      job_done = Condition.create ();
      current = None;
      stop = false;
      workers = [||];
      tele = Option.map tele_of_sink telemetry;
      warned = false;
    }
  in
  t.workers <- Array.init (n - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let shutdown t =
  Mutex.lock t.mutex;
  if t.stop then Mutex.unlock t.mutex
  else begin
    t.stop <- true;
    Condition.broadcast t.work_available;
    Mutex.unlock t.mutex;
    Array.iter Domain.join t.workers;
    t.workers <- [||]
  end

let with_pool ?domains ?telemetry f =
  let t = create ?domains ?telemetry () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let job ~chunks ~batch ~fault ~submitted ~timeout_s ~deadline body =
  {
    chunks;
    batch;
    body;
    fault;
    submitted;
    timeout_s;
    deadline;
    next = Atomic.make 0;
    cancelled = Atomic.make false;
    abandon = Atomic.make false;
    tripped = false;
    retired = 0;
    finished = false;
    error = None;
  }

(* The submitter's side of every job, fanned out or not: claim batches
   alongside whatever workers see [j], wait until every claimed batch
   has retired, and return the failure the job recorded.  A job nobody
   else sees is finished when the submitter's own claim loop ends. *)
let join t ~published j =
  work_on t ~on_worker:false j;
  Mutex.lock t.mutex;
  while not j.finished do
    Condition.wait t.job_done t.mutex
  done;
  if published then t.current <- None;
  Mutex.unlock t.mutex;
  j.error

(* The end of a degraded job: the whole job again on the submitter
   alone, injection suppressed, under the original deadline.  Chunk
   bodies are restartable, so the re-execution reproduces the
   uninjected results exactly. *)
let finish_suppressed t j =
  let rerun =
    job ~chunks:j.chunks ~batch:j.batch ~fault:None ~submitted:j.submitted
      ~timeout_s:j.timeout_s ~deadline:j.deadline j.body
  in
  match Fault.without_faults (fun () -> join t ~published:false rerun) with
  | None -> ()
  | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt

let parallel_for ?timeout_s ?fault ?(degrade = true) ?(warn = true)
    ?(batch = 1) t ~chunks body =
  if chunks < 0 then invalid_arg "Pool.parallel_for: negative chunk count";
  if batch < 1 then invalid_arg "Pool.parallel_for: batch must be >= 1";
  (match timeout_s with
  | Some s when s <= 0. ->
    invalid_arg "Pool.parallel_for: timeout_s must be positive"
  | Some _ | None -> ());
  if chunks > 0 then begin
    let tele = t.tele in
    let submitted =
      match tele with Some tl -> Telemetry.now tl.sink | None -> 0.
    in
    let deadline =
      Option.map (fun s -> Telemetry.monotonic_s () +. s) timeout_s
    in
    let j = job ~chunks ~batch ~fault ~submitted ~timeout_s ~deadline body in
    (* ceil(chunks / batch) claims: a single claim means a single
       domain would do all the work anyway. *)
    let sequential =
      Array.length t.workers = 0 || (chunks + batch - 1) / batch = 1
    in
    Mutex.lock t.mutex;
    if t.stop then begin
      Mutex.unlock t.mutex;
      invalid_arg "Pool: used after shutdown"
    end;
    (* Busy: a chunk body (or another domain) submitted this job while
       another one is fanned out.  The submitter runs it alone —
       identical results, no deadlock. *)
    let nested = (not sequential) && t.current <> None in
    let published = not (sequential || nested) in
    if published then begin
      t.current <- Some j;
      Condition.broadcast t.work_available
    end;
    Mutex.unlock t.mutex;
    (match tele with
    | Some tl ->
      Telemetry.incr
        (if published then tl.c_jobs
         else if nested then tl.c_jobs_inline
         else tl.c_jobs_seq)
    | None -> ());
    let run () =
      let error = join t ~published j in
      (match tele with
      | Some tl when published ->
        Telemetry.observe tl.h_job (Telemetry.now tl.sink -. submitted)
      | Some _ | None -> ());
      match error with
      | None -> ()
      | Some (_, (Fault.Injected _ as e), _) ->
        (* Only this job degrades; the next job fans out on the full
           pool again. *)
        degrade_job t ~degrade ~warn e;
        finish_suppressed t j
      | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
    in
    match tele with
    | Some tl when nested ->
      Telemetry.with_span (Some tl.sink) "pool.inline" run
    | Some _ | None -> run ()
  end

(* Pool-less jobs run on a worker-less pool shared by the process: the
   same executor, with nothing to spawn or join. *)
let detached = create ~domains:1 ()

let sequential_for ?timeout_s ?fault ?degrade ?warn ~chunks body =
  parallel_for ?timeout_s ?fault ?degrade ?warn detached ~chunks body

let map ?timeout_s ?batch t f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    parallel_for ?timeout_s ?batch t ~chunks:n (fun i ->
        out.(i) <- Some (f xs.(i)));
    Array.map (function Some y -> y | None -> assert false) out
  end

let map_list ?timeout_s ?batch t f xs =
  Array.to_list (map ?timeout_s ?batch t f (Array.of_list xs))
