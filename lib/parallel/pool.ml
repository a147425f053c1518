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

   Supervision (deadlines, cancellation tokens, injected-crash retries,
   degradation to sequential) is cooperative: it acts only at chunk
   boundaries (checked inside the batch loop, so a deadline can expire
   mid-batch), because a running domain cannot be preempted.  Its
   policy — fault engine, degrade, warn, deadline, token — belongs to
   the job, never to the pool, so jobs with different policies share
   one pool and no job's outcome changes how the next one runs.  All
   of it leaves successful results bit-for-bit identical to an
   unsupervised run — recovery re-executes restartable chunk bodies,
   never reorders the fan-in.

   Telemetry is strictly an observer: probes time and count the
   scheduler's decisions but never influence them, so an instrumented
   run computes bit-for-bit the same results as a bare one. *)

module Telemetry = Nanodec_telemetry.Telemetry
module Fault = Nanodec_fault.Fault
module E = Nanodec_error

module Cancel = struct
  type t = bool Atomic.t

  let create () = Atomic.make false
  let cancel t = Atomic.set t true
  let is_cancelled t = Atomic.get t
end

(* Probe handles, created once when a sink is attached so the per-chunk
   hot path never takes the sink mutex. *)
type tele = {
  sink : Telemetry.sink;
  c_jobs : Telemetry.counter;  (* pool.jobs: jobs fanned out to the queue *)
  c_jobs_seq : Telemetry.counter;
      (* pool.jobs.sequential: no-worker or single-task inline loop *)
  c_jobs_inline : Telemetry.counter;
      (* pool.jobs.inline_nested: submissions while the pool was busy *)
  c_chunks_submitter : Telemetry.counter;
  c_chunks_worker : Telemetry.counter;  (* chunks stolen by worker domains *)
  c_batches : Telemetry.counter;  (* pool.batches: claims across all jobs *)
  c_retries : Telemetry.counter;  (* pool.retries: injected-crash retries *)
  c_timeouts : Telemetry.counter;  (* pool.timeouts: deadline/cancel trips *)
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
  cancel : Cancel.t option;
  next : int Atomic.t;  (* claim cursor; grows by [batch] per claim *)
  cancelled : bool Atomic.t;
      (* stop claiming new batches; set on first failure and on
         supervision trips — claimed batches still drain *)
  abandon : bool Atomic.t;
      (* additionally skip the remaining bodies of already-claimed
         batches; set only by supervision trips (deadline/token), never
         by organic failures, so lowest-index-failure-wins still sees
         every claimed chunk run *)
  mutable tripped : bool;  (* mutex: the one-time supervision trip *)
  mutable retired : int;  (* mutex: claimed chunk indices accounted for *)
  mutable finished : bool;  (* mutex *)
  mutable error : (int * exn * Printexc.raw_backtrace) option;
      (* failure with the lowest chunk index seen so far; index
         [max_int] marks deadline/cancellation sentinels so any real
         chunk failure wins over them *)
}

type t = {
  n_domains : int;
  mutex : Mutex.t;
  work_available : Condition.t;  (* workers wait here for a job *)
  job_done : Condition.t;  (* the submitter waits here for the join *)
  mutable current : job option;
  mutable stop : bool;
  mutable workers : unit Domain.t array;
  mutable tele : tele option;
  mutable warned : bool;  (* the one-time stderr degradation warning *)
  inline_nested : int Atomic.t;
      (* nested/busy submissions run inline; counted even with no sink *)
  retries_n : int Atomic.t;
  degraded_jobs_n : int Atomic.t;
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

let inline_submissions t = Atomic.get t.inline_nested
let retries t = Atomic.get t.retries_n
let degraded_jobs t = Atomic.get t.degraded_jobs_n

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

let set_telemetry t sink = t.tele <- Option.map tele_of_sink sink

let telemetry t = Option.map (fun tl -> tl.sink) t.tele

let timeout_error timeout_s =
  E.Error (E.Timeout { site; seconds = Some timeout_s })

let cancel_error = E.Error (E.Timeout { site; seconds = None })

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
      Atomic.incr t.retries_n;
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
  Atomic.incr t.degraded_jobs_n;
  match t.tele with Some tl -> Telemetry.incr tl.c_degraded | None -> ()

let count_timeout t =
  match t.tele with Some tl -> Telemetry.incr tl.c_timeouts | None -> ()

(* A supervision trip (deadline or token), observed mid-batch by some
   domain: stop new claims AND the remaining bodies of claimed batches
   (they would only burn time past the deadline), record the sentinel
   error.  Taken at most once per job; called without the mutex. *)
let trip t j error =
  Mutex.lock t.mutex;
  if not j.tripped then begin
    j.tripped <- true;
    Atomic.set j.cancelled true;
    Atomic.set j.abandon true;
    count_timeout t;
    (match j.error with
    | Some _ -> ()
    | None -> j.error <- Some (max_int, error, Printexc.get_callstack 0))
  end;
  Mutex.unlock t.mutex

(* Observe the cooperative stop conditions at a chunk boundary, without
   taking the mutex on the happy path. *)
let check_supervision t j =
  if not (Atomic.get j.abandon) then begin
    (match j.cancel with
    | Some c when Cancel.is_cancelled c -> trip t j cancel_error
    | Some _ | None -> ());
    match j.deadline, j.timeout_s with
    | Some d, Some s when Telemetry.monotonic_s () > d ->
      trip t j (timeout_error s)
    | _ -> ()
  end

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
      inline_nested = Atomic.make 0;
      retries_n = Atomic.make 0;
      degraded_jobs_n = Atomic.make 0;
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

(* Boundary check of the sequential executor: same cooperative
   semantics as the fanned-out claim loop, raised directly since there
   is no join to drain. *)
let check_boundary t ?deadline ?timeout_s ?cancel () =
  (match cancel with
  | Some c when Cancel.is_cancelled c ->
    count_timeout t;
    raise cancel_error
  | Some _ | None -> ());
  match deadline, timeout_s with
  | Some d, Some s when Telemetry.monotonic_s () > d ->
    count_timeout t;
    raise (timeout_error s)
  | _ -> ()

(* The end of a degraded job: chunks [from ..] in order with injection
   suppressed.  Chunk bodies are restartable, so the re-execution
   reproduces the uninjected results exactly. *)
let finish_suppressed ~check ~from ~chunks body =
  Fault.without_faults (fun () ->
      for i = from to chunks - 1 do
        check ();
        body i
      done)

(* The sequential executor: used for 1-domain pools, single-claim and
   nested/busy submissions, and pool-less jobs ({!sequential_for}).
   Retries injected crashes like the parallel path; once a chunk runs
   out of retries the job degrades from that chunk on, or fails. *)
let run_inline ?timeout_s ?cancel ?fault ~degrade ~warn t ~chunks body =
  let deadline =
    Option.map (fun s -> Telemetry.monotonic_s () +. s) timeout_s
  in
  let check = check_boundary t ?deadline ?timeout_s ?cancel in
  let rec from i =
    if i < chunks then begin
      check ();
      match run_chunk_guarded t ~fault body i with
      | None -> from (i + 1)
      | Some ((Fault.Injected _ as e), _) ->
        degrade_job t ~degrade ~warn e;
        finish_suppressed ~check ~from:i ~chunks body
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    end
  in
  from 0

let parallel_for ?timeout_s ?cancel ?fault ?(degrade = true) ?(warn = true)
    ?(batch = 1) t ~chunks body =
  if chunks < 0 then invalid_arg "Pool.parallel_for: negative chunk count";
  if batch < 1 then invalid_arg "Pool.parallel_for: batch must be >= 1";
  (match timeout_s with
  | Some s when s <= 0. ->
    invalid_arg "Pool.parallel_for: timeout_s must be positive"
  | Some _ | None -> ());
  if chunks > 0 then begin
    (* ceil(chunks / batch) claims: a single claim means a single
       domain would do all the work anyway — run it inline and skip
       the fan-out machinery. *)
    let tasks = (chunks + batch - 1) / batch in
    let inline () =
      run_inline ?timeout_s ?cancel ?fault ~degrade ~warn t ~chunks body
    in
    if Array.length t.workers = 0 || tasks = 1 then
      if t.stop then invalid_arg "Pool: used after shutdown"
      else begin
        (match t.tele with Some tl -> Telemetry.incr tl.c_jobs_seq | None -> ());
        inline ()
      end
    else begin
      Mutex.lock t.mutex;
      if t.stop then begin
        Mutex.unlock t.mutex;
        invalid_arg "Pool: used after shutdown"
      end
      else if t.current <> None then begin
        (* Busy: a chunk body (or another domain) submitted a job.
           Run it inline — identical results, no deadlock. *)
        Mutex.unlock t.mutex;
        Atomic.incr t.inline_nested;
        match t.tele with
        | Some tl ->
          Telemetry.incr tl.c_jobs_inline;
          Telemetry.with_span (Some tl.sink) "pool.inline" inline
        | None -> inline ()
      end
      else begin
        let tele = t.tele in
        (match tele with Some tl -> Telemetry.incr tl.c_jobs | None -> ());
        let submitted =
          match tele with Some tl -> Telemetry.now tl.sink | None -> 0.
        in
        let j =
          {
            chunks;
            batch;
            body;
            fault;
            submitted;
            timeout_s;
            deadline =
              Option.map (fun s -> Telemetry.monotonic_s () +. s) timeout_s;
            cancel;
            next = Atomic.make 0;
            cancelled = Atomic.make false;
            abandon = Atomic.make false;
            tripped = false;
            retired = 0;
            finished = false;
            error = None;
          }
        in
        t.current <- Some j;
        Condition.broadcast t.work_available;
        Mutex.unlock t.mutex;
        work_on t ~on_worker:false j;
        Mutex.lock t.mutex;
        while not j.finished do
          Condition.wait t.job_done t.mutex
        done;
        t.current <- None;
        Mutex.unlock t.mutex;
        (match tele with
        | Some tl ->
          Telemetry.observe tl.h_job (Telemetry.now tl.sink -. submitted)
        | None -> ());
        match j.error with
        | None -> ()
        | Some (_, (Fault.Injected _ as e), _) ->
          (* Only this job degrades: it re-runs sequentially under its
             own deadline; the next job fans out on the full pool. *)
          degrade_job t ~degrade ~warn e;
          finish_suppressed
            ~check:(check_boundary t ?deadline:j.deadline ?timeout_s ?cancel)
            ~from:0 ~chunks body
        | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
      end
    end
  end

(* Pool-less jobs run on a worker-less pool shared by the process: the
   same sequential executor, with nothing to spawn or join. *)
let detached = create ~domains:1 ()

let sequential_for ?timeout_s ?cancel ?fault ?degrade ?warn ~chunks body =
  parallel_for ?timeout_s ?cancel ?fault ?degrade ?warn detached ~chunks body

let map ?timeout_s ?cancel ?batch t f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    parallel_for ?timeout_s ?cancel ?batch t ~chunks:n (fun i ->
        out.(i) <- Some (f xs.(i)));
    Array.map (function Some y -> y | None -> assert false) out
  end

let map_list ?timeout_s ?cancel ?batch t f xs =
  Array.to_list (map ?timeout_s ?cancel ?batch t f (Array.of_list xs))

let map_reduce ?timeout_s ?cancel ?batch t ~map:f ~reduce ~init xs =
  Array.fold_left reduce init (map ?timeout_s ?cancel ?batch t f xs)
