(** Supervised fixed-size domain pool with batched chunk claiming.

    A pool owns [domains - 1] worker domains (the submitting domain is
    the remaining one — it always participates in its own jobs), fed
    through a single-job work queue.  Jobs are sets of independent,
    index-addressed chunks; results land in caller-owned slots keyed by
    chunk index, so the outcome of a job is a pure function of the chunk
    bodies and {e never} of the domain count, the batch size or the
    scheduling order.  Every parallel entry point in the library builds
    on this contract to stay bit-for-bit deterministic.

    Scheduling: each participating domain claims [batch] consecutive
    chunk indices per atomic fetch-and-add on the job's cursor and runs
    the whole batch before touching any shared state again, so claim
    overhead is O(chunks / batch) atomic adds per job — not a lock
    round trip per chunk.  [batch] is a pure scheduling knob: it moves
    wall-clock time, never results.  The Monte-Carlo estimator picks
    chunk and batch sizes from (samples, domains) alone, the same plan
    on every run.

    Guarantees:
    {ul
    {- [domains = 1] (no workers) degrades to a plain in-order loop on
       the calling domain — no spawning, no synchronisation;}
    {- an exception raised inside a chunk cancels the job's unclaimed
       chunks, is recorded, and is re-raised at the join point {e after}
       every in-flight chunk has drained — no orphaned domains, and the
       pool stays usable for subsequent jobs;}
    {- when several chunks fail, the one with the lowest chunk index
       wins, matching what the sequential loop would have raised;}
    {- a job submitted while the pool is busy (nested submission from
       inside a chunk, or a concurrent job from another domain) runs
       inline on the submitting domain — same results, no deadlock.}}

    {2 Supervision}

    The pool is the recovery layer of the fault-injection story
    ({!Nanodec_fault.Fault}).  The policy is per job — the arguments
    [?timeout_s ?cancel ?fault ?degrade ?warn] of {!parallel_for} —
    never pool state, so jobs with different policies share one pool
    and no job changes how the next one runs:

    {ul
    {- {e Deadlines}: [parallel_for ~timeout_s] gives the job a
       deadline, checked cooperatively at chunk boundaries — inside
       the batch loop, so a deadline expiring mid-batch stops the
       batch's remaining chunks too (a running chunk is never
       preempted — OCaml domains cannot be killed).  On expiry the job
       cancels its unclaimed chunks, drains, and the join raises
       [Nanodec_error.Error (Timeout _)].}
    {- {e Cancellation}: a {!Cancel.t} token, checked at the same
       boundaries; a cancelled job raises
       [Nanodec_error.Error (Timeout {seconds = None; _})].}
    {- {e Retry}: the job's [fault] engine is probed at the
       [pool.chunk] site (keyed by chunk index) before each chunk
       body.  A chunk that dies of {!Nanodec_fault.Fault.Injected} (a
       transient injected crash) is retried in place, up to 2 times
       with exponential backoff; each attempt gets a fresh
       deterministic fault decision.  Organic exceptions are never
       retried.}
    {- {e Degradation}: when a chunk runs out of retries the job
       degrades: it finishes sequentially with injection suppressed
       (a fanned-out job re-runs whole, a sequential one continues
       from the failed chunk), so it still completes with
       bit-identical results (chunk bodies must be restartable — all
       of this library's are).  The next job starts on the full pool
       again.  The first degradation on a pool is announced on stderr
       unless the job passes [~warn:false] (chaos harnesses that
       inject faults on purpose do).  With [~degrade:false] the job
       instead raises [Nanodec_error.Error (Degraded _)].}}

    Injected crashes therefore never fail a pool-managed computation;
    only timeouts, cancellations, organic exceptions and (with
    [~degrade:false]) the explicit no-recovery policy do.

    A pool can carry a {!Nanodec_telemetry.Telemetry.sink}: the
    scheduler then records per-batch queue-wait and compute-time
    histograms, per-job latency, and counters separating chunks run by
    the submitter from chunks stolen by workers ([pool.chunks.*], still
    chunk-granular), claims ([pool.batches]), fanned-out jobs from
    inline ones, plus the supervision counters [pool.retries],
    [pool.timeouts] and [pool.degraded_jobs].  The probes observe and
    never steer — an instrumented run is bit-for-bit identical to a
    bare one. *)

type t

(** Cooperative cancellation tokens, checked at chunk boundaries. *)
module Cancel : sig
  type t

  val create : unit -> t

  val cancel : t -> unit
  (** Ask every job carrying this token to stop.  Idempotent;
      domain-safe (an atomic flag). *)

  val is_cancelled : t -> bool
end

val parse_domains : string -> int option
(** Parse a [NANODEC_DOMAINS]-style value: [Some n] for a positive
    decimal integer, [None] otherwise.  Exposed for tests. *)

val default_domains : unit -> int
(** The [NANODEC_DOMAINS] environment override when set to a positive
    integer (raises [Invalid_argument] on a malformed value), otherwise
    [Domain.recommended_domain_count ()]. *)

val create :
  ?domains:int -> ?telemetry:Nanodec_telemetry.Telemetry.sink -> unit -> t
(** [create ~domains ()] spawns [domains - 1] worker domains
    ([domains] defaults to {!default_domains}; clamped to at most 64).
    [telemetry] attaches a sink from the start.  Raises
    [Invalid_argument] if [domains < 1]. *)

val domains : t -> int
(** Total domains working a job, including the submitter. *)

val set_telemetry : t -> Nanodec_telemetry.Telemetry.sink option -> unit
(** Attach ([Some]) or detach ([None]) the telemetry sink.  Call
    between jobs, not from inside a chunk body. *)

val telemetry : t -> Nanodec_telemetry.Telemetry.sink option
(** The currently attached sink, if any. *)

val degraded_jobs : t -> int
(** Jobs completed through the sequential degradation path. *)

val retries : t -> int
(** Chunk retry attempts made against injected crashes, across the
    pool's lifetime.  Counted unconditionally, like
    {!inline_submissions}. *)

val inline_submissions : t -> int
(** How many jobs were submitted while the pool was busy and therefore
    ran inline on the submitting domain (nested parallelism).  Counted
    unconditionally — no sink required — so the previously invisible
    inline path is always observable. *)

val shutdown : t -> unit
(** Join every worker domain.  Idempotent.  Using the pool afterwards
    raises [Invalid_argument]. *)

val with_pool :
  ?domains:int ->
  ?telemetry:Nanodec_telemetry.Telemetry.sink ->
  (t -> 'a) ->
  'a
(** [with_pool f] runs [f] on a fresh pool and shuts it down on exit,
    normal or exceptional. *)

val parallel_for :
  ?timeout_s:float ->
  ?cancel:Cancel.t ->
  ?fault:Nanodec_fault.Fault.t ->
  ?degrade:bool ->
  ?warn:bool ->
  ?batch:int ->
  t ->
  chunks:int ->
  (int -> unit) ->
  unit
(** [parallel_for pool ~chunks body] runs [body i] for every
    [i] in [0 .. chunks - 1], with each domain claiming [batch]
    (default 1, must be >= 1) consecutive indices per atomic claim.
    Returns when all chunks have completed (or, under a fault plan,
    have been recovered — see the supervision section).  A job that
    amounts to a single claim (ceil(chunks / batch) = 1) runs inline on
    the submitter, counted under [pool.jobs.sequential].  [batch] never
    affects results, only scheduling.  [timeout_s] must be positive
    when given.  The supervision policy is this job's alone: [fault]
    (default none), [degrade] (default [true]: finish sequentially
    rather than fail [Degraded] once a chunk runs out of retries) and
    [warn] (default [true]: announce the pool's first degradation on
    stderr). *)

val sequential_for :
  ?timeout_s:float ->
  ?cancel:Cancel.t ->
  ?fault:Nanodec_fault.Fault.t ->
  ?degrade:bool ->
  ?warn:bool ->
  chunks:int ->
  (int -> unit) ->
  unit
(** {!parallel_for} without a pool of the caller's: the job runs in
    order on the calling domain through the sequential executor a
    1-domain pool uses, with the same deadline, cancellation, retry and
    degradation semantics.  The executor belongs to a worker-less pool
    shared by the process, so its degradation warning fires at most
    once per process and its counters are not observable. *)

val map :
  ?timeout_s:float -> ?cancel:Cancel.t -> ?batch:int -> t -> ('a -> 'b) ->
  'a array -> 'b array
(** [map pool f xs] is [Array.map f xs] with the elements evaluated
    across the pool; result order is the input order. *)

val map_list :
  ?timeout_s:float -> ?cancel:Cancel.t -> ?batch:int -> t -> ('a -> 'b) ->
  'a list -> 'b list
(** [map] over a list, preserving order. *)

val map_reduce :
  ?timeout_s:float ->
  ?cancel:Cancel.t ->
  ?batch:int ->
  t ->
  map:('a -> 'b) ->
  reduce:('b -> 'b -> 'b) ->
  init:'b ->
  'a array ->
  'b
(** [map_reduce pool ~map ~reduce ~init xs] evaluates [map] across the
    pool, then folds the results {e left-to-right in index order} —
    [reduce (... (reduce init y0) ...) yn] — so non-associative or
    non-commutative reductions (floating-point sums included) are
    reproducible for every domain count. *)
