(** The daemon's socket loop: accept, frame lines, dispatch, survive.

    One [select] loop multiplexes any number of client connections
    over a Unix-domain or loopback TCP socket and owns all socket
    state.  A complete request line on a connection with nothing
    outstanding is first tried on the loop itself
    ({!Protocol.handle_hit}): a cached verb whose every artifact is in
    the cache is answered there, with no queue, worker or wake-up in
    between.  Every other line — a miss, a build in flight, a fault
    plan or [no_degrade], an uncached verb, or any line behind an
    unanswered one — is dispatched onto a bounded queue served by
    [max_inflight] worker threads.  A response is written as soon as it
    is ready; [select] waits only for bytes the socket did not take.
    Concurrent execution is invisible on the wire: each connection's
    responses are written back in arrival order (later completions
    wait for earlier ones), so every response stream is byte-identical
    to the serial daemon's — the contract behind the CI smoke goldens
    and the concurrent-soak determinism test.

    {2 Admission control}

    At most [max_inflight + max_queue] requests are outstanding
    (executing or queued).  Beyond that the daemon sheds
    deterministically: the excess request is answered immediately with
    a structured [Overloaded] error ({!Nanodec_error.exit_overloaded})
    and counted in the [serve.shed] telemetry counter; accepted
    requests record the post-admission depth in the
    [serve.queue_depth] histogram.  Because the bound counts
    submissions minus completions, the shed decision never depends on
    how quickly a worker thread happens to be scheduled.  A request
    answered on the select loop is never submitted: it is not
    outstanding, not counted toward the bound and never shed.

    {2 Robustness}

    {ul
    {- a line longer than [max_line_bytes] is answered with an
       [invalid-input] error and the connection resynchronises at the
       next newline;}
    {- client disconnects, [EPIPE]/[ECONNRESET] and half-written
       responses only ever close that one connection — requests it
       already submitted still execute, their responses are discarded;}
    {- with [idle_timeout_s] set, a connection that has been silent
       past the deadline — or drip-feeding a single incomplete line
       past it (slowloris) — is closed, but never while it is owed a
       response;}
    {- a [shutdown] request or SIGTERM triggers a graceful drain:
       no new connects, no new reads, every dispatched or queued
       request finishes and flushes, a final cache snapshot is
       written, the workers are joined;}
    {- an injected [serve.dispatch] crash is answered as a classified
       error response; an injected [serve.snapshot] crash skips that
       snapshot cycle with a warning — neither kills the daemon.}}

    {2 Crash-safe cache persistence}

    With [cache_file] set, the artifact cache is restored from the
    snapshot at startup (any corrupt, truncated or mismatched file is
    ignored with a warning — a cold cache, never a crash loop) and
    re-snapshotted every [snapshot_interval_s] seconds whenever its
    contents changed, plus once on graceful drain.  Snapshots are
    checksummed and published atomically ({!Snapshot}), so [kill -9]
    at any instant leaves a loadable file and warm-cache hits survive
    the restart byte-identically.

    When the protocol state's base context carries a telemetry sink,
    every answered request, on the loop or on a worker, records its
    latency in the [serve.request_s] histogram and bumps
    [serve.requests]; an attempt on the loop that falls back to a
    worker records nothing.  A [serve.dispatch] fault probe runs only
    on the worker path, keyed by the global arrival index that every
    line takes. *)

type address =
  [ `Unix of string  (** filesystem path of a Unix-domain socket *)
  | `Tcp of int  (** loopback TCP port; 0 lets the kernel pick *) ]

type t

val default_max_line_bytes : int
(** 1 MiB. *)

val default_max_inflight : int
(** 4 worker threads. *)

val default_max_queue : int
(** 64 queued requests beyond the workers. *)

val create :
  ?backlog:int ->
  ?max_line_bytes:int ->
  ?max_inflight:int ->
  ?max_queue:int ->
  ?idle_timeout_s:float ->
  ?cache_file:string ->
  ?snapshot_interval_s:float ->
  state:Protocol.state ->
  address ->
  t
(** Bind and listen (unlinking a pre-existing Unix socket path), load
    the [cache_file] snapshot if one is given, install the scheduler
    probe into [state] and start the worker threads.  TCP binds
    loopback only.  [idle_timeout_s] defaults to off; [snapshot_interval_s] to 5 s
    (meaningful only with [cache_file]).  Raises
    [Nanodec_error.Error (Invalid_input _)] when the address cannot be
    bound or a knob is out of range. *)

val address : t -> address
(** The bound address — for [`Tcp 0], the port the kernel picked. *)

val serve : t -> unit
(** Run the loop until a [shutdown] request or SIGTERM completes the
    graceful drain.  The socket is closed (and a Unix path unlinked)
    on return. *)

val close : t -> unit
(** Close the listening socket and every connection without draining.
    Safe to call from another thread to abort {!serve}. *)
