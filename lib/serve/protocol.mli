(** The daemon's wire protocol: newline-delimited JSON requests in,
    newline-delimited JSON responses out.

    A request is one JSON object per line:

    {v
    {"id":1,"verb":"evaluate",
     "params":{"code":"BGC","length":10,"radix":2,"wires":20,
               "raw_bits":131072},
     "exec":{"seed":7,"mc_samples":1000,"timeout":5.0,
             "fault_plan":"seed=1;pool.chunk:crash:p=1",
             "no_degrade":true,"chunks":"auto"}}
    v}

    and the response is one JSON object per line, either

    {v {"id":1,"status":"ok","verb":"evaluate","cached":false,"result":{...}} v}

    or the error shape that mirrors the CLI's exit codes
    ({!Nanodec_error.exit_code}) as machine-readable fields:

    {v {"id":1,"status":"error","kind":"invalid-input","exit_code":2,
        "message":"...","hint":...} v}

    {!handle_line} never raises and never kills the connection: malformed
    JSON, unknown verbs, out-of-range numerics and classifiable runtime
    failures ({!Nanodec.Errors.classify}) all render as error responses;
    even unclassifiable exceptions render as [internal] rather than
    crashing the daemon.  Responses carry no wall-clock or host fields,
    so equal requests produce byte-equal responses — the property the
    CI smoke goldens and the concurrent-soak determinism test rely on.

    The cached verbs ([evaluate], [yield], [sweep], [codes]) do not
    render their results per request: the artifact cache stores each
    result as its rendered fragment ({!Artifacts.value}), and the
    response splices those bytes into the envelope.  The splice is
    byte-identical to rendering the whole response tree.

    Execution knobs in ["exec"] are validated by the same
    {!Nanodec_error} validators as the CLI flags and applied through
    {!Nanodec_parallel.Run_ctx.with_request}, and every request borrows
    the daemon's shared pool.  Requests carrying a fault plan or
    [no_degrade] bypass the result caches, so injected faults actually
    execute.  A timeout does not: a deadline-bearing request is served
    from the cache like any other, since a result computed inside its
    deadline is the same bytes.  Its deadline
    bounds only the work it runs itself; a timed-out build stores
    nothing, and requests waiting on that build retry instead of
    inheriting the timeout ({!Artifact_cache.find_or_build}). *)

type state
(** One daemon's protocol state: the artifact cache, the shared base
    context and the request/error counters of the [stats] verb.  The
    counters and the stopping latch are atomic — {!handle_line} is safe
    to call from concurrent worker threads (responses stay pure
    functions of their requests; only the [stats] counters observe the
    interleaving). *)

(** A live view of the server's dispatch scheduler, reported by the
    [stats] verb and (as drained-vs-shed counts) by [shutdown]. *)
type scheduler = {
  max_inflight : int;  (** worker-thread count *)
  max_queue : int;  (** admission bound beyond the workers *)
  inflight : int;  (** requests executing right now *)
  queued : int;  (** requests waiting for a worker *)
  shed : int;  (** requests refused with [Overloaded] so far *)
  snapshot_age_s : float option;
      (** seconds since the last successful cache snapshot; [None]
          when persistence is off or nothing was written yet *)
}

val make_state :
  ?cache_enabled:bool ->
  ?cache_capacity:int ->
  base:Nanodec_parallel.Run_ctx.t ->
  unit ->
  state
(** [cache_capacity] defaults to 256 entries; [cache_enabled:false] is
    [serve --no-cache] (every request executes cold). *)

val artifacts : state -> Artifacts.t

val base : state -> Nanodec_parallel.Run_ctx.t
(** The shared base context requests derive from — the server reads
    its telemetry sink for the [serve.request_s] histogram. *)

val requests : state -> int
(** Lines processed so far (including malformed ones). *)

val errors : state -> int
(** Lines answered with an error response. *)

val stopping : state -> bool
(** Set once a [shutdown] request has been answered; the server loop
    drains and exits when it sees this. *)

val set_scheduler_probe : state -> (unit -> scheduler) option -> unit
(** Install the server's scheduler view (called once, before any
    worker runs).  Without a probe the [stats]/[shutdown] scheduling
    fields report the serial picture: one in-flight request (the one
    being answered), nothing queued, nothing shed. *)

val known_verbs : string list
(** ping, evaluate, yield, sweep, codes, check, stats, shutdown. *)

val handle_line : state -> string -> string
(** [handle_line state line] executes one request line and returns the
    response line (newline not included).  Total: never raises. *)

val error_line : Nanodec_error.t -> string
(** Render a connection-level error (no request to take an ["id"]
    from) in the same error shape {!handle_line} uses — the server's
    oversized-line response goes through this. *)
