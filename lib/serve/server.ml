(* A request's path.  The select loop frames a line; on a connection
   with nothing outstanding it first tries the line on the cache alone
   ([answer_inline], {!Protocol.handle_hit}), and a hit is answered and
   written within the same turn of the loop.  Any other line is queued
   for a worker thread ([enqueue]), whose response comes back through
   [completions] and the self-pipe wake-up.  Both paths deliver through
   the connection's arrival-ordered output, written as soon as it is
   ready. *)

module E = Nanodec_error
module Telemetry = Nanodec_telemetry.Telemetry
module Run_ctx = Nanodec_parallel.Run_ctx
module Fault = Nanodec_fault.Fault
module Errors = Nanodec.Errors

type address = [ `Unix of string | `Tcp of int ]

let default_max_line_bytes = 1024 * 1024
let default_max_inflight = 4
let default_max_queue = 64
let read_chunk = 65536

type conn = {
  id : int;  (* completions address connections by id, not fd *)
  fd : Unix.file_descr;
  inbuf : Buffer.t;  (* bytes of the current incomplete line *)
  out : Buffer.t;  (* response bytes queued behind [sending] *)
  mutable sending : string;  (* the bytes being written now *)
  mutable sent : int;  (* how much of [sending] is written *)
  mutable discarding : bool;  (* inside an oversized line, until '\n' *)
  mutable closing : bool;  (* EOF seen: close once everything is answered *)
  mutable next_seq : int;  (* arrival index of the next submitted line *)
  mutable next_write : int;  (* arrival index the output is waiting for *)
  pending : (int, string) Hashtbl.t;
      (* responses that finished ahead of an earlier request — held
         until the arrival-order prefix is contiguous, which is what
         keeps concurrent execution invisible on the wire *)
  mutable last_activity : float;
  mutable line_started : float option;
      (* when the current incomplete line began — the slow-read guard *)
}

(* One admitted request: the response routing identity (conn, seq) and
   the dispatch fault key. *)
type job = {
  conn_id : int;
  seq : int;
  line : string;
  key : int;  (* serve.dispatch fault key *)
}

(* The dispatch scheduler: worker threads pull jobs from a bounded
   queue; the select loop is the only producer and the only consumer
   of [completions].  [outstanding] counts queued + in-flight jobs —
   admission control sheds at [max_inflight + max_queue] so the
   decision depends only on submissions and completions, never on how
   quickly a worker happens to pop the queue. *)
type sched = {
  mutex : Mutex.t;
  nonempty : Condition.t;
  jobs : job Queue.t;
  mutable inflight : int;
  mutable outstanding : int;
  mutable shed : int;
  mutable stop : bool;
  mutable completions : (int * int * string) list;  (* (conn id, seq, line) *)
  mutable workers : Thread.t list;
}

type t = {
  state : Protocol.state;
  listen_fd : Unix.file_descr;
  bound : address;
  unlink_on_close : string option;
  max_line_bytes : int;
  max_inflight : int;
  max_queue : int;
  idle_timeout_s : float option;
  cache_file : string option;
  snapshot_interval_s : float;
  sched : sched;
  wake_r : Unix.file_descr;  (* self-pipe: workers wake the select loop *)
  wake_w : Unix.file_descr;
  read_buf : Bytes.t;
      (* the select loop's one read buffer, shared by every socket and
         the wake pipe; [feed] copies out whatever it keeps *)
  mutable conns : conn list;
  mutable open_ : bool;
  mutable next_conn_id : int;
  mutable next_key : int;  (* serve.dispatch fault key: global arrival index *)
  mutable term_requested : bool;
  mutable last_snapshot_check : float;
  mutable last_snapshot_mark : int;  (* cache (misses+evictions) at last write *)
  mutable snapshot_time : float option;
  mutable snapshot_ordinal : int;  (* serve.snapshot fault key *)
}

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()
let sink t = Run_ctx.telemetry (Protocol.base t.state)
let fault t = Run_ctx.fault (Protocol.base t.state)

let warn fmt =
  Format.kasprintf (fun msg -> Format.eprintf "nanodec serve: %s@." msg) fmt

(* --- crash-safe cache persistence --- *)

let load_snapshot ~state path =
  match Snapshot.load ~path ~schema:Artifacts.snapshot_schema with
  | Ok [] -> ()
  | Ok entries -> (
    match Artifacts.restore (Protocol.artifacts state) entries with
    | Ok () ->
      warn "restored %d cached artifacts from %s" (List.length entries) path
    | Error msg ->
      warn "ignoring snapshot with non-fragment records (starting cold): %s: %s"
        path msg)
  | Error msg ->
    (* Corruption costs the warm cache, never the daemon. *)
    warn "ignoring corrupt snapshot (starting cold): %s" msg

let cache_mark t =
  let s = Artifact_cache.stats (Protocol.artifacts t.state) in
  (* Any insert into an enabled cache is a miss, and contents only
     change through inserts and the evictions they cause — so this
     pair moves exactly when the cache does. *)
  s.Artifact_cache.misses + s.Artifact_cache.evictions

let write_snapshot t path ~now =
  let ordinal = t.snapshot_ordinal in
  t.snapshot_ordinal <- ordinal + 1;
  let mark = cache_mark t in
  match
    Fault.hit (fault t) ~key:ordinal "serve.snapshot";
    Snapshot.save ~path ~schema:Artifacts.snapshot_schema
      (Artifacts.snapshot (Protocol.artifacts t.state))
  with
  | Ok () ->
    t.last_snapshot_mark <- mark;
    t.snapshot_time <- Some now;
    Telemetry.count (sink t) "serve.snapshots" 1
  | Error msg -> warn "snapshot failed (will retry): %s" msg
  | exception exn ->
    (* An injected serve.snapshot crash (or any other surprise): skip
       this cycle; the previous on-disk snapshot stays intact. *)
    warn "snapshot skipped: %s" (Printexc.to_string exn)

let maybe_snapshot t ~now ~force =
  match t.cache_file with
  | None -> ()
  | Some path ->
    if force || now -. t.last_snapshot_check >= t.snapshot_interval_s then begin
      t.last_snapshot_check <- now;
      if cache_mark t <> t.last_snapshot_mark then write_snapshot t path ~now
    end

(* --- scheduler --- *)

let wake t =
  try ignore (Unix.write_substring t.wake_w "!" 0 1)
  with Unix.Unix_error _ -> ()
(* EAGAIN: a wake byte is already pending, which is all we need;
   EBADF/EPIPE: [close] raced us, the loop is gone anyway. *)

(* Every answered request, inline or on a worker, is timed and counted
   alike. *)
let record_request t t0 =
  Telemetry.record (sink t) "serve.request_s"
    (Telemetry.monotonic_s () -. t0);
  Telemetry.count (sink t) "serve.requests" 1

let execute_line t ~key ~line =
  let t0 = Telemetry.monotonic_s () in
  let response =
    match
      Fault.hit (fault t) ~key "serve.dispatch";
      Protocol.handle_line t.state line
    with
    | response -> response
    | exception exn -> (
      (* [handle_line] is total, so only the dispatch probe lands
         here — render it like any classified failure and keep
         serving. *)
      match Errors.classify exn with
      | Some err -> Protocol.error_line err
      | None -> Protocol.error_line (E.internal (Printexc.to_string exn)))
  in
  record_request t t0;
  response

(* A request answered from the cache on the select loop: never queued,
   never outstanding, and not probed at [serve.dispatch].  A declined
   attempt records nothing. *)
let answer_inline t line =
  let t0 = Telemetry.monotonic_s () in
  let response = Protocol.handle_hit t.state line in
  if Option.is_some response then record_request t t0;
  response

(* Publish one finished request: settle the scheduler accounting and
   hand the response to the select loop. *)
let finish t job response =
  Mutex.lock t.sched.mutex;
  t.sched.inflight <- t.sched.inflight - 1;
  t.sched.outstanding <- t.sched.outstanding - 1;
  t.sched.completions <- (job.conn_id, job.seq, response) :: t.sched.completions;
  Mutex.unlock t.sched.mutex;
  wake t

let worker_loop t =
  let rec loop () =
    Mutex.lock t.sched.mutex;
    while Queue.is_empty t.sched.jobs && not t.sched.stop do
      Condition.wait t.sched.nonempty t.sched.mutex
    done;
    if Queue.is_empty t.sched.jobs then Mutex.unlock t.sched.mutex
    else begin
      let job = Queue.pop t.sched.jobs in
      t.sched.inflight <- t.sched.inflight + 1;
      Mutex.unlock t.sched.mutex;
      finish t job (execute_line t ~key:job.key ~line:job.line);
      loop ()
    end
  in
  loop ()

let start_workers t =
  t.sched.workers <-
    List.init t.max_inflight (fun _ -> Thread.create worker_loop t)

let stop_workers t ~join =
  Mutex.lock t.sched.mutex;
  t.sched.stop <- true;
  Condition.broadcast t.sched.nonempty;
  Mutex.unlock t.sched.mutex;
  if join then begin
    List.iter Thread.join t.sched.workers;
    t.sched.workers <- []
  end

let scheduler_view t () =
  Mutex.lock t.sched.mutex;
  let inflight = t.sched.inflight in
  let queued = Queue.length t.sched.jobs in
  let shed = t.sched.shed in
  Mutex.unlock t.sched.mutex;
  {
    Protocol.max_inflight = t.max_inflight;
    max_queue = t.max_queue;
    inflight;
    queued;
    shed;
    snapshot_age_s =
      Option.map (fun ts -> Telemetry.monotonic_s () -. ts) t.snapshot_time;
  }

(* --- lifecycle --- *)

let create ?(backlog = 16) ?(max_line_bytes = default_max_line_bytes)
    ?(max_inflight = default_max_inflight) ?(max_queue = default_max_queue)
    ?idle_timeout_s ?cache_file ?(snapshot_interval_s = 5.0) ~state address =
  if max_inflight < 1 then
    E.invalid_inputf "max-inflight must be >= 1 (got %d)" max_inflight;
  if max_queue < 1 then
    E.invalid_inputf "max-queue must be >= 1 (got %d)" max_queue;
  Option.iter (E.check_timeout_s ~what:"idle-timeout") idle_timeout_s;
  E.check_timeout_s ~what:"snapshot-interval" snapshot_interval_s;
  Option.iter (load_snapshot ~state) cache_file;
  let fd, bound, unlink_on_close =
    match address with
    | `Unix path ->
      (match (Unix.stat path).Unix.st_kind with
      | Unix.S_SOCK -> (try Unix.unlink path with Unix.Unix_error _ -> ())
      | _ ->
        E.invalid_inputf ~hint:"refusing to unlink a non-socket file"
          "socket path %S already exists" path
      | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try Unix.bind fd (Unix.ADDR_UNIX path)
       with Unix.Unix_error (err, _, _) ->
         close_fd fd;
         E.invalid_inputf "cannot bind Unix socket %S: %s" path
           (Unix.error_message err));
      (fd, `Unix path, Some path)
    | `Tcp port ->
      if port < 0 || port > 65535 then
        E.invalid_inputf "TCP port must be in [0, 65535] (got %d)" port;
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
      (try Unix.bind fd addr
       with Unix.Unix_error (err, _, _) ->
         close_fd fd;
         E.invalid_inputf "cannot bind 127.0.0.1:%d: %s" port
           (Unix.error_message err));
      let bound_port =
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> p
        | Unix.ADDR_UNIX _ -> port
      in
      (fd, `Tcp bound_port, None)
  in
  Unix.listen fd backlog;
  Unix.set_nonblock fd;
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let t =
    {
      state;
      listen_fd = fd;
      bound;
      unlink_on_close;
      max_line_bytes;
      max_inflight;
      max_queue;
      idle_timeout_s;
      cache_file;
      snapshot_interval_s;
      sched =
        {
          mutex = Mutex.create ();
          nonempty = Condition.create ();
          jobs = Queue.create ();
          inflight = 0;
          outstanding = 0;
          shed = 0;
          stop = false;
          completions = [];
          workers = [];
        };
      wake_r;
      wake_w;
      read_buf = Bytes.create read_chunk;
      conns = [];
      open_ = true;
      next_conn_id = 0;
      next_key = 0;
      term_requested = false;
      last_snapshot_check = Telemetry.monotonic_s ();
      last_snapshot_mark = 0;
      snapshot_time = None;
      snapshot_ordinal = 0;
    }
  in
  Protocol.set_scheduler_probe state (Some (scheduler_view t));
  start_workers t;
  t

let address t = t.bound

let drop_conn t conn =
  t.conns <- List.filter (fun c -> c != conn) t.conns;
  close_fd conn.fd

let close t =
  if t.open_ then begin
    t.open_ <- false;
    stop_workers t ~join:false;
    close_fd t.listen_fd;
    List.iter (fun c -> close_fd c.fd) t.conns;
    t.conns <- [];
    close_fd t.wake_r;
    close_fd t.wake_w;
    Option.iter
      (fun path -> try Unix.unlink path with Unix.Unix_error _ -> ())
      t.unlink_on_close
  end

(* --- response ordering --- *)

(* Append every response whose arrival-order predecessors are already
   out; later completions wait in [conn.pending].  Responses go into a
   buffer, never onto the unsent string, so a client that pipelines
   many lines and reads late costs one copy per byte, not one per
   completion. *)
let flush_ready conn =
  let continue = ref true in
  while !continue do
    match Hashtbl.find_opt conn.pending conn.next_write with
    | Some response ->
      Hashtbl.remove conn.pending conn.next_write;
      conn.next_write <- conn.next_write + 1;
      Buffer.add_string conn.out response;
      Buffer.add_char conn.out '\n'
    | None -> continue := false
  done

let complete t conn_id seq response =
  match List.find_opt (fun c -> c.id = conn_id) t.conns with
  | Some conn ->
    Hashtbl.replace conn.pending seq response;
    flush_ready conn
  | None -> ()  (* the client left before its answer was ready *)

let unflushed conn =
  conn.sent < String.length conn.sending || Buffer.length conn.out > 0

(* Everything submitted has been answered and flushed. *)
let settled conn = conn.next_write = conn.next_seq && not (unflushed conn)

let handle_writable t conn =
  if conn.sending = "" then begin
    conn.sending <- Buffer.contents conn.out;
    Buffer.reset conn.out
  end;
  let pending = String.length conn.sending - conn.sent in
  if pending > 0 then
    match Unix.write_substring conn.fd conn.sending conn.sent pending with
    | n ->
      conn.sent <- conn.sent + n;
      if conn.sent = String.length conn.sending then begin
        conn.sending <- "";
        conn.sent <- 0;
        if conn.closing && settled conn then drop_conn t conn
      end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      -> ()
    | exception Unix.Unix_error _ -> drop_conn t conn

(* Responses are written as soon as they are ready; only what the
   socket does not take at once waits for [select]. *)
let write_ready t =
  List.iter (fun c -> if unflushed c then handle_writable t c) t.conns

let drain_completions t =
  Mutex.lock t.sched.mutex;
  let completions = t.sched.completions in
  t.sched.completions <- [];
  Mutex.unlock t.sched.mutex;
  (* Arrival order is restored by the per-connection sequence numbers,
     so the list order (newest first) does not matter. *)
  if completions <> [] then begin
    List.iter (fun (conn_id, seq, r) -> complete t conn_id seq r) completions;
    write_ready t
  end

let drain_wake t =
  let rec go () =
    match Unix.read t.wake_r t.read_buf 0 (Bytes.length t.read_buf) with
    | 0 -> ()
    | _ -> go ()
  in
  try go ()
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
    ()

(* --- admission --- *)

let enqueue t conn ~seq ~key line =
  let capacity = t.max_inflight + t.max_queue in
  Mutex.lock t.sched.mutex;
  let outstanding = t.sched.outstanding in
  if outstanding >= capacity then begin
    t.sched.shed <- t.sched.shed + 1;
    Mutex.unlock t.sched.mutex;
    Telemetry.count (sink t) "serve.shed" 1;
    complete t conn.id seq
      (Protocol.error_line
         (E.Overloaded
            { site = "serve.dispatch"; pending = outstanding; limit = capacity }))
  end
  else begin
    t.sched.outstanding <- outstanding + 1;
    Queue.push { conn_id = conn.id; seq; line; key } t.sched.jobs;
    Condition.signal t.sched.nonempty;
    Mutex.unlock t.sched.mutex;
    Telemetry.record (sink t) "serve.queue_depth" (float_of_int (outstanding + 1))
  end

(* A line on a connection with nothing outstanding is first tried on
   the select loop, from the cache alone ({!Protocol.handle_hit}); it
   still takes its arrival key, so dispatch keys stay global arrival
   indices.  Anything else — a miss (the attempt ran into
   [Artifact_cache.Not_cached]), an uncached verb, an earlier request
   still unanswered — goes to [enqueue]. *)
let submit t conn line =
  let seq = conn.next_seq in
  conn.next_seq <- seq + 1;
  let key = t.next_key in
  t.next_key <- key + 1;
  let answered = if conn.next_write = seq then answer_inline t line else None in
  match answered with
  | Some response -> complete t conn.id seq response
  | None -> enqueue t conn ~seq ~key line

let oversized t conn =
  (* Answered locally (never dispatched), but through the same
     sequence numbering so it lands in arrival order. *)
  let seq = conn.next_seq in
  conn.next_seq <- seq + 1;
  complete t conn.id seq
    (Protocol.error_line
       (E.Invalid_input
          {
            what =
              Printf.sprintf "request line exceeds %d bytes" t.max_line_bytes;
            hint = Some "one JSON object per line";
          }))

(* The first '\n' in [data] at or after [i] and before [n]; bytes from
   [n] on are stale leftovers of earlier reads. *)
let rec newline_before data i n =
  if i >= n then None
  else if Bytes.get data i = '\n' then Some i
  else newline_before data (i + 1) n

(* Split the first [n] freshly read bytes of [data] into complete
   lines (dispatching each) and stash the incomplete tail back into
   [conn.inbuf], honouring the oversized-line resync state.  Nothing
   keeps a reference to [data]: it is the shared read buffer. *)
let feed t conn data n =
  let pos = ref 0 in
  while !pos < n do
    match newline_before data !pos n with
    | Some nl ->
      if conn.discarding then begin
        (* Tail of an already-answered oversized line: swallow it and
           resynchronise. *)
        conn.discarding <- false;
        Buffer.clear conn.inbuf
      end
      else begin
        Buffer.add_subbytes conn.inbuf data !pos (nl - !pos);
        let line = Buffer.contents conn.inbuf in
        Buffer.clear conn.inbuf;
        if String.length line > t.max_line_bytes then oversized t conn
        else if String.trim line <> "" then submit t conn line
      end;
      conn.line_started <- None;
      pos := nl + 1
    | None ->
      if not conn.discarding then begin
        if Buffer.length conn.inbuf = 0 && !pos < n then
          conn.line_started <- Some (Telemetry.monotonic_s ());
        Buffer.add_subbytes conn.inbuf data !pos (n - !pos);
        if Buffer.length conn.inbuf > t.max_line_bytes then begin
          oversized t conn;
          conn.discarding <- true;
          Buffer.clear conn.inbuf
        end
      end;
      pos := n
  done

(* --- socket events --- *)

let handle_readable t conn =
  match Unix.read conn.fd t.read_buf 0 (Bytes.length t.read_buf) with
  | 0 ->
    (* EOF: an incomplete trailing line is dropped by design (the
       client never finished sending it), but everything already
       dispatched is still answered before the close. *)
    if settled conn then drop_conn t conn else conn.closing <- true
  | n ->
    conn.last_activity <- Telemetry.monotonic_s ();
    feed t conn t.read_buf n;
    if unflushed conn then handle_writable t conn
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    -> ()
  | exception Unix.Unix_error _ -> drop_conn t conn

let handle_accept t =
  match Unix.accept t.listen_fd with
  | fd, _ ->
    Unix.set_nonblock fd;
    let id = t.next_conn_id in
    t.next_conn_id <- id + 1;
    t.conns <-
      {
        id;
        fd;
        inbuf = Buffer.create 256;
        out = Buffer.create 256;
        sending = "";
        sent = 0;
        discarding = false;
        closing = false;
        next_seq = 0;
        next_write = 0;
        pending = Hashtbl.create 8;
        last_activity = Telemetry.monotonic_s ();
        line_started = None;
      }
      :: t.conns
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    -> ()
  | exception Unix.Unix_error _ -> ()

(* Idle deadline + slowloris guard: a connection with no outstanding
   work that has been silent past the deadline — or that has been
   drip-feeding one incomplete line past it, however chatty the drip —
   is closed.  Connections still owed a response are never reaped. *)
let check_idle t ~now =
  match t.idle_timeout_s with
  | None -> ()
  | Some idle ->
    let victims =
      List.filter
        (fun c ->
          settled c
          && (now -. c.last_activity > idle
             ||
             match c.line_started with
             | Some started -> now -. started > idle
             | None -> false))
        t.conns
    in
    List.iter (fun c -> drop_conn t c) victims

(* --- drain & main loop --- *)

(* Graceful exit (shutdown verb or SIGTERM): no new connections, no
   new reads — every request already dispatched or queued is finished
   and its response flushed, the cache is snapshotted, the workers are
   joined.  Complete lines that were read before the stop are all
   answered; only unread bytes are abandoned. *)
let drain t =
  let deadline = Telemetry.monotonic_s () +. 30.0 in
  let rec settle () =
    drain_completions t;
    let waiting = List.exists (fun c -> c.next_write < c.next_seq) t.conns in
    let writers = List.filter unflushed t.conns in
    if (waiting || writers <> []) && Telemetry.monotonic_s () < deadline
    then begin
      match
        Unix.select [ t.wake_r ] (List.map (fun c -> c.fd) writers) [] 0.5
      with
      | r, w, _ ->
        if r <> [] then drain_wake t;
        List.iter
          (fun fd ->
            match List.find_opt (fun c -> c.fd = fd) t.conns with
            | Some conn -> handle_writable t conn
            | None -> ())
          w;
        settle ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> settle ()
    end
  in
  settle ();
  maybe_snapshot t ~now:(Telemetry.monotonic_s ()) ~force:true;
  stop_workers t ~join:true;
  close t

let serve t =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  (try
     Sys.set_signal Sys.sigterm
       (Sys.Signal_handle (fun _ -> t.term_requested <- true))
   with Invalid_argument _ -> ());
  let rec loop () =
    if not t.open_ then ()
    else begin
      drain_completions t;
      if Protocol.stopping t.state || t.term_requested then drain t
      else begin
        let now = Telemetry.monotonic_s () in
        check_idle t ~now;
        maybe_snapshot t ~now ~force:false;
        let reads =
          t.listen_fd :: t.wake_r :: List.map (fun c -> c.fd) t.conns
        in
        let writes =
          List.filter_map
            (fun c -> if unflushed c then Some c.fd else None)
            t.conns
        in
        match Unix.select reads writes [] 1.0 with
        | r, w, _ ->
          if List.mem t.wake_r r then begin
            drain_wake t;
            drain_completions t
          end;
          if List.mem t.listen_fd r then handle_accept t;
          List.iter
            (fun fd ->
              if fd <> t.listen_fd && fd <> t.wake_r then
                match List.find_opt (fun c -> c.fd = fd) t.conns with
                | Some conn -> handle_readable t conn
                | None -> ())
            r;
          List.iter
            (fun fd ->
              match List.find_opt (fun c -> c.fd = fd) t.conns with
              | Some conn -> handle_writable t conn
              | None -> ())
            w;
          loop ()
        | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) ->
          loop ()
        | exception Unix.Unix_error (Unix.EBADF, _, _) ->
          (* [close] raced us from another thread. *)
          ()
      end
    end
  in
  loop ()
