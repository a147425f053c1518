type 'v node = {
  key : string;
  value : 'v;
  cost_s : float;
  mutable prev : 'v node option;  (* towards most recently used *)
  mutable next : 'v node option;  (* towards least recently used *)
}

(* A build in progress: callers that miss the same key while it runs
   wait on [landed] (under the cache mutex) for its [outcome]. *)
type 'v flight = {
  mutable outcome : ('v * float, exn * Printexc.raw_backtrace) result option;
  landed : Condition.t;
}

type 'v t = {
  enabled : bool;
  capacity : int;
  table : (string, 'v node) Hashtbl.t;
  flights : (string, 'v flight) Hashtbl.t;
  mutable mru : 'v node option;
  mutable lru : 'v node option;
  mutable entries : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable build_s : float;
  mutable saved_s : float;
  mutex : Mutex.t;
}

type stats = {
  capacity : int;
  entries : int;
  hits : int;
  misses : int;
  evictions : int;
  build_s : float;
  saved_s : float;
}

let create ?(enabled = true) ~capacity () =
  if capacity < 1 then
    invalid_arg "Artifact_cache.create: capacity must be >= 1";
  {
    enabled;
    capacity;
    table = Hashtbl.create (min capacity 64);
    flights = Hashtbl.create 8;
    mru = None;
    lru = None;
    entries = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    build_s = 0.;
    saved_s = 0.;
    mutex = Mutex.create ();
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* --- recency list (callers hold the mutex) --- *)

let unlink t node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.mru <- node.next);
  (match node.next with
  | Some nx -> nx.prev <- node.prev
  | None -> t.lru <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.mru;
  node.prev <- None;
  (match t.mru with Some m -> m.prev <- Some node | None -> ());
  t.mru <- Some node;
  if t.lru = None then t.lru <- Some node

let evict_lru t =
  match t.lru with
  | None -> ()
  | Some node ->
    unlink t node;
    Hashtbl.remove t.table node.key;
    t.entries <- t.entries - 1;
    t.evictions <- t.evictions + 1

let insert t ~key ~cost_s value =
  (match Hashtbl.find_opt t.table key with
  | Some old ->
    (* Only {!restore} can meet a present key (builds of one key are
       single-flighted); the later entry wins. *)
    unlink t old;
    Hashtbl.remove t.table key;
    t.entries <- t.entries - 1
  | None -> ());
  let node = { key; value; cost_s; prev = None; next = None } in
  Hashtbl.replace t.table key node;
  push_front t node;
  t.entries <- t.entries + 1;
  while t.entries > t.capacity do
    evict_lru t
  done

let record_hit (t : _ t) cost_s =
  t.hits <- t.hits + 1;
  t.saved_s <- t.saved_s +. cost_s

let timed build =
  let now = Nanodec_telemetry.Telemetry.monotonic_s in
  let t0 = now () in
  let v = build () in
  (v, now () -. t0)

let unwrap = function
  | Ok r -> r
  | Error (exn, bt) -> Printexc.raise_with_backtrace exn bt

(* --- public API --- *)

(* Single-flight: the first caller to miss [key] registers a flight and
   builds outside the mutex; callers that miss while it runs wait on
   the flight instead of building again.  Builds of other keys —
   including the nested ones a build requests — proceed meanwhile.
   A flight that ran out of its builder's deadline says nothing about
   the waiter's own, so the waiter looks again (and builds if need be)
   rather than inherit the timeout. *)
let find_or_build t ~key build =
  if not t.enabled then begin
    locked t (fun () -> t.misses <- t.misses + 1);
    let v, cost_s = timed build in
    locked t (fun () -> t.build_s <- t.build_s +. cost_s);
    (v, false)
  end
  else
    let rec lookup () =
      match Hashtbl.find_opt t.table key with
      | Some node ->
        record_hit t node.cost_s;
        unlink t node;
        push_front t node;
        `Done (Ok (node.value, true))
      | None -> (
        match Hashtbl.find_opt t.flights key with
        | Some flight -> (
          while Option.is_none flight.outcome do
            Condition.wait flight.landed t.mutex
          done;
          match Option.get flight.outcome with
          | Ok (v, cost_s) ->
            record_hit t cost_s;
            `Done (Ok (v, true))
          | Error (Nanodec_error.Error (Nanodec_error.Timeout _), _) ->
            lookup ()
          | Error e ->
            t.misses <- t.misses + 1;
            `Done (Error e))
        | None ->
          let flight = { outcome = None; landed = Condition.create () } in
          Hashtbl.replace t.flights key flight;
          t.misses <- t.misses + 1;
          `Build flight)
    in
    match locked t lookup with
    | `Done r -> unwrap r
    | `Build flight ->
      let outcome =
        match timed build with
        | v, cost_s -> Ok (v, cost_s)
        | exception exn -> Error (exn, Printexc.get_raw_backtrace ())
      in
      locked t (fun () ->
          Hashtbl.remove t.flights key;
          (match outcome with
          | Ok (v, cost_s) ->
            t.build_s <- t.build_s +. cost_s;
            insert t ~key ~cost_s v
          | Error _ -> ());
          flight.outcome <- Some outcome;
          Condition.broadcast flight.landed);
      unwrap (Result.map (fun (v, _) -> (v, false)) outcome)

let mem t key = locked t (fun () -> Hashtbl.mem t.table key)
let length t = locked t (fun () -> t.entries)

let keys t =
  locked t (fun () ->
      let rec walk acc = function
        | None -> List.rev acc
        | Some node -> walk (node.key :: acc) node.next
      in
      walk [] t.mru)

let stats t =
  locked t (fun () ->
      {
        capacity = t.capacity;
        entries = t.entries;
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        build_s = t.build_s;
        saved_s = t.saved_s;
      })

let dump t =
  locked t (fun () ->
      let rec walk acc = function
        | None -> acc
        | Some node ->
          walk ((node.key, node.cost_s, node.value) :: acc) node.next
      in
      (* Walking MRU→LRU while consing reverses the order, so the
         result is LRU-first: replaying it through {!restore} in list
         order rebuilds the exact recency chain. *)
      walk [] t.mru)

let restore t entries =
  if t.enabled then
    locked t (fun () ->
        List.iter
          (fun (key, cost_s, value) -> insert t ~key ~cost_s value)
          entries)

let digest key = Digest.to_hex (Digest.string key)

let clear t =
  locked t (fun () ->
      Hashtbl.reset t.table;
      t.mru <- None;
      t.lru <- None;
      t.entries <- 0)
