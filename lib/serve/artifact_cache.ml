(* Replacement is GreedyDual-Size-Frequency (Cherkasova 1998): an
   entry's priority is [L + uses * weight cost_s], set whenever it is
   touched; the victim is the lowest priority, and evicting it raises
   the inflation [L] to its priority, so entries that stop being hit
   age out however costly they were.  Every entry's priority is >= L.

   Measured build costs below the floor are timing noise, not a
   difference in rebuild work: a closed-form fragment, ν matrix or
   analysis takes 15–120 µs, a Monte-Carlo estimate milliseconds.
   Flooring them makes the cheap kinds weigh alike, so among themselves
   they are ordered by uses and recency only. *)
let cost_floor_s = 100e-6

(* [NaN] (a corrupt snapshot cost) compares false and gets the floor. *)
let weight cost_s = if cost_s > cost_floor_s then cost_s else cost_floor_s

(* An entry's place in the eviction order: lowest [prio] first, and
   among equal priorities the least recently touched ([touch] is a
   per-cache counter, so ranks are unique). *)
type rank = { prio : float; touch : int }

module Order = Map.Make (struct
  type t = rank

  let compare a b =
    match Float.compare a.prio b.prio with
    | 0 -> Int.compare a.touch b.touch
    | c -> c
end)

type 'v entry = {
  key : string;
  value : 'v;
  cost_s : float;
  mutable uses : int;  (* since insertion, the insertion included *)
  mutable rank : rank;
}

(* A build in progress: callers that miss the same key while it runs
   wait on [landed] (under the cache mutex) for its [outcome], the
   entry it stored. *)
type 'v flight = {
  mutable outcome : ('v entry, exn * Printexc.raw_backtrace) result option;
  landed : Condition.t;
}

type 'v t = {
  enabled : bool;
  capacity : int;
  table : (string, 'v entry) Hashtbl.t;
  flights : (string, 'v flight) Hashtbl.t;
  mutable order : 'v entry Order.t;
  mutable inflation : float;  (* L: the last victim's priority *)
  mutable clock : int;  (* last [rank.touch] handed out *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable build_s : float;
  mutable saved_s : float;
  mutable evicted_cost_s : float;
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
  evicted_cost_s : float;
}

let create ?(enabled = true) ~capacity () =
  if capacity < 1 then
    invalid_arg "Artifact_cache.create: capacity must be >= 1";
  {
    enabled;
    capacity;
    table = Hashtbl.create (min capacity 64);
    flights = Hashtbl.create 8;
    order = Order.empty;
    inflation = 0.;
    clock = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    build_s = 0.;
    saved_s = 0.;
    evicted_cost_s = 0.;
    mutex = Mutex.create ();
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* --- eviction order (callers hold the mutex) --- *)

let next_rank t uses cost_s =
  t.clock <- t.clock + 1;
  {
    prio = t.inflation +. (float_of_int uses *. weight cost_s);
    touch = t.clock;
  }

let touch t e =
  t.order <- Order.remove e.rank t.order;
  e.uses <- e.uses + 1;
  e.rank <- next_rank t e.uses e.cost_s;
  t.order <- Order.add e.rank e t.order

let evict t =
  let r, victim = Order.min_binding t.order in
  t.order <- Order.remove r t.order;
  Hashtbl.remove t.table victim.key;
  t.inflation <- r.prio;
  t.evictions <- t.evictions + 1;
  t.evicted_cost_s <- t.evicted_cost_s +. victim.cost_s

(* Room is made first, so the new entry is ranked against the raised
   [L] and is never its own victim. *)
let insert t ~key ~cost_s value =
  (match Hashtbl.find_opt t.table key with
  | Some old ->
    (* Only {!restore} can meet a present key (builds of one key are
       single-flighted); the later entry wins. *)
    t.order <- Order.remove old.rank t.order;
    Hashtbl.remove t.table key
  | None -> ());
  while Hashtbl.length t.table >= t.capacity do
    evict t
  done;
  let e = { key; value; cost_s; uses = 1; rank = next_rank t 1 cost_s } in
  Hashtbl.replace t.table key e;
  t.order <- Order.add e.rank e t.order;
  e

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
   A waiter is a hit on the entry that landed, unless that entry has
   been evicted meanwhile.  A flight that ran out of its builder's
   deadline says nothing about the waiter's own, so the waiter looks
   again (and builds if need be) rather than inherit the timeout. *)
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
      | Some e ->
        record_hit t e.cost_s;
        touch t e;
        `Done (Ok (e.value, true))
      | None -> (
        match Hashtbl.find_opt t.flights key with
        | Some flight -> (
          while Option.is_none flight.outcome do
            Condition.wait flight.landed t.mutex
          done;
          match Option.get flight.outcome with
          | Ok e ->
            record_hit t e.cost_s;
            (match Hashtbl.find_opt t.table key with
            | Some present when present == e -> touch t e
            | Some _ | None -> ());
            `Done (Ok (e.value, true))
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
      let built =
        match timed build with
        | v, cost_s -> Ok (v, cost_s)
        | exception exn -> Error (exn, Printexc.get_raw_backtrace ())
      in
      locked t (fun () ->
          Hashtbl.remove t.flights key;
          flight.outcome <-
            Some
              (Result.map
                 (fun (v, cost_s) ->
                   t.build_s <- t.build_s +. cost_s;
                   insert t ~key ~cost_s v)
                 built);
          Condition.broadcast flight.landed);
      unwrap (Result.map (fun (v, _) -> (v, false)) built)

let mem t key = locked t (fun () -> Hashtbl.mem t.table key)
let length t = locked t (fun () -> Hashtbl.length t.table)

let keys t =
  locked t (fun () -> Order.fold (fun _ e acc -> e.key :: acc) t.order [])

let stats t =
  locked t (fun () ->
      {
        capacity = t.capacity;
        entries = Hashtbl.length t.table;
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        build_s = t.build_s;
        saved_s = t.saved_s;
        evicted_cost_s = t.evicted_cost_s;
      })

let dump t =
  locked t (fun () ->
      List.map
        (fun (_, e) -> (e.key, e.cost_s, e.value))
        (Order.bindings t.order))

let restore t entries =
  if t.enabled then
    locked t (fun () ->
        List.iter
          (fun (key, cost_s, value) -> ignore (insert t ~key ~cost_s value))
          entries)

let digest key = Digest.to_hex (Digest.string key)

let clear t =
  locked t (fun () ->
      Hashtbl.reset t.table;
      t.order <- Order.empty;
      t.inflation <- 0.)
