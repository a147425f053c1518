(* The serve daemon's content-addressed cache, proven correct two ways:
   unit tests of its mechanics (eviction order, recency refresh,
   replacement by cost and use, disabled pass-through, failure safety)
   and property-based oracles on the lib/proptest engine —

   - [eviction = GDSF list model]: after random restores and gets, the
     eviction order and count match a plain list model of the
     replacement policy,

   - [cache_hit ≡ cache_miss]: an arbitrary request sequence through an
     enabled cache (any capacity, including the eviction-heavy
     capacity-1 case) returns exactly the values the disabled
     (always-cold) cache returns, and

   - [cache_key injective on params]: distinct design parameters never
     collide in [Cave.config_key] / [Pattern.cache_key] /
     [Codebook.cache_key], which is what makes serving from the cache
     provably safe.

   These live here rather than in [Oracles.all] because the proptest
   library sits below the serve/crossbar layers in the dependency
   order; the engine is used directly. *)

open Nanodec_codes
open Nanodec_crossbar
open Nanodec_mspt
open Nanodec_serve
open Nanodec_proptest

let check_outcome = function
  | Property.Pass _ -> ()
  | Property.Fail f ->
    Alcotest.failf "%s" (Format.asprintf "%a" Property.pp_failure f)

(* --- eviction mechanics ---

   These builds take far less than the 100 µs cost floor, so every
   entry weighs the same and the order is recency's. *)

let test_miss_then_hit () =
  let cache = Artifact_cache.create ~capacity:4 () in
  let builds = ref 0 in
  let build () = incr builds; 42 in
  let v1, hit1 = Artifact_cache.find_or_build cache ~key:"a" build in
  let v2, hit2 = Artifact_cache.find_or_build cache ~key:"a" build in
  Alcotest.(check int) "same value" v1 v2;
  Alcotest.(check bool) "first is a miss" false hit1;
  Alcotest.(check bool) "second is a hit" true hit2;
  Alcotest.(check int) "built exactly once" 1 !builds

let test_lru_eviction_order () =
  let cache = Artifact_cache.create ~capacity:2 () in
  let get k = Artifact_cache.find_or_build cache ~key:k (fun () -> k) in
  ignore (get "a");
  ignore (get "b");
  ignore (get "c");
  (* a was least recently used *)
  Alcotest.(check bool) "a evicted" false (Artifact_cache.mem cache "a");
  Alcotest.(check bool) "b survives" true (Artifact_cache.mem cache "b");
  Alcotest.(check bool) "c survives" true (Artifact_cache.mem cache "c");
  Alcotest.(check int) "one eviction" 1
    (Artifact_cache.stats cache).Artifact_cache.evictions

let test_recency_refresh () =
  let cache = Artifact_cache.create ~capacity:2 () in
  let get k = Artifact_cache.find_or_build cache ~key:k (fun () -> k) in
  ignore (get "a");
  ignore (get "b");
  ignore (get "a");
  (* refresh: b is now the LRU *)
  ignore (get "c");
  Alcotest.(check bool) "a survives (refreshed)" true
    (Artifact_cache.mem cache "a");
  Alcotest.(check bool) "b evicted" false (Artifact_cache.mem cache "b");
  Alcotest.(check (list string)) "MRU order" [ "c"; "a" ]
    (Artifact_cache.keys cache)

let test_disabled_passthrough () =
  let cache = Artifact_cache.create ~enabled:false ~capacity:8 () in
  let builds = ref 0 in
  let get () =
    Artifact_cache.find_or_build cache ~key:"k" (fun () -> incr builds; !builds)
  in
  let v1, h1 = get () in
  let v2, h2 = get () in
  Alcotest.(check bool) "never a hit" false (h1 || h2);
  Alcotest.(check (pair int int)) "every call builds" (1, 2) (v1, v2);
  Alcotest.(check int) "stores nothing" 0 (Artifact_cache.length cache);
  Alcotest.(check int) "counts misses" 2
    (Artifact_cache.stats cache).Artifact_cache.misses

let test_capacity_validated () =
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Artifact_cache.create: capacity must be >= 1")
    (fun () -> ignore (Artifact_cache.create ~capacity:0 ()))

let test_failed_build_stores_nothing () =
  let cache = Artifact_cache.create ~capacity:4 () in
  (try
     ignore
       (Artifact_cache.find_or_build cache ~key:"boom" (fun () ->
            failwith "builder exploded"))
   with Failure _ -> ());
  Alcotest.(check bool) "nothing stored" false
    (Artifact_cache.mem cache "boom");
  let v, hit =
    Artifact_cache.find_or_build cache ~key:"boom" (fun () -> 7)
  in
  Alcotest.(check (pair int bool)) "recovers on retry" (7, false) (v, hit)

(* --- single-flight ---

   Concurrent misses on one key are held on a gate inside [build];
   the test opens it once every caller has had time to reach the
   cache.  A caller that only arrives after the build has landed is a
   plain hit, so the assertions hold however the threads are
   scheduled — but a cache without single-flight builds once per
   caller that missed while the gate was shut. *)

type gate = { mu : Mutex.t; cv : Condition.t; mutable opened : bool }

let gate () = { mu = Mutex.create (); cv = Condition.create (); opened = false }

let gate_wait g =
  Mutex.lock g.mu;
  while not g.opened do
    Condition.wait g.cv g.mu
  done;
  Mutex.unlock g.mu

let gate_open g =
  Mutex.lock g.mu;
  g.opened <- true;
  Condition.broadcast g.cv;
  Mutex.unlock g.mu

(* Run [n] concurrent [find_or_build cache ~key:"k" build] calls, the
   first of which is certain to run [build]: the others start only
   once [build] is running, and [release] opens its gate after they
   have all entered.  Returns each caller's outcome. *)
let race ~n cache build ~started ~release =
  let outcomes = Array.make n None in
  let call i () =
    outcomes.(i) <-
      Some
        (match Artifact_cache.find_or_build cache ~key:"k" build with
        | r -> Ok r
        | exception exn -> Error exn)
  in
  let first = Thread.create (call 0) () in
  gate_wait started;
  let entered = Atomic.make 0 in
  let rest =
    List.init (n - 1) (fun i ->
        Thread.create
          (fun () ->
            Atomic.incr entered;
            call (i + 1) ())
          ())
  in
  while Atomic.get entered < n - 1 do
    Thread.yield ()
  done;
  Thread.delay 0.05;
  gate_open release;
  List.iter Thread.join (first :: rest);
  Array.map Option.get outcomes

let test_single_flight_one_build () =
  let n = 8 in
  let cache = Artifact_cache.create ~capacity:4 () in
  let builds = Atomic.make 0 in
  let started = gate () and release = gate () in
  let build () =
    Atomic.incr builds;
    gate_open started;
    gate_wait release;
    [| 42 |]
  in
  let outcomes = race ~n cache build ~started ~release in
  Alcotest.(check int) "exactly one build" 1 (Atomic.get builds);
  let values = Array.map (function Ok (v, _) -> v | Error e -> raise e) outcomes in
  Array.iter
    (fun v ->
      Alcotest.(check bool) "every caller gets the built value" true
        (v == values.(0)))
    values;
  let hits =
    Array.fold_left
      (fun acc o -> match o with Ok (_, true) -> acc + 1 | _ -> acc)
      0 outcomes
  in
  Alcotest.(check int) "n - 1 hits" (n - 1) hits;
  let s = Artifact_cache.stats cache in
  Alcotest.(check (pair int int)) "stats: n - 1 hits, one miss" (n - 1, 1)
    (s.Artifact_cache.hits, s.Artifact_cache.misses)

let test_single_flight_failure_reaches_every_waiter () =
  let n = 6 in
  let cache = Artifact_cache.create ~capacity:4 () in
  let builds = Atomic.make 0 in
  let started = gate () and release = gate () in
  let build () =
    Atomic.incr builds;
    gate_open started;
    gate_wait release;
    failwith "build exploded"
  in
  let outcomes = race ~n cache build ~started ~release in
  Alcotest.(check int) "one failed build" 1 (Atomic.get builds);
  Array.iter
    (function
      | Error (Failure msg) ->
        Alcotest.(check string) "every waiter gets the exception"
          "build exploded" msg
      | Error e -> Alcotest.failf "unexpected exception %s" (Printexc.to_string e)
      | Ok _ -> Alcotest.fail "a caller got a value from a failed build")
    outcomes;
  Alcotest.(check bool) "nothing stored" false (Artifact_cache.mem cache "k");
  let v, hit = Artifact_cache.find_or_build cache ~key:"k" (fun () -> [| 7 |]) in
  Alcotest.(check (pair (array int) bool)) "the next call rebuilds" ([| 7 |], false)
    (v, hit)

(* A timeout is the builder's own deadline: the builder gets it, but
   its waiters look the key up again instead of inheriting it.  The
   first waiter back rebuilds, the rest wait on that rebuild, so the
   whole race costs two builds and every waiter gets the rebuilt
   value; the timed-out flight leaves nothing behind. *)
let test_single_flight_timeout_waiters_retry () =
  let n = 4 in
  let cache = Artifact_cache.create ~capacity:4 () in
  let builds = Atomic.make 0 in
  let started = gate () and release = gate () in
  let build () =
    if Atomic.fetch_and_add builds 1 = 0 then begin
      gate_open started;
      gate_wait release;
      Nanodec_error.fail
        (Nanodec_error.Timeout { site = "test.build"; seconds = 1e-6 })
    end
    else [| Atomic.get builds |]
  in
  let outcomes = race ~n cache build ~started ~release in
  Alcotest.(check int) "the timed-out build and one rebuild" 2
    (Atomic.get builds);
  (match outcomes.(0) with
  | Error (Nanodec_error.Error (Nanodec_error.Timeout _)) -> ()
  | Error e -> Alcotest.failf "unexpected exception %s" (Printexc.to_string e)
  | Ok _ -> Alcotest.fail "the timed-out builder got a value");
  let waiters = Array.sub outcomes 1 (n - 1) in
  Array.iter
    (function
      | Ok (v, _) ->
        Alcotest.(check (array int)) "every waiter gets the rebuilt value"
          [| 2 |] v
      | Error e ->
        Alcotest.failf "a waiter inherited %s" (Printexc.to_string e))
    waiters;
  let rebuilt =
    Array.fold_left
      (fun acc o -> match o with Ok (_, false) -> acc + 1 | _ -> acc)
      0 waiters
  in
  Alcotest.(check int) "exactly one waiter rebuilt" 1 rebuilt;
  let s = Artifact_cache.stats cache in
  Alcotest.(check (pair int int)) "stats: n - 2 hits, two misses" (n - 2, 2)
    (s.Artifact_cache.hits, s.Artifact_cache.misses);
  Alcotest.(check (list string)) "only the rebuild is stored" [ "k" ]
    (Artifact_cache.keys cache);
  Alcotest.(check (pair (array int) bool)) "the stored value is the rebuild"
    ([| 2 |], true)
    (Artifact_cache.find_or_build cache ~key:"k" (fun () -> [| 0 |]))

let test_disabled_cache_builds_every_call () =
  let n = 4 in
  let cache = Artifact_cache.create ~enabled:false ~capacity:4 () in
  let builds = Atomic.make 0 in
  (* Every build waits until all [n] are running at once — reachable
     only if the disabled cache does not single-flight them.  The
     deadline turns a regression into a failure rather than a hang. *)
  let build () =
    Atomic.incr builds;
    let deadline = Unix.gettimeofday () +. 5. in
    while Atomic.get builds < n && Unix.gettimeofday () < deadline do
      Thread.delay 0.001
    done;
    Atomic.get builds
  in
  let threads =
    List.init n (fun _ ->
        Thread.create
          (fun () ->
            let _, hit = Artifact_cache.find_or_build cache ~key:"k" build in
            Alcotest.(check bool) "never a hit" false hit)
          ())
  in
  List.iter Thread.join threads;
  Alcotest.(check int) "one build per call" n (Atomic.get builds);
  Alcotest.(check int) "every call a miss" n
    (Artifact_cache.stats cache).Artifact_cache.misses

(* A flight holds back only callers of its own key: while "a" is held
   on a shut gate, a miss on "b" builds and returns.  A cache that
   serialised all builds behind one lock would keep "b" waiting until
   the gate opens; the deadline turns that into a failure, not a hang. *)
let test_single_flight_is_per_key () =
  let cache = Artifact_cache.create ~capacity:4 () in
  let started = gate () and release = gate () in
  let a =
    Thread.create
      (fun () ->
        ignore
          (Artifact_cache.find_or_build cache ~key:"a" (fun () ->
               gate_open started;
               gate_wait release;
               1)))
      ()
  in
  gate_wait started;
  let b_done = Atomic.make false in
  let b =
    Thread.create
      (fun () ->
        let v, hit = Artifact_cache.find_or_build cache ~key:"b" (fun () -> 2) in
        Alcotest.(check (pair int bool)) "b is a fresh build" (2, false) (v, hit);
        Atomic.set b_done true)
      ()
  in
  let deadline = Unix.gettimeofday () +. 5. in
  while (not (Atomic.get b_done)) && Unix.gettimeofday () < deadline do
    Thread.delay 0.001
  done;
  let b_finished_while_a_in_flight = Atomic.get b_done in
  gate_open release;
  List.iter Thread.join [ a; b ];
  Alcotest.(check bool) "b built while a was in flight" true
    b_finished_while_a_in_flight;
  Alcotest.(check (list string)) "both stored, a most recent" [ "a"; "b" ]
    (Artifact_cache.keys cache)

(* Builds nest downward — the daemon's estimate build requests its
   kernel, the kernel its analysis.  Concurrent callers of the outer
   key still cost one outer and one inner build, and the nested
   request on another key never waits on the outer flight. *)
let test_single_flight_nested_builds () =
  let n = 5 in
  let cache = Artifact_cache.create ~capacity:4 () in
  let outer_builds = Atomic.make 0 and inner_builds = Atomic.make 0 in
  let started = gate () and release = gate () in
  let build () =
    Atomic.incr outer_builds;
    gate_open started;
    gate_wait release;
    let inner, hit =
      Artifact_cache.find_or_build cache ~key:"inner" (fun () ->
          Atomic.incr inner_builds;
          [| 3 |])
    in
    Alcotest.(check bool) "inner is a miss inside the outer build" false hit;
    Array.append inner [| 4 |]
  in
  let outcomes = race ~n cache build ~started ~release in
  Array.iter
    (function
      | Ok (v, _) ->
        Alcotest.(check (array int)) "every caller gets the outer value"
          [| 3; 4 |] v
      | Error e -> raise e)
    outcomes;
  Alcotest.(check (pair int int)) "one outer build, one inner build" (1, 1)
    (Atomic.get outer_builds, Atomic.get inner_builds);
  let s = Artifact_cache.stats cache in
  Alcotest.(check (pair int int)) "stats: n - 1 hits, two misses" (n - 1, 2)
    (s.Artifact_cache.hits, s.Artifact_cache.misses);
  Alcotest.(check (list string)) "outer landed after inner" [ "k"; "inner" ]
    (Artifact_cache.keys cache)

let test_stats_accounting () =
  let cache = Artifact_cache.create ~capacity:2 () in
  let get k = Artifact_cache.find_or_build cache ~key:k (fun () -> k) in
  ignore (get "a");
  ignore (get "a");
  ignore (get "b");
  ignore (get "c");
  let s = Artifact_cache.stats cache in
  Alcotest.(check int) "hits" 1 s.Artifact_cache.hits;
  Alcotest.(check int) "misses" 3 s.Artifact_cache.misses;
  Alcotest.(check int) "entries" 2 s.Artifact_cache.entries;
  Alcotest.(check int) "capacity" 2 s.Artifact_cache.capacity;
  Alcotest.(check bool) "saved_s is a sum of non-negative costs" true
    (s.Artifact_cache.saved_s >= 0.)

let test_clear () =
  let cache = Artifact_cache.create ~capacity:4 () in
  ignore (Artifact_cache.find_or_build cache ~key:"a" (fun () -> 1));
  Artifact_cache.clear cache;
  Alcotest.(check int) "empty" 0 (Artifact_cache.length cache);
  Alcotest.(check (list string)) "no keys" [] (Artifact_cache.keys cache)

(* --- replacement by cost and use (GDSF) ---

   Build costs are injected through [restore], which inserts an entry
   with one use, since a measured build time is not reproducible.  An
   entry's priority is [L + uses * max cost 100µs]; evicting raises
   [L] to the victim's priority. *)

let insert cache key cost_s = Artifact_cache.restore cache [ (key, cost_s, key) ]

(* The warm-mix pattern: a Monte-Carlo estimate (3 ms to build) among
   a stream of one-use closed-form fragments.  Recency alone would
   evict it after [capacity] of them; here it lasts until [L] has
   climbed to its 3 ms, one floor (100 µs) per [capacity - 1] cheap
   evictions, and then ages out like anything no longer hit. *)
let test_costly_entry_outlives_cheap_stream () =
  let cache = Artifact_cache.create ~capacity:4 () in
  insert cache "mc" 3e-3;
  let stream = ref 0 in
  let cheap n =
    for _ = 1 to n do
      incr stream;
      insert cache (Printf.sprintf "closed-%d" !stream) 20e-6
    done
  in
  cheap 20;
  Alcotest.(check bool) "the estimate survives 20 cheap inserts" true
    (Artifact_cache.mem cache "mc");
  Alcotest.(check int) "every eviction hit the cheap stream" 17
    (Artifact_cache.stats cache).Artifact_cache.evictions;
  cheap 100;
  Alcotest.(check bool) "and ages out once nothing hits it" false
    (Artifact_cache.mem cache "mc")

(* The cold-mc pattern: a cheap kernel that every estimate reuses,
   then a stream of expensive one-use estimates.  Recency alone would
   evict the kernel after [capacity] estimates, and cost alone (no use
   count) at the first: its 50 uses of 100 µs outweigh a 2 ms
   estimate's one. *)
let test_reused_cheap_entry_outlives_costly_stream () =
  let cache = Artifact_cache.create ~capacity:4 () in
  insert cache "kernel" 50e-6;
  for _ = 1 to 49 do
    ignore
      (Artifact_cache.find_or_build cache ~key:"kernel" (fun () ->
           Alcotest.fail "kernel rebuilt"))
  done;
  for i = 1 to 8 do
    insert cache (Printf.sprintf "estimate-%d" i) 2e-3
  done;
  Alcotest.(check bool) "the kernel survives 8 estimates" true
    (Artifact_cache.mem cache "kernel");
  Alcotest.(check (float 1e-12)) "the evicted estimates' cost is counted"
    (5. *. 2e-3)
    (Artifact_cache.stats cache).Artifact_cache.evicted_cost_s

(* A single-flight waiter is a use of the entry that landed: after
   [n] racing callers "k" has [n] uses, so it outranks a probe worth
   4.5 of its builds.  Were waiters not counted, "k" would rank below
   it.  (A caller arriving after the landing is a plain hit, a use
   either way, so the ranking holds however the threads run.) *)
let test_single_flight_waiters_are_uses () =
  let n = 8 in
  let cache = Artifact_cache.create ~capacity:4 () in
  let started = gate () and release = gate () in
  let build () =
    gate_open started;
    gate_wait release;
    [| 42 |]
  in
  ignore (race ~n cache build ~started ~release);
  let cost_k =
    match Artifact_cache.dump cache with
    | [ ("k", cost_s, _) ] -> Float.max cost_s 100e-6
    | _ -> Alcotest.fail "expected the one entry k"
  in
  Artifact_cache.restore cache [ ("probe", 4.5 *. cost_k, [||]) ];
  Alcotest.(check (list string)) "k outranks the probe" [ "k"; "probe" ]
    (Artifact_cache.keys cache)

(* A hits-only handle counts nothing and moves no rank until [commit],
   which counts its hits as the cache's own gets would have (a twin cache
   takes the same gets).  Absent keys and keys in flight raise
   [Not_cached] at once, without building or waiting, and an entry
   evicted before the commit counts as a hit but is not brought back. *)
let test_hits_only_handle () =
  let fresh () =
    let c = Artifact_cache.create ~capacity:4 () in
    List.iter (fun k -> insert c k 20e-6) [ "a"; "b"; "c" ];
    c
  in
  let cache = fresh () and twin = fresh () in
  let never () = Alcotest.fail "a hits-only lookup built" in
  let get c k = fst (Artifact_cache.find_or_build c ~key:k never) in
  let hits c = (Artifact_cache.stats c).Artifact_cache.hits in
  let not_cached h k =
    match Artifact_cache.find_or_build h ~key:k never with
    | _ -> Alcotest.failf "%s is not cached" k
    | exception Artifact_cache.Not_cached -> ()
  in
  let h = Artifact_cache.hits_only cache in
  Alcotest.(check string) "a found" "a" (get h "a");
  Alcotest.(check string) "b found" "b" (get h "b");
  not_cached h "z";
  Alcotest.(check (list string)) "no rank moved" [ "c"; "b"; "a" ]
    (Artifact_cache.keys cache);
  Alcotest.(check (pair int int)) "nothing counted" (0, 0)
    (hits cache, (Artifact_cache.stats cache).Artifact_cache.misses);
  Artifact_cache.commit h;
  Artifact_cache.commit h;
  ignore (get twin "a");
  ignore (get twin "b");
  Alcotest.(check (list string)) "ranked as the twin's gets"
    (Artifact_cache.keys twin) (Artifact_cache.keys cache);
  Alcotest.(check int) "counted once, as the twin's" (hits twin) (hits cache);
  let h = Artifact_cache.hits_only cache in
  ignore (get h "c");
  insert cache "d" 20e-6;
  insert cache "e" 20e-6;
  Artifact_cache.commit h;
  Alcotest.(check bool) "c stays evicted" false (Artifact_cache.mem cache "c");
  Alcotest.(check int) "but its hit counts" (hits twin + 1) (hits cache);
  let started = gate () and release = gate () in
  let builder =
    Thread.create
      (fun () ->
        Artifact_cache.find_or_build cache ~key:"k" (fun () ->
            gate_open started;
            gate_wait release;
            "k"))
      ()
  in
  gate_wait started;
  not_cached (Artifact_cache.hits_only cache) "k";
  gate_open release;
  Thread.join builder;
  Alcotest.(check string) "k landed" "k" (get (Artifact_cache.hits_only cache) "k")

(* The model: a plain list of entries, the same priority formula, the
   victim found by a linear scan.  Operations are restores (inserts
   with a given cost), and gets, which hit a present key; a get of an
   absent key is modelled as an insert of a generated cost. *)

type op = Restore of (string * float) list | Get of string * float

type model_entry = {
  m_key : string;
  m_cost : float;
  m_uses : int;
  m_prio : float;
  m_touch : int;
}

type model = {
  capacity : int;
  mutable entries : model_entry list;
  mutable l : float;
  mutable clock : int;
  mutable evictions : int;
}

let model_weight c = if c > 100e-6 then c else 100e-6

let model_rank m uses cost =
  m.clock <- m.clock + 1;
  (m.l +. (float_of_int uses *. model_weight cost), m.clock)

let model_lower a b = compare (a.m_prio, a.m_touch) (b.m_prio, b.m_touch) < 0

(* Room is made before the new entry is ranked. *)
let model_insert m key cost =
  m.entries <- List.filter (fun e -> e.m_key <> key) m.entries;
  while List.length m.entries >= m.capacity do
    let victim =
      List.fold_left
        (fun v e -> if model_lower e v then e else v)
        (List.hd m.entries) m.entries
    in
    m.entries <- List.filter (fun e -> e != victim) m.entries;
    m.l <- victim.m_prio;
    m.evictions <- m.evictions + 1
  done;
  let prio, touch = model_rank m 1 cost in
  m.entries <-
    { m_key = key; m_cost = cost; m_uses = 1; m_prio = prio; m_touch = touch }
    :: m.entries

let model_hit m key =
  m.entries <-
    List.map
      (fun e ->
        if e.m_key <> key then e
        else
          let prio, touch = model_rank m (e.m_uses + 1) e.m_cost in
          { e with m_uses = e.m_uses + 1; m_prio = prio; m_touch = touch })
      m.entries

let model_keys m =
  List.map
    (fun e -> e.m_key)
    (List.sort (fun a b -> compare (b.m_prio, b.m_touch) (a.m_prio, a.m_touch))
       m.entries)

let gdsf_model_prop =
  let gen =
    let open Gen in
    let key = elements [ "a"; "b"; "c"; "d"; "e"; "f"; "g" ] in
    (* Costs under, at and over the 100 µs floor, with exact ties. *)
    let cost = elements [ 0.; 20e-6; 100e-6; 150e-6; 1e-3; 3e-3 ] in
    let op =
      frequency
        [
          (1, map (fun l -> Restore l) (list (pair key cost)));
          (4, map2 (fun k c -> Get (k, c)) key cost);
        ]
    in
    pair (int_range 1 5) (list op)
  in
  let print (capacity, ops) =
    Printf.sprintf "capacity=%d ops=[%s]" capacity
      (String.concat "; "
         (List.map
            (function
              | Restore l ->
                "restore "
                ^ String.concat ","
                    (List.map (fun (k, c) -> Printf.sprintf "%s:%g" k c) l)
              | Get (k, c) -> Printf.sprintf "get %s:%g" k c)
            ops))
  in
  Property.make ~name:"serve: cache eviction = GDSF list model" ~print gen
    (fun (capacity, ops) ->
      let cache = Artifact_cache.create ~capacity () in
      let m = { capacity; entries = []; l = 0.; clock = 0; evictions = 0 } in
      List.for_all
        (fun op ->
          (match op with
          | Restore l ->
            Artifact_cache.restore cache (List.map (fun (k, c) -> (k, c, k)) l);
            List.iter (fun (k, c) -> model_insert m k c) l
          | Get (k, c) ->
            if List.exists (fun e -> e.m_key = k) m.entries then begin
              ignore
                (Artifact_cache.find_or_build cache ~key:k (fun () -> "rebuilt"));
              model_hit m k
            end
            else begin
              Artifact_cache.restore cache [ (k, c, k) ];
              model_insert m k c
            end);
          Artifact_cache.keys cache = model_keys m
          && (Artifact_cache.stats cache).Artifact_cache.evictions = m.evictions)
        ops)

let test_gdsf_model_oracle () =
  check_outcome (Property.run ~seed:2009 ~count:300 gdsf_model_prop)

(* --- oracle: cache_hit ≡ cache_miss ---

   A request sequence is a list of keys over a small alphabet (so
   repeats and evictions actually happen).  The builder is a pure
   function of the key; the enabled cache (capacity drawn from 1..4,
   capacity 1 being the all-eviction degenerate case) must return
   exactly what the disabled cache returns at every step. *)

let hit_equiv_miss_prop =
  let gen =
    let open Gen in
    let* capacity = int_range 1 4 in
    let+ keys = list (elements [ "a"; "b"; "c"; "d"; "e"; "f" ]) in
    (capacity, keys)
  in
  let print (capacity, keys) =
    Printf.sprintf "capacity=%d keys=[%s]" capacity (String.concat ";" keys)
  in
  Property.make ~name:"serve: cache_hit = cache_miss (incl. capacity 1)"
    ~print gen (fun (capacity, keys) ->
      let build k = String.uppercase_ascii k ^ string_of_int (String.length k) in
      let hot = Artifact_cache.create ~capacity () in
      let cold = Artifact_cache.create ~enabled:false ~capacity () in
      List.for_all
        (fun k ->
          let vh, _ = Artifact_cache.find_or_build hot ~key:k (fun () -> build k) in
          let vc, hit_cold =
            Artifact_cache.find_or_build cold ~key:k (fun () -> build k)
          in
          vh = vc && not hit_cold)
        keys)

let test_hit_equiv_miss_oracle () =
  check_outcome (Property.run ~seed:2009 ~count:200 hit_equiv_miss_prop)

(* ... and the same invariant on the real artifact layer: a report and
   an estimate served twice through [Artifacts] are byte-for-byte the
   rendering of the value the cold path computes. *)

let test_artifacts_hit_equiv_cold () =
  let open Nanodec in
  Nanodec_parallel.Run_ctx.with_ctx ~domains:2 @@ fun ctx ->
  let cache = Artifacts.create ~capacity:8 () in
  let spec =
    Design.spec ~code_type:Codebook.Balanced_gray ~code_length:8 ()
  in
  let cold_report =
    Json.to_string (Artifacts.report_json (Design.evaluate spec))
  in
  let r1, h1 = Artifacts.report cache spec in
  let r2, h2 = Artifacts.report cache spec in
  Alcotest.(check (pair bool bool)) "miss then hit" (false, true) (h1, h2);
  Alcotest.(check bool) "cached report ≡ cold report" true
    (r1 = cold_report && r2 = cold_report);
  let config = spec.Design.cave in
  let cold_analysis = Cave.analyze config in
  let cold_estimate =
    Json.to_string
      (Artifacts.estimate_json ~seed:7
         (Cave.mc_yield_window_par ~ctx
            (Nanodec_numerics.Rng.create ~seed:7)
            ~samples:400 cold_analysis))
  in
  let e1, eh1 = Artifacts.estimate cache ~ctx ~seed:7 ~samples:400 config in
  let e2, eh2 = Artifacts.estimate cache ~ctx ~seed:7 ~samples:400 config in
  Alcotest.(check (pair bool bool)) "estimate miss then hit" (false, true)
    (eh1, eh2);
  Alcotest.(check bool) "cached estimate ≡ cold estimate" true
    (e1 = cold_estimate && e2 = cold_estimate)

(* --- rendered fragments ---

   The final kinds store response bytes.  Each fragment must be the
   canonical rendering of one JSON object (it re-renders to itself, so
   splicing it is the same as rendering the tree), and its fields must
   be exactly the typed values the cold path computes. *)

let parse_object what bytes =
  match Json.parse bytes with
  | Ok (Json.Obj _ as v) ->
    Alcotest.(check string) (what ^ " re-renders to itself") bytes
      (Json.to_string v);
    v
  | Ok _ | Error _ -> Alcotest.failf "%s is not a JSON object: %S" what bytes

let field what name json =
  match Json.member name json with
  | Some v -> v
  | None -> Alcotest.failf "%s lacks %S" what name

let float_field what name json =
  match Json.to_float_opt (field what name json) with
  | Some f -> f
  | None -> Alcotest.failf "%s.%s is not a number" what name

let int_field what name json =
  match Json.to_int_opt (field what name json) with
  | Some i -> i
  | None -> Alcotest.failf "%s.%s is not an int" what name

let check_estimate_fields what json (e : Nanodec_numerics.Montecarlo.estimate) =
  let open Nanodec_numerics.Montecarlo in
  List.iter
    (fun (name, want) ->
      Alcotest.(check (float 0.)) (what ^ "." ^ name) want
        (float_field what name json))
    [
      ("mean", e.mean);
      ("std_error", e.std_error);
      ("ci95_low", e.ci95_low);
      ("ci95_high", e.ci95_high);
    ];
  Alcotest.(check int) (what ^ ".samples") e.samples
    (int_field what "samples" json)

let test_fragments_canonical_and_typed () =
  let open Nanodec in
  let module Mc = Nanodec_numerics.Montecarlo in
  Nanodec_parallel.Run_ctx.with_ctx ~domains:2 @@ fun ctx ->
  let cache = Artifacts.create ~capacity:16 () in
  let spec = Design.spec ~code_type:Codebook.Gray ~code_length:8 () in
  let report = Design.evaluate spec in
  let r = parse_object "report" (fst (Artifacts.report cache spec)) in
  List.iter
    (fun (name, want) ->
      Alcotest.(check (float 0.)) ("report." ^ name) want
        (float_field "report" name r))
    [
      ("phi_per_wire", report.Design.phi_per_wire);
      ("sigma_norm1", report.Design.sigma_norm1);
      ("average_nu", report.Design.average_nu);
      ("cave_yield", report.Design.cave_yield);
      ("crossbar_yield", report.Design.crossbar_yield);
      ("effective_bits", report.Design.effective_bits);
      ("bit_area", report.Design.bit_area);
      ("area", report.Design.area);
    ];
  Alcotest.(check int) "report.phi" report.Design.phi (int_field "report" "phi" r);
  let config = spec.Design.cave in
  let analysis = Cave.analyze config in
  let plain =
    Cave.mc_yield_window_par ~ctx
      (Nanodec_numerics.Rng.create ~seed:5)
      ~samples:300 analysis
  in
  let e =
    parse_object "estimate"
      (fst (Artifacts.estimate cache ~ctx ~seed:5 ~samples:300 config))
  in
  check_estimate_fields "estimate" e plain;
  Alcotest.(check int) "estimate.seed" 5 (int_field "estimate" "seed" e);
  Alcotest.(check bool) "plain estimate has no method tag" true
    (Json.member "method" e = None);
  let mc_spec =
    { (Mc.spec_of_ctx ~ctx ~samples:300 ()) with Mc.strategy = Mc.Antithetic }
  in
  let tagged =
    Cave.mc_yield_window_par ~ctx ~spec:mc_spec
      (Nanodec_numerics.Rng.create ~seed:5)
      ~samples:300 analysis
  in
  let es =
    parse_object "spec estimate"
      (fst (Artifacts.estimate_spec cache ~ctx ~seed:5 ~spec:mc_spec config))
  in
  check_estimate_fields "spec estimate" es tagged;
  Alcotest.(check (option string)) "spec estimate method tag"
    (Some (Mc.strategy_name Mc.Antithetic))
    (Option.bind (Json.member "method" es) Json.to_string_opt);
  let rows =
    match
      Json.to_list_opt
        (field "sweep" "rows"
           (parse_object "sweep" (fst (Artifacts.sweep cache spec))))
    with
    | Some rows -> rows
    | None -> Alcotest.fail "sweep.rows is not a list"
  in
  let direct = Optimizer.sweep ~spec () in
  Alcotest.(check int) "sweep row count" (List.length direct)
    (List.length rows);
  List.iter2
    (fun (d : Design.report) row ->
      Alcotest.(check int) "sweep row phi" d.Design.phi
        (int_field "sweep row" "phi" row);
      Alcotest.(check (float 0.)) "sweep row crossbar_yield"
        d.Design.crossbar_yield
        (float_field "sweep row" "crossbar_yield" row);
      Alcotest.(check (float 0.)) "sweep row bit_area" d.Design.bit_area
        (float_field "sweep row" "bit_area" row))
    direct rows;
  let w =
    parse_object "words"
      (fst
         (Artifacts.words cache ~radix:2 ~length:6 ~count:9
            Codebook.Arranged_hot))
  in
  Alcotest.(check int) "words.omega"
    (Codebook.space_size ~radix:2 ~length:6 Codebook.Arranged_hot)
    (int_field "words" "omega" w);
  Alcotest.(check (list string)) "words.words"
    (List.map Word.to_string
       (Codebook.sequence ~radix:2 ~length:6 ~count:9 Codebook.Arranged_hot))
    (List.filter_map Json.to_string_opt
       (Option.value (Json.to_list_opt (field "words" "words" w)) ~default:[]))

(* Only the fragment kinds are persisted; a restore of them serves the
   same bytes as hits, and the intermediate kinds rebuild on demand. *)
let test_snapshot_keeps_fragments_only () =
  let open Nanodec in
  Nanodec_parallel.Run_ctx.with_ctx ~domains:2 @@ fun ctx ->
  let cache = Artifacts.create ~capacity:16 () in
  let config =
    (Design.spec ~code_type:Codebook.Tree ~code_length:6 ()).Design.cave
  in
  let bytes, _ = Artifacts.estimate cache ~ctx ~seed:3 ~samples:200 config in
  let entries = Artifacts.snapshot cache in
  Alcotest.(check (list string)) "only the estimate is persisted"
    [ "estimate" ]
    (List.map
       (fun (k, _, _) -> String.sub k 0 (String.index k '|'))
       entries);
  let fresh = Artifacts.create ~capacity:16 () in
  (match Artifacts.restore fresh entries with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "restore refused its own snapshot: %s" msg);
  Alcotest.(check (pair string bool)) "restored estimate is a hit, same bytes"
    (bytes, true)
    (Artifacts.estimate fresh ~ctx ~seed:3 ~samples:200 config);
  Alcotest.(check bool) "analysis rebuilds after a restore" false
    (snd (Artifacts.analysis fresh config))

let test_restore_refuses_non_fragments () =
  let fragment = {|{"mean":0.5,"samples":10}|} in
  List.iter
    (fun (what, entries) ->
      let cache = Artifacts.create ~capacity:16 () in
      match Artifacts.restore cache entries with
      | Ok () -> Alcotest.failf "%s was restored" what
      | Error _ ->
        Alcotest.(check int) (what ^ ": nothing restored") 0
          (Artifact_cache.length cache))
    [
      ( "an intermediate kind's key",
        [ ("estimate|seed=1|x", 0.1, fragment); ("analysis|x", 0.1, fragment) ] );
      ("a key without a kind", [ ("report", 0.1, fragment) ]);
      ("bytes that are not JSON", [ ("report|x", 0.1, "\x84\x95\xa6\xbe") ]);
      ("a JSON value that is not an object", [ ("sweep|x", 0.1, "[1,2]") ]);
      ( "a non-canonical rendering",
        [ ("words|x", 0.1, {|{"code": "TC"}|}) ] );
      ( "a fragment with a newline",
        [ ("words|x", 0.1, "{\"code\":\"TC\"}\n") ] );
    ]

(* --- dump/restore + snapshot persistence --- *)

let test_dump_restore_roundtrip () =
  let cache = Artifact_cache.create ~capacity:4 () in
  let get k = Artifact_cache.find_or_build cache ~key:k (fun () -> k ^ "!") in
  ignore (get "a");
  ignore (get "b");
  ignore (get "c");
  ignore (get "a");
  (* recency now: a (MRU), c, b (LRU) — dump is LRU-first *)
  let dumped = List.map (fun (k, _, v) -> (k, v)) (Artifact_cache.dump cache) in
  Alcotest.(check (list (pair string string)))
    "dump is LRU-first with the stored values"
    [ ("b", "b!"); ("c", "c!"); ("a", "a!") ]
    dumped;
  let fresh = Artifact_cache.create ~capacity:4 () in
  Artifact_cache.restore fresh (Artifact_cache.dump cache);
  Alcotest.(check (list string)) "restore reproduces the recency chain"
    (Artifact_cache.keys cache) (Artifact_cache.keys fresh);
  let s = Artifact_cache.stats fresh in
  Alcotest.(check (pair int int)) "restore is not a workload" (0, 0)
    (s.Artifact_cache.hits, s.Artifact_cache.misses);
  (* The restored chain behaves: one more insert evicts the restored
     LRU, not anything recent. *)
  let tight = Artifact_cache.create ~capacity:3 () in
  Artifact_cache.restore tight (Artifact_cache.dump cache);
  ignore (Artifact_cache.find_or_build tight ~key:"d" (fun () -> "d!"));
  Alcotest.(check bool) "restored LRU evicted first" false
    (Artifact_cache.mem tight "b")

let test_restore_into_smaller_cache_keeps_mru () =
  let cache = Artifact_cache.create ~capacity:4 () in
  let get k = Artifact_cache.find_or_build cache ~key:k (fun () -> k) in
  List.iter (fun k -> ignore (get k)) [ "a"; "b"; "c"; "d" ];
  let small = Artifact_cache.create ~capacity:2 () in
  Artifact_cache.restore small (Artifact_cache.dump cache);
  Alcotest.(check (list string)) "keeps the most recently used tail"
    [ "d"; "c" ] (Artifact_cache.keys small)

let with_tmp_snapshot k =
  let path = Filename.temp_file "nanodec-test-snapshot" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> k path)

let entries_testable =
  Alcotest.(list (triple string (float 0.) string))

let test_snapshot_save_load_roundtrip () =
  with_tmp_snapshot @@ fun path ->
  let entries =
    [ ("alpha", 0.5, "payload one"); ("beta\nwith newline", 0., "\x00binary\xff") ]
  in
  (match Snapshot.save ~path ~schema:"test-v1" entries with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "save failed: %s" msg);
  (match Snapshot.load ~path ~schema:"test-v1" with
  | Ok got -> Alcotest.check entries_testable "load ≡ save" entries got
  | Error msg -> Alcotest.failf "load failed: %s" msg);
  match Snapshot.load ~path ~schema:"test-v2" with
  | Ok (_ : (string * float * string) list) ->
    Alcotest.fail "schema mismatch must not load"
  | Error msg ->
    Alcotest.(check bool) "schema mismatch is reported" true
      (String.length msg > 0)

let test_snapshot_missing_file_is_cold () =
  match Snapshot.load ~path:"/nonexistent/nanodec.snap" ~schema:"test-v1" with
  | Ok ([] : (string * float * string) list) -> ()
  | Ok _ -> Alcotest.fail "a missing file cannot hold entries"
  | Error msg -> Alcotest.failf "missing file must be a cold start, got: %s" msg

let test_snapshot_rejects_every_corruption () =
  (* Exhaustive single-byte battery: whatever byte is mutilated —
     header, count, lengths, keys, payload, checksum — the loader must
     return [Error], never entries and never a crash.  Plus the whole-
     file mutilations the daemon test exercises end to end. *)
  with_tmp_snapshot @@ fun path ->
  let entries = [ ("key-a", 1.5, "value-a"); ("key-b", 0.25, "value-b") ] in
  (match Snapshot.save ~path ~schema:"test-v1" entries with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "save failed: %s" msg);
  let ic = open_in_bin path in
  let pristine = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let reload bytes =
    let oc = open_out_bin path in
    output_string oc bytes;
    close_out oc;
    (Snapshot.load ~path ~schema:"test-v1"
      : ((string * float * string) list, string) result)
  in
  String.iteri
    (fun i c ->
      let mutated = Bytes.of_string pristine in
      Bytes.set mutated i (Char.chr (Char.code c lxor 0x01));
      match reload (Bytes.to_string mutated) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "bit flip at byte %d went undetected" i)
    pristine;
  List.iter
    (fun (what, bytes) ->
      match reload bytes with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s went undetected" what)
    [
      ("truncation", String.sub pristine 0 (String.length pristine / 2));
      ("zero fill", String.make (String.length pristine) '\000');
      ("trailing garbage", pristine ^ "x");
      ("empty file", "");
    ];
  (* And the pristine bytes still load after all that. *)
  match reload pristine with
  | Ok got -> Alcotest.check entries_testable "pristine still loads" entries got
  | Error msg -> Alcotest.failf "pristine bytes rejected: %s" msg

(* --- oracle: snapshot save→load ≡ identity --- *)

let snapshot_roundtrip_prop =
  let gen =
    let open Gen in
    let key =
      let+ chars = list (elements [ 'a'; 'b'; 'z'; '0'; '\n'; '\000'; '|' ]) in
      String.init (List.length chars) (List.nth chars)
    in
    (* Costs are stored as their IEEE-754 bits, so any finite cost
       comes back exactly. *)
    let cost = elements [ 0.; 0.5; 1.25; 1e9; 0.1; 3.7e-6 ] in
    let value =
      let+ words = list (elements [ "yield"; "\x00\xff"; ""; "mspt" ]) in
      String.concat "/" words
    in
    list (triple key cost value)
  in
  let print entries =
    String.concat ";"
      (List.map (fun (k, c, v) -> Printf.sprintf "(%S,%g,%S)" k c v) entries)
  in
  Property.make ~name:"serve: snapshot save→load ≡ identity" ~print gen
    (fun entries ->
      let path = Filename.temp_file "nanodec-prop-snapshot" ".bin" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          match Snapshot.save ~path ~schema:"prop-v1" entries with
          | Error _ -> false
          | Ok () -> (
            match Snapshot.load ~path ~schema:"prop-v1" with
            | Ok got -> got = entries
            | Error _ -> false)))

let test_snapshot_roundtrip_oracle () =
  check_outcome (Property.run ~seed:2009 ~count:100 snapshot_roundtrip_prop)

(* --- oracle: cache keys are injective on design parameters --- *)

let config_gen =
  let open Gen in
  let* radix = elements [ 2; 3 ] in
  let* code_type =
    elements
      (if radix = 2 then [ Codebook.Tree; Codebook.Gray; Codebook.Hot ]
       else [ Codebook.Tree; Codebook.Gray ])
  in
  let* code_length = int_range 2 8 in
  let* n_wires = int_range 2 12 in
  let* sigma_t = elements [ 0.03; 0.05; 0.07 ] in
  let* margin_fraction = elements [ 0.3; 0.42 ] in
  let+ supply_voltage = elements [ 0.9; 1.0 ] in
  {
    Cave.default_config with
    Cave.radix;
    code_type;
    code_length;
    n_wires;
    sigma_t;
    margin_fraction;
    supply_voltage;
  }

let key_injective_prop =
  let gen = Gen.pair config_gen config_gen in
  let print (a, b) =
    Printf.sprintf "%s\nvs\n%s" (Cave.config_key a) (Cave.config_key b)
  in
  Property.make ~name:"serve: cache_key injective on design params" ~print gen
    (fun (a, b) ->
      let keys_equal = String.equal (Cave.config_key a) (Cave.config_key b) in
      keys_equal = (a = b))

let test_key_injective_oracle () =
  check_outcome (Property.run ~seed:2009 ~count:300 key_injective_prop)

let test_component_keys_injective () =
  (* The pattern and codebook keys the artifact layer composes from
     must distinguish every parameter they claim to cover. *)
  let p1 = Pattern.of_codebook ~radix:2 ~length:6 ~n_wires:4 Codebook.Gray in
  let p2 = Pattern.of_codebook ~radix:2 ~length:6 ~n_wires:5 Codebook.Gray in
  let p3 =
    Pattern.of_codebook ~radix:2 ~length:6 ~n_wires:4 Codebook.Tree
  in
  Alcotest.(check bool) "pattern keys differ across wires" false
    (String.equal (Pattern.cache_key p1) (Pattern.cache_key p2));
  Alcotest.(check bool) "pattern keys differ across families" false
    (String.equal (Pattern.cache_key p1) (Pattern.cache_key p3));
  Alcotest.(check bool) "pattern key stable on equal params" true
    (String.equal (Pattern.cache_key p1)
       (Pattern.cache_key
          (Pattern.of_codebook ~radix:2 ~length:6 ~n_wires:4 Codebook.Gray)));
  let ck = Codebook.cache_key in
  Alcotest.(check bool) "codebook keys differ across lengths" false
    (String.equal
       (ck ~radix:2 ~length:6 Codebook.Gray)
       (ck ~radix:2 ~length:7 Codebook.Gray));
  Alcotest.(check bool) "codebook keys differ across radix" false
    (String.equal
       (ck ~radix:2 ~length:6 Codebook.Tree)
       (ck ~radix:3 ~length:6 Codebook.Tree))

let suite =
  [
    Alcotest.test_case "miss then hit" `Quick test_miss_then_hit;
    Alcotest.test_case "LRU eviction order" `Quick test_lru_eviction_order;
    Alcotest.test_case "recency refresh" `Quick test_recency_refresh;
    Alcotest.test_case "disabled cache is a counted pass-through" `Quick
      test_disabled_passthrough;
    Alcotest.test_case "capacity < 1 rejected" `Quick test_capacity_validated;
    Alcotest.test_case "failed build stores nothing" `Quick
      test_failed_build_stores_nothing;
    Alcotest.test_case "single-flight: one build, n - 1 hits" `Quick
      test_single_flight_one_build;
    Alcotest.test_case "single-flight: failure reaches every waiter" `Quick
      test_single_flight_failure_reaches_every_waiter;
    Alcotest.test_case "single-flight: waiters retry after a timeout" `Quick
      test_single_flight_timeout_waiters_retry;
    Alcotest.test_case "disabled cache builds on every call" `Quick
      test_disabled_cache_builds_every_call;
    Alcotest.test_case "single-flight is per key" `Quick
      test_single_flight_is_per_key;
    Alcotest.test_case "single-flight: nested builds, one each" `Quick
      test_single_flight_nested_builds;
    Alcotest.test_case "stats accounting" `Quick test_stats_accounting;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "GDSF: a costly entry outlives cheap one-use inserts"
      `Quick test_costly_entry_outlives_cheap_stream;
    Alcotest.test_case "GDSF: a reused cheap entry outlives costly inserts"
      `Quick test_reused_cheap_entry_outlives_costly_stream;
    Alcotest.test_case "GDSF: single-flight waiters are uses" `Quick
      test_single_flight_waiters_are_uses;
    Alcotest.test_case "hits-only handle: no trace until commit" `Quick
      test_hits_only_handle;
    Alcotest.test_case "oracle: eviction = GDSF list model" `Quick
      test_gdsf_model_oracle;
    Alcotest.test_case "oracle: cache_hit = cache_miss" `Quick
      test_hit_equiv_miss_oracle;
    Alcotest.test_case "artifacts: hit = cold, bit for bit" `Quick
      test_artifacts_hit_equiv_cold;
    Alcotest.test_case "fragments: canonical, equal to the typed values"
      `Quick test_fragments_canonical_and_typed;
    Alcotest.test_case "snapshot keeps the fragment kinds only" `Quick
      test_snapshot_keeps_fragments_only;
    Alcotest.test_case "restore refuses non-fragment entries" `Quick
      test_restore_refuses_non_fragments;
    Alcotest.test_case "dump/restore round trip" `Quick
      test_dump_restore_roundtrip;
    Alcotest.test_case "restore into a smaller cache keeps the MRU tail"
      `Quick test_restore_into_smaller_cache_keeps_mru;
    Alcotest.test_case "snapshot save/load round trip" `Quick
      test_snapshot_save_load_roundtrip;
    Alcotest.test_case "snapshot: missing file is a cold start" `Quick
      test_snapshot_missing_file_is_cold;
    Alcotest.test_case "snapshot rejects every corruption" `Quick
      test_snapshot_rejects_every_corruption;
    Alcotest.test_case "oracle: snapshot save→load ≡ identity" `Quick
      test_snapshot_roundtrip_oracle;
    Alcotest.test_case "oracle: config_key injective" `Quick
      test_key_injective_oracle;
    Alcotest.test_case "component keys injective" `Quick
      test_component_keys_injective;
  ]
