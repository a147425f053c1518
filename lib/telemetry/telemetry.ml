(* Observability with no dependency beyond the repo's Json: spans,
   counters and log-scale latency histograms behind one [sink] value.

   Domain-safety model.  Counters and histograms are arrays of atomics —
   any domain may hit them concurrently.  Spans are recorded into
   per-domain buffers: each domain appends to a buffer only it writes
   (found through a domain-local cache, registered into the sink under
   its mutex on first use), and the buffers are merged at export time.
   The export functions must therefore run after the parallel work has
   joined — which every pool join in this code base guarantees — and the
   pool's own join mutex provides the happens-before that publishes the
   worker buffers to the exporting domain.

   Clock.  The default clock is CLOCK_MONOTONIC (monotonic_stubs.c), so
   an NTP step or a manual reset of the wall clock never stretches or
   shrinks a span.  A custom [clock] can be injected for tests; each span
   buffer still clamps time to never run backwards, which keeps every
   exported span tree well-formed (children inside parents) whatever
   clock was injected. *)

(* --- counters --- *)

type counter = { c_name : string; cell : int Atomic.t }

(* --- histograms ---

   Bucket [b] counts observations whose duration in nanoseconds lies in
   [2^b, 2^(b+1)); bucket 0 also absorbs sub-nanosecond values.  64
   power-of-two buckets span 1 ns .. ~584 years, so no observation is
   ever out of range. *)

let hist_buckets = 64

type histogram = {
  h_name : string;
  counts : int Atomic.t array;
  observations : int Atomic.t;
  sum_ns : int Atomic.t;
  min_ns : int Atomic.t;
  max_ns : int Atomic.t;
}

(* --- spans: per-domain buffers --- *)

type raw_span = {
  r_name : string;
  r_id : int;  (* unique within its buffer *)
  r_parent : int;  (* r_id of the enclosing span, -1 for a root *)
  r_start : float;  (* seconds since the sink epoch *)
  r_stop : float;
}

type dbuf = {
  dom : int;  (* Domain.self of the owning domain *)
  mutable last_t : float;  (* per-domain monotonic clamp *)
  mutable open_spans : (int * string * float) list;  (* id, name, start *)
  mutable next_id : int;
  mutable closed : raw_span list;  (* latest first *)
  mutable n_closed : int;
}

(* Memory bound: a runaway span loop cannot grow a buffer without
   limit; beyond the cap spans are dropped and the drop is counted. *)
let max_spans_per_domain = 200_000

type sink = {
  sink_id : int;
  clock : unit -> float;
  epoch : float;
  mutex : Mutex.t;
  by_domain : (int, dbuf) Hashtbl.t;
  counter_tbl : (string, counter) Hashtbl.t;
  histogram_tbl : (string, histogram) Hashtbl.t;
  dropped_spans : int Atomic.t;
}

let next_sink_id = Atomic.make 0

external monotonic_s : unit -> (float[@unboxed])
  = "nanodec_telemetry_monotonic_s_byte" "nanodec_telemetry_monotonic_s"
[@@noalloc]

let create ?(clock = monotonic_s) () =
  {
    sink_id = Atomic.fetch_and_add next_sink_id 1;
    clock;
    epoch = clock ();
    mutex = Mutex.create ();
    by_domain = Hashtbl.create 8;
    counter_tbl = Hashtbl.create 16;
    histogram_tbl = Hashtbl.create 16;
    dropped_spans = Atomic.make 0;
  }

(* Each domain caches its buffer for the sink it used last; switching
   sinks falls back to the registry lookup under the sink mutex.  The
   cache holds (sink_id, buffer) so a stale entry from another sink can
   never be confused for this one's. *)
let dbuf_cache : (int * dbuf) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let dbuf_for t =
  let cache = Domain.DLS.get dbuf_cache in
  match !cache with
  | Some (id, b) when id = t.sink_id -> b
  | _ ->
    let dom = (Domain.self () :> int) in
    Mutex.lock t.mutex;
    let b =
      match Hashtbl.find_opt t.by_domain dom with
      | Some b -> b
      | None ->
        let b =
          {
            dom;
            last_t = 0.;
            open_spans = [];
            next_id = 0;
            closed = [];
            n_closed = 0;
          }
        in
        Hashtbl.add t.by_domain dom b;
        b
    in
    Mutex.unlock t.mutex;
    cache := Some (t.sink_id, b);
    b

let now t = t.clock () -. t.epoch

(* Monotonic within one buffer: never before the previous timestamp
   taken on this domain. *)
let now_mono t b =
  let x = now t in
  let x = if x < b.last_t then b.last_t else x in
  b.last_t <- x;
  x

let span_begin t name =
  let b = dbuf_for t in
  let id = b.next_id in
  b.next_id <- id + 1;
  b.open_spans <- (id, name, now_mono t b) :: b.open_spans;
  b

let span_end t b =
  match b.open_spans with
  | [] -> ()  (* impossible through [with_span]; ignore defensively *)
  | (id, name, start) :: rest ->
    b.open_spans <- rest;
    let parent = match rest with (pid, _, _) :: _ -> pid | [] -> -1 in
    if b.n_closed >= max_spans_per_domain then
      Atomic.incr t.dropped_spans
    else begin
      b.closed <-
        {
          r_name = name;
          r_id = id;
          r_parent = parent;
          r_start = start;
          r_stop = now_mono t b;
        }
        :: b.closed;
      b.n_closed <- b.n_closed + 1
    end

let with_span sink name f =
  match sink with
  | None -> f ()
  | Some t ->
    let b = span_begin t name in
    Fun.protect ~finally:(fun () -> span_end t b) f

(* --- counters --- *)

let counter t name =
  Mutex.lock t.mutex;
  let c =
    match Hashtbl.find_opt t.counter_tbl name with
    | Some c -> c
    | None ->
      let c = { c_name = name; cell = Atomic.make 0 } in
      Hashtbl.add t.counter_tbl name c;
      c
  in
  Mutex.unlock t.mutex;
  c

let add c n = ignore (Atomic.fetch_and_add c.cell n)
let incr c = add c 1
let counter_name c = c.c_name
let counter_value c = Atomic.get c.cell

let count sink name n =
  match sink with None -> () | Some t -> add (counter t name) n

(* --- histograms --- *)

let histogram t name =
  Mutex.lock t.mutex;
  let h =
    match Hashtbl.find_opt t.histogram_tbl name with
    | Some h -> h
    | None ->
      let h =
        {
          h_name = name;
          counts = Array.init hist_buckets (fun _ -> Atomic.make 0);
          observations = Atomic.make 0;
          sum_ns = Atomic.make 0;
          min_ns = Atomic.make max_int;
          max_ns = Atomic.make min_int;
        }
      in
      Hashtbl.add t.histogram_tbl name h;
      h
  in
  Mutex.unlock t.mutex;
  h

let bucket_of_ns ns =
  if ns <= 1 then 0
  else begin
    let b = ref 0 and n = ref (ns lsr 1) in
    while !n > 0 do
      Stdlib.incr b;
      n := !n lsr 1
    done;
    if !b >= hist_buckets then hist_buckets - 1 else !b
  end

let rec atomic_min cell x =
  let cur = Atomic.get cell in
  if x < cur && not (Atomic.compare_and_set cell cur x) then atomic_min cell x

let rec atomic_max cell x =
  let cur = Atomic.get cell in
  if x > cur && not (Atomic.compare_and_set cell cur x) then atomic_max cell x

let observe h seconds =
  let s = if seconds > 0. then seconds else 0. in
  let ns = int_of_float (s *. 1e9) in
  ignore (Atomic.fetch_and_add (h.counts.(bucket_of_ns ns)) 1);
  ignore (Atomic.fetch_and_add h.observations 1);
  ignore (Atomic.fetch_and_add h.sum_ns ns);
  atomic_min h.min_ns ns;
  atomic_max h.max_ns ns

let record sink name seconds =
  match sink with None -> () | Some t -> observe (histogram t name) seconds

(* --- export: span trees --- *)

type span = {
  span_name : string;
  domain : int;
  start_s : float;
  stop_s : float;
  children : span list;
}

let buffers t =
  Mutex.lock t.mutex;
  let bs = Hashtbl.fold (fun _ b acc -> b :: acc) t.by_domain [] in
  Mutex.unlock t.mutex;
  List.sort (fun a b -> compare a.dom b.dom) bs

let tree_of_buffer b =
  (* children keyed by parent id, rebuilt oldest-first *)
  let by_parent = Hashtbl.create 64 in
  List.iter
    (fun r ->
      let siblings =
        Option.value ~default:[] (Hashtbl.find_opt by_parent r.r_parent)
      in
      Hashtbl.replace by_parent r.r_parent (r :: siblings))
    b.closed;
  (* [closed] is latest-first, so the fold above leaves each sibling
     list oldest-first already; sort by start for determinism anyway. *)
  let rec build r =
    let kids =
      Option.value ~default:[] (Hashtbl.find_opt by_parent r.r_id)
    in
    {
      span_name = r.r_name;
      domain = b.dom;
      start_s = r.r_start;
      stop_s = r.r_stop;
      children =
        List.sort
          (fun a b -> Float.compare a.start_s b.start_s)
          (List.map build kids);
    }
  in
  let roots = Option.value ~default:[] (Hashtbl.find_opt by_parent (-1)) in
  List.sort
    (fun a b -> Float.compare a.start_s b.start_s)
    (List.map build roots)

let span_trees t = List.concat_map tree_of_buffer (buffers t)

let rec span_well_formed parent_lo parent_hi s =
  parent_lo <= s.start_s
  && s.start_s <= s.stop_s
  && s.stop_s <= parent_hi
  && List.for_all (span_well_formed s.start_s s.stop_s) s.children

let well_formed t =
  List.for_all (span_well_formed neg_infinity infinity) (span_trees t)

let dropped_spans t = Atomic.get t.dropped_spans

(* --- export: counters and histograms --- *)

let counters t =
  Mutex.lock t.mutex;
  let cs =
    Hashtbl.fold (fun name c acc -> (name, Atomic.get c.cell) :: acc)
      t.counter_tbl []
  in
  Mutex.unlock t.mutex;
  List.sort compare cs

type hist_stats = {
  hs_name : string;
  hs_count : int;
  hs_sum_s : float;
  hs_min_s : float;
  hs_max_s : float;
  hs_buckets : (float * int) list;  (* non-empty only: (upper bound s, n) *)
}

let stats_of_histogram h =
  let n = Atomic.get h.observations in
  let buckets = ref [] in
  for b = hist_buckets - 1 downto 0 do
    let c = Atomic.get h.counts.(b) in
    if c > 0 then
      buckets := (Float.of_int (1 lsl (b + 1)) *. 1e-9, c) :: !buckets
  done;
  {
    hs_name = h.h_name;
    hs_count = n;
    hs_sum_s = float_of_int (Atomic.get h.sum_ns) *. 1e-9;
    hs_min_s = (if n = 0 then 0. else float_of_int (Atomic.get h.min_ns) *. 1e-9);
    hs_max_s = (if n = 0 then 0. else float_of_int (Atomic.get h.max_ns) *. 1e-9);
    hs_buckets = !buckets;
  }

let histograms t =
  Mutex.lock t.mutex;
  let hs = Hashtbl.fold (fun _ h acc -> h :: acc) t.histogram_tbl [] in
  Mutex.unlock t.mutex;
  List.sort compare (List.map stats_of_histogram hs)

let span_totals t =
  let tbl = Hashtbl.create 16 in
  let rec visit s =
    let n, total =
      Option.value ~default:(0, 0.) (Hashtbl.find_opt tbl s.span_name)
    in
    Hashtbl.replace tbl s.span_name (n + 1, total +. (s.stop_s -. s.start_s));
    List.iter visit s.children
  in
  List.iter visit (span_trees t);
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* --- JSON export: the schema is documented in TUTORIAL.md §10 --- *)

module Json = Nanodec_json.Json

let rec span_json s =
  Json.(
    Obj
      [
        ("name", String s.span_name);
        ("domain", Int s.domain);
        ("start_s", Float s.start_s);
        ("dur_s", Float (s.stop_s -. s.start_s));
        ("children", List (List.map span_json s.children));
      ])

let hist_json h =
  let bucket (le, n) = Json.(Obj [ ("le_s", Float le); ("count", Int n) ]) in
  Json.
    ( h.hs_name,
      Obj
        [
          ("count", Int h.hs_count);
          ("sum_s", Float h.hs_sum_s);
          ("min_s", Float h.hs_min_s);
          ("max_s", Float h.hs_max_s);
          ("buckets", List (List.map bucket h.hs_buckets));
        ] )

let to_json t =
  Json.(
    Obj
      [
        ("version", Int 1);
        ("dropped_spans", Int (dropped_spans t));
        ("spans", List (List.map span_json (span_trees t)));
        ("counters", Obj (List.map (fun (k, v) -> (k, Int v)) (counters t)));
        ("histograms", Obj (List.map hist_json (histograms t)));
      ])

let write_json t ~path =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_string (to_json t) ^ "\n"))

(* --- human-readable summary --- *)

let pp_duration ppf s =
  if s >= 1. then Format.fprintf ppf "%8.3f s " s
  else if s >= 1e-3 then Format.fprintf ppf "%8.3f ms" (s *. 1e3)
  else Format.fprintf ppf "%8.3f us" (s *. 1e6)

let pp_summary ppf t =
  let trees = span_trees t in
  let wall =
    List.fold_left
      (fun acc s -> Float.max acc (s.stop_s -. s.start_s))
      0. trees
  in
  Format.fprintf ppf "@[<v>-- telemetry profile %s@,"
    (String.make 40 '-');
  (match span_totals t with
  | [] -> Format.fprintf ppf "spans: none recorded@,"
  | totals ->
    Format.fprintf ppf "%-36s %8s %11s %11s %7s@," "span" "count" "total"
      "mean" "%wall";
    List.iter
      (fun (name, (n, total)) ->
        Format.fprintf ppf "  %-34s %8d %a %a %6.1f%%@," name n pp_duration
          total pp_duration
          (total /. float_of_int n)
          (if wall > 0. then 100. *. total /. wall else 0.))
      totals);
  (match counters t with
  | [] -> ()
  | cs ->
    Format.fprintf ppf "%-36s %8s@," "counter" "value";
    List.iter
      (fun (name, v) -> Format.fprintf ppf "  %-34s %8d@," name v)
      cs);
  (match histograms t with
  | [] -> ()
  | hs ->
    Format.fprintf ppf "%-36s %8s %11s %11s %11s@," "histogram" "count"
      "mean" "min" "max";
    List.iter
      (fun h ->
        if h.hs_count > 0 then
          Format.fprintf ppf "  %-34s %8d %a %a %a@," h.hs_name h.hs_count
            pp_duration
            (h.hs_sum_s /. float_of_int h.hs_count)
            pp_duration h.hs_min_s pp_duration h.hs_max_s)
      hs);
  if dropped_spans t > 0 then
    Format.fprintf ppf "  (%d spans dropped past the per-domain cap)@,"
      (dropped_spans t);
  Format.fprintf ppf "@]"
