(* In-process side of the nanodec benchmark (driven by perfbench/run.py).

   replay.exe serve --lines F --responses OUT
       [--probe-lines F --metrics OUT --spans OUT --handle-times OUT]

     Replays request lines serially through [Protocol.handle_line] on a
     fresh state (the same base context the daemon builds from its
     default flags) and writes one response per line: the correctness
     reference the daemon's responses are compared against.  With
     [--metrics] it also runs the traced per-layer replay described at
     [traced] below and writes a flat JSON object of per-layer metrics.

   replay.exe cli --designs F --samples N --seed S --out OUT

     For each "CODE LENGTH" design line, the closed-form cave yield and
     the Monte-Carlo check line `nanodec evaluate --mc-samples N --seed S`
     prints, computed in-process. *)

open Nanodec_codes
open Nanodec_numerics
open Nanodec_crossbar
open Nanodec
module Json = Nanodec_serve.Json
module Protocol = Nanodec_serve.Protocol
module Artifacts = Nanodec_serve.Artifacts
module Artifact_cache = Nanodec_serve.Artifact_cache
module Run_ctx = Nanodec_parallel.Run_ctx
module Pool = Nanodec_parallel.Pool
module E = Nanodec_error

external now_ns : unit -> int = "pb_now_ns" [@@noalloc]

let ms ns = float_of_int ns /. 1e6
let us ns = float_of_int ns /. 1e3

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> Array.of_list

let median = function
  | [] -> Float.nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The daemon's base context under its default flags: a pool of
   [Pool.default_domains ()] domains, the default seed, no telemetry. *)
let make_base () =
  Run_ctx.make ~domains:(Pool.default_domains ()) ~seed:Run_ctx.default_seed
    ~mc_samples:0 ()

(* --- spans, kept in memory and written once at the end --- *)

type span = {
  id : int;
  name : string;
  req : int;
  parent : int;
  start : int;
  stop : int;
}

let spans : span list ref = ref []
let next_id = ref 0
let cur_parent = ref (-1)
let cur_req = ref (-1)

let span name f =
  let id = !next_id in
  incr next_id;
  let parent = !cur_parent in
  cur_parent := id;
  let start = now_ns () in
  let finish () =
    let stop = now_ns () in
    cur_parent := parent;
    spans := { id; name; req = !cur_req; parent; start; stop } :: !spans;
    stop - start
  in
  match f () with
  | v -> (v, finish ())
  | exception e ->
    ignore (finish ());
    raise e

let write_spans path =
  Out_channel.with_open_text path @@ fun oc ->
  output_string oc "[";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s\n{\"id\":%d,\"name\":%S,\"req\":%d,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d}"
        (if i = 0 then "" else ",")
        s.id s.name s.req s.parent s.start s.stop)
    (List.rev !spans);
  output_string oc "\n]\n"

(* --- the request fields the layer decomposition needs, read the way
   Protocol reads them (same defaults) --- *)

type req = {
  verb : string;
  spec : Design.spec option;
  params : Json.t;
  seed : int option;
  samples : int option;
  timeout_s : float option;
  meth : Run_ctx.mc_method option;
}

let int_f j k d =
  match Option.bind (Json.member k j) Json.to_int_opt with
  | Some i -> i
  | None -> d

let spec_of_params p =
  let code_type =
    match Option.bind (Json.member "code" p) Json.to_string_opt with
    | Some s -> Option.value (Codebook.of_name s) ~default:Codebook.Balanced_gray
    | None -> Codebook.Balanced_gray
  in
  let base =
    { Design.default_spec with Design.raw_bits = int_f p "raw_bits" (16 * 1024 * 8) }
  in
  Design.spec ~base ~radix:(int_f p "radix" 2) ~n_wires:(int_f p "wires" 20)
    ~code_type ~code_length:(int_f p "length" 10) ()

let mc_method_of s =
  match E.parse_mc_method ~what:"method" s with
  | `Plain -> Run_ctx.Plain
  | `Antithetic -> Run_ctx.Antithetic
  | `Stratified k -> Run_ctx.Stratified k
  | `Importance f -> Run_ctx.Importance f

let req_of_json json =
  let obj k = Option.value (Json.member k json) ~default:(Json.Obj []) in
  let params = obj "params" and ex = obj "exec" in
  let verb =
    Option.value
      (Option.bind (Json.member "verb" json) Json.to_string_opt)
      ~default:""
  in
  {
    verb;
    spec =
      (match verb with
      | "evaluate" | "yield" | "sweep" -> Some (spec_of_params params)
      | _ -> None);
    params;
    seed = Option.bind (Json.member "seed" ex) Json.to_int_opt;
    samples = Option.bind (Json.member "mc_samples" ex) Json.to_int_opt;
    timeout_s = Option.bind (Json.member "timeout" ex) Json.to_float_opt;
    meth =
      Option.map mc_method_of
        (Option.bind (Json.member "method" ex) Json.to_string_opt);
  }

let req_of_line line =
  match Json.parse line with
  | Ok json -> Some (req_of_json json)
  | Error _ -> None

(* --- pass D: one line's work as calls into each layer's public
   functions, in the order and with the cache rounds [Protocol] makes.
   Durations of artifact calls that hit are collected for
   [artifacts.hit_us]. *)

let hit_ns = ref []

let cached name f =
  let (v, hit), d = span name f in
  if hit then hit_ns := d :: !hit_ns;
  v

let estimate arts r ~ctx ~samples config =
  let seed = Run_ctx.seed ctx in
  let spec =
    match r.meth with
    | None -> None
    | Some _ -> Some (Montecarlo.spec_of_ctx ~ctx ~samples ())
  in
  if r.timeout_s <> None then (
    (* deadline-bearing requests bypass the result cache *)
    let a = cached "artifacts.analysis" (fun () -> Artifacts.analysis arts config) in
    let k = cached "artifacts.kernel" (fun () -> Artifacts.kernel arts config) in
    ignore
      (span "cave.mc_yield_window_par" (fun () ->
           Cave.mc_yield_window_par ~ctx ?spec ~kernel:k (Rng.create ~seed)
             ~samples a)))
  else
    ignore
      (cached "artifacts.estimate" (fun () ->
           match spec with
           | None -> Artifacts.estimate arts ~ctx ~seed ~samples config
           | Some spec -> Artifacts.estimate_spec arts ~ctx ~seed ~spec config))

let with_request base r f =
  ignore
    (span "run_ctx.with_request" (fun () ->
         Run_ctx.with_request ~base ?seed:r.seed ?mc_samples:r.samples
           ?timeout_s:r.timeout_s ?mc_method:r.meth ~degrade:true ~warn:false f))

let decompose arts base line response =
  let parsed, _ = span "json.parse" (fun () -> Json.parse line) in
  (match parsed with
  | Error _ -> ()
  | Ok json -> (
    let r, _ = span "protocol.fields" (fun () -> req_of_json json) in
    match (r.verb, r.spec) with
    | "evaluate", Some spec -> (
      ignore (cached "artifacts.report" (fun () -> Artifacts.report arts spec));
      match r.samples with
      | None -> ()
      | Some samples ->
        with_request base r (fun ctx ->
            estimate arts r ~ctx ~samples spec.Design.cave))
    | "yield", Some spec ->
      let samples = Option.value r.samples ~default:1000 in
      with_request base r (fun ctx ->
          ignore
            (cached "artifacts.analysis" (fun () ->
                 Artifacts.analysis arts spec.Design.cave));
          estimate arts r ~ctx ~samples spec.Design.cave)
    | "sweep", Some spec ->
      ignore (cached "artifacts.sweep" (fun () -> Artifacts.sweep arts spec))
    | "codes", _ ->
      let p = r.params in
      let ct =
        match Option.bind (Json.member "code" p) Json.to_string_opt with
        | Some s -> Option.value (Codebook.of_name s) ~default:Codebook.Balanced_gray
        | None -> Codebook.Balanced_gray
      in
      ignore
        (cached "artifacts.words" (fun () ->
             Artifacts.words arts ~radix:(int_f p "radix" 2)
               ~length:(int_f p "length" 10) ~count:(int_f p "count" 16) ct))
    | "stats", _ ->
      ignore
        (span "cache.stats" (fun () ->
             ( Artifact_cache.stats arts,
               List.map Artifact_cache.digest (Artifact_cache.keys arts) )))
    | _ -> ()));
  match Json.parse response with
  | Ok v -> ignore (span "json.render" (fun () -> Json.to_string v))
  | Error _ -> ()

(* --- closed-form and Monte-Carlo layers, timed directly --- *)

(* Run [f] [reps] times, returning each duration in ns. *)
let repeat reps f =
  List.init reps (fun _ ->
      let t0 = now_ns () in
      ignore (Sys.opaque_identity (f ()));
      now_ns () - t0)

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: xs -> x :: take (n - 1) xs

let dedup key xs =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun x ->
      let k = key x in
      if Hashtbl.mem seen k then false
      else (
        Hashtbl.add seen k ();
        true))
    xs

(* --- serve mode --- *)

(* Pass-A seconds of workload lines the traced passes replay. *)
let trace_budget_s = 2.

let serve_mode ~lines ~responses ~probe ~metrics ~spans_out ~handle_out =
  let lines = read_lines lines in
  let base = make_base () in
  (* pass A: the correctness reference, every line, fresh state *)
  let st = Protocol.make_state ~base () in
  let per_line = Array.make (Array.length lines) 0 in
  Out_channel.with_open_text responses (fun oc ->
      Array.iteri
        (fun i line ->
          let t0 = now_ns () in
          let r = Protocol.handle_line st line in
          per_line.(i) <- now_ns () - t0;
          output_string oc r;
          output_char oc '\n')
        lines);
  let replay_stats = Artifact_cache.stats (Protocol.artifacts st) in
  match metrics with
  | None -> Run_ctx.shutdown base
  | Some metrics_out ->
    (* The traced set: the longest prefix of the workload's lines whose
       pass-A time fits the budget (at least one line, at most
       [max_traced]), then the probe lines, which cover any verb the
       workload does not send. *)
    let budget = int_of_float (trace_budget_s *. 1e9) and max_traced = 5000 in
    let prefix =
      let rec go i acc =
        if
          i >= Array.length lines || i >= max_traced
          || (i > 0 && acc + per_line.(i) > budget)
        then i
        else go (i + 1) (acc + per_line.(i))
      in
      go 0 0
    in
    let probe = match probe with Some p -> read_lines p | None -> [||] in
    let traced =
      Array.append
        (Array.map (fun l -> (l, false)) (Array.sub lines 0 prefix))
        (Array.map (fun l -> (l, true)) probe)
    in
    let n = Array.length traced in
    (* pass B: untraced *)
    let st_b = Protocol.make_state ~base () in
    let t0 = now_ns () in
    Array.iter (fun (l, _) -> ignore (Protocol.handle_line st_b l)) traced;
    let untraced_ns = now_ns () - t0 in
    (* pass C: handle_line inside a span, with allocation counters *)
    let st_c = Protocol.make_state ~base () in
    let handle = Array.make n 0 and alloc = Array.make n 0. in
    let resp = Array.make n "" in
    let t0 = now_ns () in
    Array.iteri
      (fun i (l, _) ->
        cur_req := i;
        let mi0, pr0, ma0 = Gc.counters () in
        let r, d = span "protocol.handle_line" (fun () -> Protocol.handle_line st_c l) in
        let mi1, pr1, ma1 = Gc.counters () in
        handle.(i) <- d;
        alloc.(i) <- mi1 -. mi0 +. (ma1 -. ma0) -. (pr1 -. pr0);
        resp.(i) <- r)
      traced;
    let traced_ns = now_ns () - t0 in
    (* pass D: the same lines as layer calls on a fresh artifact cache *)
    let arts = Artifacts.create ~capacity:256 () in
    let first_d = !next_id in
    Array.iteri
      (fun i (l, _) ->
        cur_req := i;
        decompose arts base l resp.(i))
      traced;
    cur_req := -1;
    let d_spans = List.filter (fun s -> s.id >= first_d) !spans in
    let covered = Array.make n 0 in
    List.iter
      (fun s -> if s.parent = -1 then covered.(s.req) <- covered.(s.req) + s.stop - s.start)
      d_spans;
    let span_us name =
      List.filter_map
        (fun s -> if s.name = name then Some (us (s.stop - s.start)) else None)
        d_spans
    in
    let reqs = Array.map (fun (l, p) -> (req_of_line l, p)) traced in
    (* Per-verb figures come from the workload's own lines when it sends
       that verb, otherwise from the probe lines. *)
    let select pred =
      let pick probe_ok =
        List.filter_map Fun.id
          (List.init n (fun i ->
               match reqs.(i) with
               | Some r, p when p = probe_ok && pred r -> Some i
               | _ -> None))
      in
      match pick false with [] -> pick true | l -> l
    in
    let handle_of pred scale = median (List.map (fun i -> scale handle.(i)) (select pred)) in
    let verb v r = r.verb = v in
    let metrics = ref [] in
    let put k v = metrics := (k, v) :: !metrics in
    List.iter
      (fun v -> put ("protocol.handle_us." ^ v) (handle_of (verb v) us))
      [ "evaluate"; "yield"; "sweep"; "codes"; "stats" ];
    (* lines whose deadline takes effect: MC-bearing, so the cache bypass
       and the deadline-carrying pool job both run *)
    put "protocol.deadline_ms"
      (handle_of
         (fun r ->
           r.timeout_s <> None
           && (r.verb = "yield" || (r.verb = "evaluate" && r.samples <> None)))
         ms);
    put "protocol.stats_bytes"
      (median
         (List.map (fun i -> float_of_int (String.length resp.(i))) (select (verb "stats"))));
    put "protocol.alloc_kb_per_req"
      (Array.fold_left ( +. ) 0. alloc *. float_of_int (Sys.word_size / 8)
       /. 1024. /. float_of_int (max 1 n));
    put "json.parse_us" (median (span_us "json.parse"));
    put "json.render_us" (median (span_us "json.render"));
    put "artifacts.hit_us" (median (List.map us !hit_ns));
    let sum a = Array.fold_left ( + ) 0 a in
    put "trace.overhead_frac"
      (float_of_int (traced_ns - untraced_ns) /. float_of_int (max 1 untraced_ns));
    put "trace.unexplained_frac"
      (float_of_int (sum handle - sum covered) /. float_of_int (max 1 (sum handle)));
    put "replay.prefix_lines" (float_of_int prefix);
    put "replay.misses" (float_of_int replay_stats.Artifact_cache.misses);
    put "replay.build_s" replay_stats.Artifact_cache.build_s;
    (* closed-form layers over the workload's distinct designs *)
    let all_reqs = Array.to_list (Array.map fst reqs) |> List.filter_map Fun.id in
    let specs =
      List.filter_map (fun r -> r.spec) all_reqs
      |> dedup (fun s -> Cave.config_key s.Design.cave)
      |> take 12
    in
    let specs = if specs = [] then [ Design.default_spec ] else specs in
    let configs = List.map (fun s -> s.Design.cave) specs in
    let pattern (c : Cave.config) =
      Nanodec_mspt.Pattern.of_codebook ~radix:c.Cave.radix ~length:c.Cave.code_length
        ~n_wires:c.Cave.n_wires c.Cave.code_type
    in
    let over xs reps f scale =
      median (List.concat_map (fun x -> List.map scale (repeat reps (fun () -> f x))) xs)
    in
    put "codebook.words_us"
      (over configs 5
         (fun c ->
           Codebook.sequence ~radix:c.Cave.radix ~length:c.Cave.code_length
             ~count:c.Cave.n_wires c.Cave.code_type)
         us);
    put "variability.nu_us"
      (over configs 5 (fun c -> Nanodec_mspt.Variability.nu_matrix (pattern c)) us);
    put "complexity.phi_us"
      (over configs 5 (fun c -> Nanodec_mspt.Complexity.total (pattern c)) us);
    put "cave.analyze_ms" (over configs 3 (fun c -> Cave.analyze c) ms);
    let analyses = List.map Cave.analyze configs in
    put "kernel.compile_ms" (over analyses 3 Cave.kernel_of_analysis ms);
    put "design.evaluate_ms" (over specs 3 Design.evaluate ms);
    let sweep_specs =
      List.filter_map (fun r -> if r.verb = "sweep" then r.spec else None) all_reqs
      |> dedup (fun s -> Printf.sprintf "%d|%s" s.Design.raw_bits (Cave.config_key s.Design.cave))
      |> take 4
    in
    let sweep_specs = if sweep_specs = [] then [ Design.default_spec ] else sweep_specs in
    put "optimizer.sweep_ms" (over sweep_specs 2 (fun spec -> Optimizer.sweep ~spec ()) ms);
    List.iter
      (fun (name, f) -> put ("figures." ^ name ^ "_ms") (median (List.map ms (repeat 3 f))))
      [
        ("fig5", fun () -> ignore (Figures.fig5 ()));
        ("fig6", fun () -> ignore (Figures.fig6 ()));
        ("fig7", fun () -> ignore (Figures.fig7 ~ctx:base ()));
        ("fig8", fun () -> ignore (Figures.fig8 ~ctx:base ()));
        ("multivalued", fun () -> ignore (Figures.multivalued_designs ~ctx:base ()));
        ("headlines", fun () -> ignore (Figures.headlines ()));
      ];
    (* Monte-Carlo: the workload's distinct (design, samples, method) *)
    let mc_items =
      List.filter_map
        (fun r ->
          match (r.verb, r.spec, r.samples) with
          | "yield", Some s, n -> Some (s.Design.cave, Option.value n ~default:1000, r.meth)
          | "evaluate", Some s, Some n -> Some (s.Design.cave, n, r.meth)
          | _ -> None)
        all_reqs
      |> dedup (fun (c, n, m) ->
             Printf.sprintf "%s|%d|%s" (Cave.config_key c) n
               (match m with None -> "-" | Some m -> Montecarlo.strategy_name m))
      |> take 6
    in
    let mc_items =
      if mc_items = [] then [ (Cave.default_config, 1000, None) ] else mc_items
    in
    let mc_run ctx (c, samples, meth) =
      let a = Cave.analyze c in
      let kernel = Cave.kernel_of_analysis a in
      let spec = Option.map (fun strategy -> { Montecarlo.strategy; stopping = Montecarlo.Fixed_samples samples }) meth in
      fun () -> Cave.mc_yield_window_par ~ctx ?spec ~kernel (Rng.create ~seed:7) ~samples a
    in
    let with_chunking chunking f =
      Run_ctx.with_request ~base ~chunking ~degrade:true ~warn:false f
    in
    let auto = ref [] and fixed = ref [] and plain = ref [] in
    List.iter
      (fun item ->
        for _ = 1 to 3 do
          plain := repeat 1 (mc_run base item) @ !plain;
          auto := with_chunking Run_ctx.Auto (fun ctx -> repeat 1 (mc_run ctx item)) @ !auto;
          fixed := with_chunking (Run_ctx.Fixed 64) (fun ctx -> repeat 1 (mc_run ctx item)) @ !fixed
        done)
      mc_items;
    put "mc.run_ms" (median (List.map ms !plain));
    put "mc.run_ms.auto" (median (List.map ms !auto));
    put "mc.run_ms.fixed64" (median (List.map ms !fixed));
    (* allocation and per-sample cost on the calling domain alone *)
    let seq = Run_ctx.make ~seed:Run_ctx.default_seed ~mc_samples:0 () in
    let ((_, samples, _) as first) = List.hd mc_items in
    let run_seq = mc_run seq first in
    ignore (run_seq ());
    let mi0, pr0, ma0 = Gc.counters () in
    ignore (run_seq ());
    let mi1, pr1, ma1 = Gc.counters () in
    put "mc.alloc_words_per_sample"
      ((mi1 -. mi0 +. (ma1 -. ma0) -. (pr1 -. pr0)) /. float_of_int samples);
    let draws = 2_000 in
    put "kernel.ns_per_sample"
      (median
         (List.map
            (fun (c, _, _) ->
              let k = Cave.kernel_of_analysis (Cave.analyze c) in
              let rng = Rng.create ~seed:11 in
              let t0 = now_ns () in
              for _ = 1 to draws do
                ignore (Sys.opaque_identity (Kernel.draw k rng))
              done;
              float_of_int (now_ns () - t0) /. float_of_int draws)
            mc_items));
    let wr ?timeout_s () =
      median
        (List.map ms
           (repeat 50 (fun () ->
                Run_ctx.with_request ~base ?timeout_s ~degrade:true ~warn:false
                  (fun _ -> ()))))
    in
    put "run_ctx.with_request_ms" (wr ());
    put "run_ctx.with_request_ms.timeout" (wr ~timeout_s:30. ());
    Run_ctx.shutdown base;
    Option.iter write_spans spans_out;
    Option.iter
      (fun path ->
        Out_channel.with_open_text path @@ fun oc ->
        Array.iteri (fun i d -> Printf.fprintf oc "%d %d\n" i d) handle)
      handle_out;
    Out_channel.with_open_text metrics_out (fun oc ->
        output_string oc "{";
        List.iteri
          (fun i (k, v) ->
            Printf.fprintf oc "%s%S:%s" (if i = 0 then "" else ",") k
              (if Float.is_finite v then Printf.sprintf "%.17g" v else "null"))
          (List.rev !metrics);
        output_string oc "}\n")

(* --- cli mode --- *)

let cli_mode ~designs ~samples ~seed ~out =
  let designs = read_lines designs in
  Run_ctx.with_ctx ~domains:(Pool.default_domains ()) ~seed ~mc_samples:samples
  @@ fun ctx ->
  Out_channel.with_open_text out @@ fun oc ->
  Array.iter
    (fun d ->
      Scanf.sscanf d "%s %d" @@ fun code length ->
      let code_type = Option.get (Codebook.of_name code) in
      let spec = Design.spec ~code_type ~code_length:length () in
      let analysis = Cave.analyze spec.Design.cave in
      let e =
        Cave.mc_yield_window_par ~ctx (Rng.create ~seed) ~samples analysis
      in
      Printf.fprintf oc "%s %d %.17g monte-carlo yield check: %.9f +/- %.9f (n=%d, seed %d)\n"
        code length analysis.Cave.yield e.Montecarlo.mean e.Montecarlo.std_error
        e.Montecarlo.samples seed)
    designs

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | a :: _ -> failwith ("unexpected argument " ^ a)
  in
  match args with
  | mode :: rest -> (
    let o = opts [] rest in
    let get k = List.assoc_opt k o in
    let req k =
      match get k with Some v -> v | None -> failwith ("missing --" ^ k)
    in
    match mode with
    | "serve" ->
      serve_mode ~lines:(req "lines") ~responses:(req "responses")
        ~probe:(get "probe-lines") ~metrics:(get "metrics")
        ~spans_out:(get "spans") ~handle_out:(get "handle-times")
    | "cli" ->
      cli_mode ~designs:(req "designs")
        ~samples:(int_of_string (req "samples"))
        ~seed:(int_of_string (req "seed"))
        ~out:(req "out")
    | m -> failwith ("unknown mode " ^ m))
  | [] -> failwith "usage: replay.exe (serve|cli) --opt value ..."
