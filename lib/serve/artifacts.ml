open Nanodec_codes
open Nanodec_numerics
open Nanodec_crossbar
open Nanodec
module E = Nanodec_error

type value =
  | Nu of Imatrix.t
  | Analysis of Cave.analysis
  | Kernel of Kernel.t
  | Report of string
  | Estimate of string
  | Sweep of string
  | Words of string

type t = value Artifact_cache.t

(* Bump the version whenever a fragment kind's key or bytes change
   shape: the snapshot loader refuses mismatched schemas, so a stale
   on-disk cache degrades to a cold start instead of splicing bytes of
   the wrong shape into responses. *)
let snapshot_schema = "nanodec-artifacts-v2"

let create ?enabled ~capacity () = Artifact_cache.create ?enabled ~capacity ()

(* --- fragment rendering ---

   Fragments carry no wall-clock, pid or host fields: each is a pure
   function of its key, which is what lets a hit splice stored bytes
   into a response. *)

(* [?spec] appends the sampling-method tag only when the request opted
   into one, so legacy requests keep byte-identical responses (the CI
   smoke goldens). *)
let estimate_json ~seed ?spec (e : Montecarlo.estimate) =
  Json.Obj
    ([
       ("mean", Json.Float e.Montecarlo.mean);
       ("std_error", Json.Float e.Montecarlo.std_error);
       ("ci95_low", Json.Float e.Montecarlo.ci95_low);
       ("ci95_high", Json.Float e.Montecarlo.ci95_high);
       ("samples", Json.Int e.Montecarlo.samples);
       ("seed", Json.Int seed);
     ]
    @
    match spec with
    | None -> []
    | Some s ->
      [ ("method", Json.String (Montecarlo.strategy_name s.Montecarlo.strategy)) ])

let report_json (r : Design.report) =
  let spec = r.Design.spec in
  let cave = spec.Design.cave in
  Json.Obj
    [
      ("code", Json.String (Codebook.name cave.Cave.code_type));
      ("radix", Json.Int cave.Cave.radix);
      ("length", Json.Int cave.Cave.code_length);
      ("wires", Json.Int cave.Cave.n_wires);
      ("raw_bits", Json.Int spec.Design.raw_bits);
      ("omega", Json.Int r.Design.omega);
      ("phi", Json.Int r.Design.phi);
      ("phi_per_wire", Json.Float r.Design.phi_per_wire);
      ("sigma_norm1", Json.Float r.Design.sigma_norm1);
      ("average_nu", Json.Float r.Design.average_nu);
      ("max_nu", Json.Int r.Design.max_nu);
      ("pattern_transitions", Json.Int r.Design.pattern_transitions);
      ("cave_yield", Json.Float r.Design.cave_yield);
      ("crossbar_yield", Json.Float r.Design.crossbar_yield);
      ("effective_bits", Json.Float r.Design.effective_bits);
      ("bit_area", Json.Float r.Design.bit_area);
      ("area", Json.Float r.Design.area);
      ("n_pads", Json.Int r.Design.n_pads);
      ("removed_wires", Json.Int r.Design.removed_wires);
    ]

let sweep_row_json (r : Design.report) =
  let cave = r.Design.spec.Design.cave in
  Json.Obj
    [
      ("code", Json.String (Codebook.name cave.Cave.code_type));
      ("radix", Json.Int cave.Cave.radix);
      ("length", Json.Int cave.Cave.code_length);
      ("phi", Json.Int r.Design.phi);
      ("crossbar_yield", Json.Float r.Design.crossbar_yield);
      ("effective_bits", Json.Float r.Design.effective_bits);
      ("bit_area", Json.Float r.Design.bit_area);
    ]

(* Key prefixes keep the kinds disjoint, so a key can only ever map to
   one variant; a mismatch is an internal invariant violation, never a
   user error. *)
let unwrap_error ~key ~wanted =
  E.fail
    (E.internal
       (Printf.sprintf "artifact cache kind mismatch for %s (wanted %s)" key
          wanted))

let words cache ~radix ~length ~count ct =
  let key =
    Printf.sprintf "words|%s|k=%d" (Codebook.cache_key ~radix ~length ct) count
  in
  match
    Artifact_cache.find_or_build cache ~key (fun () ->
        let words = Codebook.sequence ~radix ~length ~count ct in
        Words
          (Json.to_string
             (Json.Obj
                [
                  ("code", Json.String (Codebook.name ct));
                  ("omega", Json.Int (Codebook.space_size ~radix ~length ct));
                  ( "words",
                    Json.List
                      (List.map (fun w -> Json.String (Word.to_string w)) words)
                  );
                ])))
  with
  | Words s, hit -> (s, hit)
  | _ -> unwrap_error ~key ~wanted:"words"

let nu cache pattern =
  let key = "nu|" ^ Nanodec_mspt.Pattern.cache_key pattern in
  match
    Artifact_cache.find_or_build cache ~key (fun () ->
        Nu (Nanodec_mspt.Variability.nu_matrix pattern))
  with
  | Nu m, hit -> (m, hit)
  | _ -> unwrap_error ~key ~wanted:"nu"

let analysis cache config =
  let key = "analysis|" ^ Cave.config_key config in
  match
    Artifact_cache.find_or_build cache ~key (fun () ->
        let pattern =
          Nanodec_mspt.Pattern.of_codebook ~radix:config.Cave.radix
            ~length:config.Cave.code_length ~n_wires:config.Cave.n_wires
            config.Cave.code_type
        in
        let nu, _ = nu cache pattern in
        Analysis (Cave.analyze ~nu config))
  with
  | Analysis a, hit -> (a, hit)
  | _ -> unwrap_error ~key ~wanted:"analysis"

let kernel cache config =
  let key = "kernel|" ^ Cave.config_key config in
  match
    Artifact_cache.find_or_build cache ~key (fun () ->
        let a, _ = analysis cache config in
        Kernel (Cave.kernel_of_analysis a))
  with
  | Kernel k, hit -> (k, hit)
  | _ -> unwrap_error ~key ~wanted:"kernel"

let report cache spec =
  let key =
    Printf.sprintf "report|raw=%d|%s" spec.Design.raw_bits
      (Cave.config_key spec.Design.cave)
  in
  match
    Artifact_cache.find_or_build cache ~key (fun () ->
        Report (Json.to_string (report_json (Design.evaluate spec))))
  with
  | Report s, hit -> (s, hit)
  | _ -> unwrap_error ~key ~wanted:"report"

let estimate_key ~seed ~samples config =
  Printf.sprintf "estimate|seed=%d|samples=%d|%s" seed samples
    (Cave.config_key config)

(* The spec key replaces the plain [samples=] component: strategy and
   stopping rule are part of the estimate's identity, and the
   serialization is injective, so distinct specs never collide — with
   each other or with the legacy plain keys. *)
let estimate_spec_key ~seed ~spec config =
  Printf.sprintf "estimate|seed=%d|%s|%s" seed
    (Montecarlo.spec_key spec)
    (Cave.config_key config)

(* The one estimate builder, cached or not: the analysis and kernel
   come through their caches, the estimate runs on the request's
   context.  An explicit [spec] wins over [samples], as in
   [Cave.mc_yield_window_par]. *)
let build_estimate cache ~ctx ~seed ~samples ?spec config =
  let a, _ = analysis cache config in
  let k, _ = kernel cache config in
  Json.to_string
    (estimate_json ~seed ?spec
       (Cave.mc_yield_window_par ~ctx ?spec ~kernel:k (Rng.create ~seed)
          ~samples a))

(* The seed and the method tag (present exactly when a spec is) are
   both part of the key, so the rendered fragment is as much a function
   of the key as the estimate it renders. *)
let estimate cache ~ctx ~seed ~samples ?spec config =
  let key =
    match spec with
    | None -> estimate_key ~seed ~samples config
    | Some spec -> estimate_spec_key ~seed ~spec config
  in
  match
    Artifact_cache.find_or_build cache ~key (fun () ->
        Estimate (build_estimate cache ~ctx ~seed ~samples ?spec config))
  with
  | Estimate s, hit -> (s, hit)
  | _ -> unwrap_error ~key ~wanted:"estimate"

let estimate_spec cache ~ctx ~seed ~spec config =
  let samples =
    match spec.Montecarlo.stopping with
    | Montecarlo.Fixed_samples n -> n
    | Montecarlo.Until_rel_error { max_samples; _ } -> max_samples
  in
  estimate cache ~ctx ~seed ~samples ~spec config

let sweep cache spec =
  let key =
    Printf.sprintf "sweep|raw=%d|%s" spec.Design.raw_bits
      (Cave.config_key spec.Design.cave)
  in
  match
    Artifact_cache.find_or_build cache ~key (fun () ->
        Sweep
          (Json.to_string
             (Json.Obj
                [
                  ( "rows",
                    Json.List
                      (List.map sweep_row_json (Optimizer.sweep ~spec ())) );
                ])))
  with
  | Sweep s, hit -> (s, hit)
  | _ -> unwrap_error ~key ~wanted:"sweep"

(* --- snapshots --- *)

let fragment = function
  | Report s | Estimate s | Sweep s | Words s -> Some s
  | Nu _ | Analysis _ | Kernel _ -> None

let snapshot cache =
  List.filter_map
    (fun (key, cost_s, value) ->
      Option.map (fun s -> (key, cost_s, s)) (fragment value))
    (Artifact_cache.dump cache)

(* The kind a fragment key names, by the prefix its accessor gives it. *)
let fragment_of_key key bytes =
  match String.index_opt key '|' with
  | None -> None
  | Some i -> (
    match String.sub key 0 i with
    | "report" -> Some (Report bytes)
    | "estimate" -> Some (Estimate bytes)
    | "sweep" -> Some (Sweep bytes)
    | "words" -> Some (Words bytes)
    | _ -> None)

(* A restored fragment is spliced into responses verbatim, so it must
   be exactly what a builder renders: one canonical JSON object. *)
let canonical_object bytes =
  match Json.parse bytes with
  | Ok (Json.Obj _ as v) -> String.equal (Json.to_string v) bytes
  | Ok _ | Error _ -> false

let restore cache entries =
  let rec check acc = function
    | [] -> Ok (List.rev acc)
    | (key, cost_s, bytes) :: rest -> (
      match fragment_of_key key bytes with
      | None -> Error (Printf.sprintf "not a fragment key: %S" key)
      | Some _ when not (canonical_object bytes) ->
        Error (Printf.sprintf "not a canonical JSON object: %S" key)
      | Some value -> check ((key, cost_s, value) :: acc) rest)
  in
  Result.map (Artifact_cache.restore cache) (check [] entries)
