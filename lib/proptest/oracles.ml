open Nanodec_codes
open Nanodec_numerics
open Nanodec_mspt
open Nanodec_crossbar
open Gen

let approx ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

(* Balanced-Gray and arranged-hot constructions are search-based with a
   node budget; exhaustion on a large space is a documented limitation,
   not a proposition violation, so those cases pass vacuously. *)
let sequence_opt ~radix ~length ~count family =
  match Codebook.sequence ~radix ~length ~count family with
  | words -> Some words
  | exception (Arranged_hot.Search_exhausted | Balanced_gray.Search_exhausted)
    ->
    None

(* Transition-driven part of Phi plus full ||Sigma||_1, the quantities
   Propositions 4-5 compare across arrangements (the last step's phi
   depends only on the final word, which the proofs hold fixed). *)
let costs_of_words words =
  let p = Pattern.of_words words in
  let phi = Complexity.phi_per_step p in
  let transition_phi =
    Array.fold_left ( + ) 0 (Array.sub phi 0 (Array.length phi - 1))
  in
  (transition_phi, Variability.sigma_norm1 ~sigma_t:1. p)

(* --- Proposition 1: D = h(P) with h an elementwise bijection --- *)

let h_bijectivity =
  Property.make ~name:"Prop 1: h = f.g is a bijection digit<->doping"
    ~print:(fun (r, rail) ->
      Printf.sprintf "radix %d, placement Spread %.2f" r rail)
    (pair (int_range ~origin:2 2 6) (float_range 0.05 0.3))
    (fun (r, rail) ->
      let levels =
        Nanodec_physics.Vt_levels.make ~radix:r
          ~placement:(Nanodec_physics.Vt_levels.Spread rail) ()
      in
      let dopings =
        List.init r (fun d -> Nanodec_physics.Vt_levels.doping_of_digit levels d)
      in
      (* strictly monotone => injective; the inverse recovers the digit *)
      let monotone =
        List.for_all2
          (fun a b -> a < b)
          (List.filteri (fun i _ -> i < r - 1) dopings)
          (List.tl dopings)
      in
      monotone
      && List.for_all
           (fun d ->
             Nanodec_physics.Vt_levels.digit_of_doping levels
               (Nanodec_physics.Vt_levels.doping_of_digit levels d)
             = d)
           (List.init r Fun.id))

let final_matrix_is_elementwise_h =
  Property.make ~name:"Def 2: D_i^j = h(P_i^j) elementwise"
    ~print:Generators.string_of_pattern_with_h Generators.pattern_with_h
    (fun (p, h) ->
      let d = Doping.final_matrix ~h p in
      let ok = ref true in
      for i = 0 to Pattern.n_wires p - 1 do
        for j = 0 to Pattern.n_regions p - 1 do
          if Fmatrix.get d i j <> h (Pattern.digit p ~wire:i ~region:j) then
            ok := false
        done
      done;
      !ok)

(* --- Proposition 2 / Definition 3: S and D determine each other --- *)

let step_matrix_definition =
  Property.make ~name:"Def 3: S_i = D_i - D_{i+1}, S_{N-1} = D_{N-1}"
    ~print:Generators.string_of_pattern_with_h Generators.pattern_with_h
    (fun (p, h) ->
      let d, s = Doping.of_pattern ~h p in
      let n = Fmatrix.rows d and m = Fmatrix.cols d in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to m - 1 do
          let expected =
            if i = n - 1 then Fmatrix.get d i j
            else Fmatrix.get d i j -. Fmatrix.get d (i + 1) j
          in
          if Fmatrix.get s i j <> expected then ok := false
        done
      done;
      !ok)

let step_final_round_trip =
  Property.make ~name:"Prop 2: D -> S -> D round-trips (suffix sums)"
    ~print:Generators.string_of_pattern_with_h Generators.pattern_with_h
    (fun (p, h) ->
      let d, s = Doping.of_pattern ~h p in
      let d' = Doping.final_of_step s in
      Fmatrix.rows d' = Fmatrix.rows d
      && Fmatrix.cols d' = Fmatrix.cols d
      &&
      let ok = ref true in
      for i = 0 to Fmatrix.rows d - 1 do
        for j = 0 to Fmatrix.cols d - 1 do
          if not (approx (Fmatrix.get d' i j) (Fmatrix.get d i j)) then
            ok := false
        done
      done;
      !ok)

(* --- Definition 4 / Proposition 5: phi_i = distinct non-zero doses --- *)

let phi_dose_pattern_equivalence =
  Property.make
    ~name:"Def 4: phi from pattern = distinct non-zero doses of S"
    ~print:Generators.string_of_pattern_with_h Generators.pattern_with_h
    (fun (p, h) ->
      let _, s = Doping.of_pattern ~h p in
      Complexity.phi_per_step p = Complexity.phi_per_step_of_doses s)

(* --- Definition 5 / Proposition 4 mechanism: nu counts doping hits --- *)

let nu_counts_operations =
  Property.make ~name:"Def 5: nu_i^j = #{k >= i | S_k^j <> 0}"
    ~print:Generators.string_of_pattern_with_h Generators.pattern_with_h
    (fun (p, h) ->
      let _, s = Doping.of_pattern ~h p in
      let nu = Variability.nu_matrix p in
      let n = Fmatrix.rows s and m = Fmatrix.cols s in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to m - 1 do
          let brute = ref 0 in
          for k = i to n - 1 do
            if Fmatrix.get s k j <> 0. then incr brute
          done;
          if Imatrix.get nu i j <> !brute then ok := false
        done
      done;
      !ok)

let sigma_consistency =
  Property.make
    ~name:"Prop 3: nu >= 1 and ||Sigma||_1 = sigma_T^2 * sum(nu)"
    ~print:Generators.string_of_pattern Generators.pattern
    (fun p ->
      let nu = Variability.nu_matrix p in
      Imatrix.min_entry nu >= 1
      && approx ~eps:1e-6
           (Variability.sigma_norm1 ~sigma_t:0.05 p)
           (0.05 *. 0.05 *. float_of_int (Imatrix.sum nu)))

(* --- Gray structure and Propositions 4-5 (arrangement optimality) --- *)

let gray_adjacency =
  Property.make
    ~name:"Gray words: distance 1 unreflected, 2 reflected, rank inverts"
    ~print:(fun (r, b) -> Printf.sprintf "radix %d, base_len %d" r b)
    (Generators.tree_space ~max_size:64 ())
    (fun (radix, base_len) ->
      let count = Tree_code.size ~radix ~base_len in
      let words = Gray_code.words ~radix ~base_len ~count in
      Gray_code.is_gray_sequence words
      && Arranged_hot.is_arranged (List.map Word.reflect words)
      && List.for_all2
           (fun i w -> Gray_code.rank w = i)
           (List.init count Fun.id) words)

let gray_not_beaten_phi =
  Property.make
    ~name:"Prop 5: no arrangement beats Gray on fabrication complexity Phi"
    ~print:(fun ((r, b), words) ->
      Printf.sprintf "radix %d base_len %d, order %s" r b
        (Generators.string_of_words words))
    (let* ((radix, base_len) as space) = Generators.tree_space ~max_size:9 () in
     let+ words = Generators.arrangement ~radix ~base_len in
     (space, words))
    (fun ((radix, base_len), words) ->
      let count = Tree_code.size ~radix ~base_len in
      let gray_phi, _ =
        costs_of_words
          (List.map Word.reflect (Gray_code.words ~radix ~base_len ~count))
      in
      let phi, _ = costs_of_words words in
      phi >= gray_phi)

let gray_not_beaten_sigma =
  Property.make
    ~name:"Prop 4: no arrangement beats Gray on variability ||Sigma||_1"
    ~print:(fun ((r, b), words) ->
      Printf.sprintf "radix %d base_len %d, order %s" r b
        (Generators.string_of_words words))
    (let* ((radix, base_len) as space) = Generators.tree_space ~max_size:9 () in
     let+ words = Generators.arrangement ~radix ~base_len in
     (space, words))
    (fun ((radix, base_len), words) ->
      let count = Tree_code.size ~radix ~base_len in
      let _, gray_sigma =
        costs_of_words
          (List.map Word.reflect (Gray_code.words ~radix ~base_len ~count))
      in
      let _, sigma = costs_of_words words in
      sigma >= gray_sigma -. 1e-9)

(* --- Hot codes (Section 5): membership and arranged adjacency = 2 --- *)

let hot_code_structure =
  Property.make
    ~name:"Hot codes: balanced digit counts, size = multinomial"
    ~print:(fun (r, k) -> Printf.sprintf "radix %d, k %d" r k)
    (pair (int_range ~origin:2 2 3) (int_range ~origin:1 1 2))
    (fun (r, k) ->
      let length = r * k in
      let all = Hot_code.all ~radix:r ~length in
      List.length all = Hot_code.size ~radix:r ~length
      && List.for_all Hot_code.is_member all
      && List.length (List.sort_uniq Word.compare all) = List.length all)

let arranged_hot_adjacency =
  Property.make
    ~name:"Section 5.2: arranged hot codes step at Hamming distance 2"
    ~print:(fun (r, k) -> Printf.sprintf "radix %d, k %d" r k)
    (pair (int_range ~origin:2 2 3) (int_range ~origin:1 1 3))
    (fun (r, k) ->
      let length = r * k in
      if r = 3 && k = 3 then true (* space > AHC search budget *)
      else
        let arranged = Arranged_hot.all ~radix:r ~length in
        Arranged_hot.is_arranged arranged
        && List.sort Word.compare arranged
           = List.sort Word.compare (Hot_code.all ~radix:r ~length))

(* --- Word algebra used throughout Section 2 --- *)

let word_involutions =
  Property.make ~name:"Words: complement involutive, reflect splits back"
    ~print:(fun w -> Word.to_string w) Generators.word_sized
    (fun w ->
      Word.equal (Word.complement (Word.complement w)) w
      && Word.equal (Word.base_part (Word.reflect w)) w
      && Word.is_reflected (Word.reflect w)
      && Word.hamming_distance w w = 0)

let reflection_unique_addressability =
  Property.make
    ~name:"Section 2.2: reflected tree words never dominate each other"
    ~print:(fun (r, b) -> Printf.sprintf "radix %d, base_len %d" r b)
    (Generators.tree_space ~max_size:27 ())
    (fun (radix, base_len) ->
      let count = Tree_code.size ~radix ~base_len in
      let words = Tree_code.reflected_words ~radix ~base_len ~count in
      List.for_all
        (fun a ->
          List.for_all
            (fun b -> Word.equal a b || not (Word.dominates a b))
            words)
        words)

(* --- Codebook and metrics coherence --- *)

let codebook_space_coverage =
  Property.make
    ~name:"Codebook: canonical sequence covers the space exactly once"
    ~print:Generators.string_of_code_config Generators.code_config
    (fun (family, radix, length) ->
      match Codebook.validate_length ~radix ~length family with
      | Error _ -> false
      | Ok () -> (
        let omega = Codebook.space_size ~radix ~length family in
        match sequence_opt ~radix ~length ~count:omega family with
        | None -> true
        | Some words ->
          List.length words = omega
          && List.length (List.sort_uniq Word.compare words) = omega
          && List.for_all
               (fun w -> Word.length w = length && Word.radix w = radix)
               words))

let metrics_consistency =
  Property.make
    ~name:"Metrics: transitions, spectrum and gray flag agree with words"
    ~print:Generators.string_of_code_config Generators.code_config
    (fun (family, radix, length) ->
      let omega = Codebook.space_size ~radix ~length family in
      match sequence_opt ~radix ~length ~count:omega family with
      | None -> true
      | Some words ->
        let m = Metrics.of_words words in
        let steps =
          let rec pairs = function
            | a :: (b :: _ as rest) -> Word.hamming_distance a b :: pairs rest
            | _ -> []
          in
          pairs words
        in
        m.Metrics.total_transitions = List.fold_left ( + ) 0 steps
        && m.Metrics.spectrum |> Array.fold_left ( + ) 0
           = m.Metrics.total_transitions
        && m.Metrics.is_gray = List.for_all (fun d -> d = 1) steps
        && m.Metrics.n_words = omega)

let pattern_transitions =
  Property.make
    ~name:"Pattern: row transitions equal word Hamming distances"
    ~print:Generators.string_of_pattern Generators.pattern
    (fun p ->
      let words = Array.of_list (Pattern.words p) in
      let t = Pattern.transitions_between_rows p in
      Array.length t = Array.length words - 1
      && Array.for_all Fun.id
           (Array.mapi
              (fun i d -> d = Word.hamming_distance words.(i) words.(i + 1))
              t)
      && Pattern.total_transitions p = Array.fold_left ( + ) 0 t)

(* --- Decoder sampling determinism (Section 6 infrastructure) --- *)

let defect_map_determinism =
  Property.make
    ~name:"Defect maps: same seed => identical layer, usable subset"
    ~print:(fun (c, seed) ->
      Printf.sprintf "%s, seed %d" (Generators.string_of_cave_config c) seed)
    (pair Generators.cave_config Generators.sample_seed)
    (fun (config, seed) ->
      let analysis = Cave.analyze config in
      let wires = (2 * config.Cave.n_wires) + 1 in
      let a = Defect_map.sample_layer (Rng.create ~seed) analysis ~wires in
      let b = Defect_map.sample_layer (Rng.create ~seed) analysis ~wires in
      a = b
      && Array.for_all
           (fun i -> a.(i) = Defect_map.Working)
           (Defect_map.usable_indices a))

(* --- Domain-parallel engine (bit-for-bit determinism contract) --- *)

let pool_map_sequential_equivalence =
  Property.make
    ~name:"Pool.map equals the in-order sequential map"
    ~print:(fun (xs, domains) ->
      Printf.sprintf "[%s] on %d domains"
        (String.concat "; " (List.map string_of_int xs))
        domains)
    (pair (list (int_range (-1000) 1000)) (int_range 1 4))
    (fun (xs, domains) ->
      (* A pure but order-sensitive function: any chunk mix-up or
         reordering of the fan-in changes the output. *)
      let f x = (x * 2654435761) lxor (x lsr 3) in
      let expected = List.map f xs in
      Nanodec_parallel.Pool.with_pool ~domains (fun pool ->
          Nanodec_parallel.Pool.map_list pool f xs = expected))

(* The plain fixed-count estimate every scheduling oracle below
   compares: [samples] draws of [f] on the streams of [seed]. *)
let plain_estimate ?ctx ~seed ~samples f =
  Montecarlo.run ?ctx
    (Montecarlo.spec (Montecarlo.fixed samples))
    (Rng.create ~seed) (Montecarlo.target f)

let chunked_mc_domain_invariance =
  Property.make
    ~name:"Chunked MC estimates are domain-count invariant"
    ~print:(fun (seed, (samples, chunks), domains) ->
      Printf.sprintf "seed %d, %d samples / %d chunks, %d domains" seed samples
        chunks domains)
    (triple Generators.sample_seed
       (pair (int_range 2 200) (int_range 1 32))
       (int_range 1 4))
    (fun (seed, (samples, chunks), domains) ->
      let f rng = Rng.gaussian rng +. Rng.float rng in
      let chunking = Nanodec_parallel.Run_ctx.Fixed chunks in
      let seq_ctx = Nanodec_parallel.Run_ctx.make ~chunking () in
      let sequential = plain_estimate ~ctx:seq_ctx ~seed ~samples f in
      Nanodec_parallel.Run_ctx.with_ctx ~domains ~chunking (fun ctx ->
          plain_estimate ~ctx ~seed ~samples f = sequential))

(* --- Telemetry (pure-observer contract) --- *)

module Telemetry = Nanodec_telemetry.Telemetry
module Run_ctx = Nanodec_parallel.Run_ctx

let telemetry_transparency =
  Property.make
    ~name:"Telemetry-on runs are bit-for-bit identical to telemetry-off"
    ~print:(fun (seed, (samples, chunks), dexp) ->
      Printf.sprintf "seed %d, %d samples / %d chunks, %d domains" seed samples
        chunks (1 lsl dexp))
    (triple Generators.sample_seed
       (pair (int_range 2 200) (int_range 1 32))
       (int_range 0 3))
    (fun (seed, (samples, chunks), dexp) ->
      let domains = 1 lsl dexp (* 1, 2, 4 or 8 *) in
      let f rng = Rng.gaussian rng +. Rng.float rng in
      let run ?telemetry () =
        Run_ctx.with_ctx ~domains ?telemetry
          ~chunking:(Run_ctx.Fixed chunks) (fun ctx ->
            plain_estimate ~ctx ~seed ~samples f)
      in
      let bare = run () in
      let sink = Telemetry.create () in
      let instrumented = run ~telemetry:sink () in
      instrumented = bare)

(* The scheduler's licensing property: chunk count and batch size are
   pure scheduling knobs, so an [Auto] run — cold, or on a sink that
   already holds a previous estimate — computes exactly the bits of
   any fixed-chunk run. *)
let auto_chunking_value_invariance =
  Property.make
    ~name:"Auto-chunked and fixed-chunk estimates are bit-identical"
    ~print:(fun (seed, (samples, chunks), domains) ->
      Printf.sprintf "seed %d, %d samples / %d chunks, %d domains" seed
        samples chunks domains)
    (triple Generators.sample_seed
       (pair (int_range 2 200) (int_range 1 32))
       (int_range 1 4))
    (fun (seed, (samples, chunks), domains) ->
      let f rng = Rng.gaussian rng +. Rng.float rng in
      let fixed =
        let ctx = Run_ctx.make ~chunking:(Run_ctx.Fixed chunks) () in
        plain_estimate ~ctx ~seed ~samples f
      in
      Run_ctx.with_ctx ~domains (fun ctx ->
          plain_estimate ~ctx ~seed ~samples f = fixed)
      &&
      let sink = Telemetry.create () in
      Run_ctx.with_ctx ~domains ~telemetry:sink (fun ctx ->
          ignore (plain_estimate ~ctx ~seed ~samples f);
          plain_estimate ~ctx ~seed ~samples f = fixed))

let telemetry_span_well_formedness =
  Property.make
    ~name:"Exported span trees are well-formed (children inside parents)"
    ~print:(fun (depths, domains) ->
      Printf.sprintf "nesting depths [%s] on %d domains"
        (String.concat "; " (List.map string_of_int depths))
        domains)
    (pair (list (int_range 0 5)) (int_range 1 4))
    (fun (depths, domains) ->
      let sink = Telemetry.create () in
      let tel = Some sink in
      Run_ctx.with_ctx ~domains ~telemetry:sink (fun ctx ->
          match Run_ctx.pool ctx with
          | None -> ()
          | Some pool ->
            ignore
              (Nanodec_parallel.Pool.map pool
                 (fun depth ->
                   let rec nest k =
                     if k <= 0 then 0
                     else
                       Telemetry.with_span tel "nest" (fun () -> 1 + nest (k - 1))
                   in
                   nest depth)
                 (Array.of_list depths)));
      (* Re-derive the invariant from the exported trees rather than
         trusting the library's own [well_formed]. *)
      let rec ok parent (s : Telemetry.span) =
        s.Telemetry.stop_s >= s.Telemetry.start_s
        && (match parent with
           | None -> true
           | Some (p : Telemetry.span) ->
             s.Telemetry.start_s >= p.Telemetry.start_s
             && s.Telemetry.stop_s <= p.Telemetry.stop_s
             && s.Telemetry.domain = p.Telemetry.domain)
        && List.for_all (ok (Some s)) s.Telemetry.children
      in
      List.for_all (ok None) (Telemetry.span_trees sink)
      && Telemetry.well_formed sink)

(* --- fault-injection transparency --- *)

module Fault = Nanodec_fault.Fault

(* A compiled-in but rule-free engine is invisible: same bits as no
   engine at all.  This is the probe-cost analogue of telemetry
   transparency, and what licenses shipping the probes always-on. *)
let fault_probes_inert =
  Property.make
    ~name:"Inert fault engine leaves results bit-for-bit unchanged"
    ~print:(fun (seed, (samples, chunks), dexp) ->
      Printf.sprintf "seed %d, %d samples / %d chunks, %d domains" seed
        samples chunks (1 lsl dexp))
    (triple Generators.sample_seed
       (pair (int_range 2 200) (int_range 1 32))
       (int_range 0 3))
    (fun (seed, (samples, chunks), dexp) ->
      let domains = 1 lsl dexp in
      let f rng = Rng.gaussian rng +. Rng.float rng in
      let run ?fault () =
        Run_ctx.with_ctx ~domains ?fault ~warn:false
          ~chunking:(Run_ctx.Fixed chunks) (fun ctx ->
            plain_estimate ~ctx ~seed ~samples f)
      in
      let engine = Fault.inert () in
      let r = run () = run ~fault:engine () in
      r && Fault.total_fired engine = 0)

(* Injected crashes are recovered (retry, then degraded sequential
   re-execution), and a recovered run computes exactly the bits the
   uninjected run does — the tentpole guarantee of the robustness
   layer.  [~warn:false]: this oracle degrades jobs on purpose,
   hundreds of times per run — the stderr announcement is for users
   whose jobs degrade unexpectedly, not for the chaos harness. *)
let fault_injection_transparency =
  Property.make
    ~name:"Recovered fault-injected runs equal the uninjected run"
    ~print:(fun ((seed, plan_seed), (samples, chunks), dexp) ->
      Printf.sprintf "seed %d, plan seed %d, %d samples / %d chunks, %d domains"
        seed plan_seed samples chunks (1 lsl dexp))
    (triple
       (pair Generators.sample_seed (int_range 0 10_000))
       (pair (int_range 2 200) (int_range 1 16))
       (int_range 0 2))
    (fun ((seed, plan_seed), (samples, chunks), dexp) ->
      let domains = 1 lsl dexp in
      let f rng = Rng.gaussian rng +. Rng.float rng in
      let run ?fault () =
        Run_ctx.with_ctx ~domains ?fault ~warn:false
          ~chunking:(Run_ctx.Fixed chunks) (fun ctx ->
            plain_estimate ~ctx ~seed ~samples f)
      in
      let plan =
        Fault.parse_exn
          (Printf.sprintf
             "seed=%d;pool.chunk:crash:p=0.3;mc.sample_batch:crash:p=0.2"
             plan_seed)
      in
      run ~fault:(Fault.create plan) () = run ())

(* The compiled MC kernel is an optimisation, not a model change: for
   any cave configuration and seed, the kernelized estimator computes
   exactly the bits of the allocating reference draw — across domain
   counts, and whether a fault plan is injecting crashes or the engine
   is inert.  This is the executable statement of the kernel's
   bit-for-bit contract (the bench gate only checks speed). *)
let kernel_reference_equivalence =
  Property.make
    ~name:"Compiled yield kernel equals the reference draw bit-for-bit"
    ~print:(fun ((config, seed), (samples, plan_seed)) ->
      Printf.sprintf "%s, seed %d, %d samples, plan seed %d"
        (Generators.string_of_cave_config config)
        seed samples plan_seed)
    (pair
       (pair Generators.cave_config Generators.sample_seed)
       (pair (int_range 2 120) (int_range 0 10_000)))
    (fun ((config, seed), (samples, plan_seed)) ->
      let analysis = Cave.analyze config in
      let run ~domains ?fault estimator =
        Run_ctx.with_ctx ~domains ?fault ~warn:false (fun ctx ->
            estimator ~ctx (Rng.create ~seed) ~samples analysis)
      in
      let plan () =
        Fault.create
          (Fault.parse_exn
             (Printf.sprintf
                "seed=%d;pool.chunk:crash:p=0.3;mc.sample_batch:crash:p=0.2"
                plan_seed))
      in
      let agree ~domains ?fault () =
        let kernel =
          run ~domains ?fault:(Option.map (fun f -> f ()) fault)
            (fun ~ctx rng ~samples a ->
              Cave.mc_yield_window_par ~ctx rng ~samples a)
        in
        let reference =
          run ~domains ?fault:(Option.map (fun f -> f ()) fault)
            (fun ~ctx rng ~samples a ->
              Cave.mc_yield_window_reference ~ctx rng ~samples a)
        in
        kernel = reference
      in
      agree ~domains:1 ()
      && agree ~domains:4 ()
      && agree ~domains:1 ~fault:(fun () -> Fault.inert ()) ()
      && agree ~domains:4 ~fault:plan ()
      && agree ~domains:1 ~fault:plan ())

(* --- the unified Monte-Carlo entry point --- *)

(* Every sampling strategy is an equally unbiased estimator of the same
   yield: on a cave whose exact answer is known in closed form (the
   per-wire erf products of [analysis.wire_probability]), each
   strategy's 95 % interval — widened to 6 combined standard errors,
   with the {e exact} plain standard error added for the degenerate
   all-ones cases where the empirical SE collapses to zero — brackets
   the analytic mean.  Antithetic is checked at bit precision: the
   window predicate is even, so the pair average equals the plain draw
   on the same streams. *)
let montecarlo_strategy_unbiasedness =
  Property.make
    ~name:"MC strategies bracket the analytic yield (antithetic bit-equal)"
    ~print:(fun (config, seed) ->
      Printf.sprintf "%s, seed %d"
        (Generators.string_of_cave_config config)
        seed)
    (pair Generators.cave_config Generators.sample_seed)
    (fun (config, seed) ->
      let analysis = Cave.analyze config in
      let kernel = Cave.kernel_of_analysis analysis in
      let target = Kernel.target kernel in
      let samples = 400 in
      let run strategy =
        Montecarlo.run
          (Montecarlo.spec ~strategy (Montecarlo.fixed samples))
          (Rng.create ~seed) target
      in
      let exact = analysis.Cave.yield in
      let exact_se =
        let n = float_of_int config.Cave.n_wires in
        let v =
          Array.fold_left
            (fun acc p -> acc +. (p *. (1. -. p)))
            0. analysis.Cave.wire_probability
        in
        sqrt (v /. float_of_int samples) /. n
      in
      let brackets (e : Montecarlo.estimate) =
        Float.abs (e.Montecarlo.mean -. exact)
        <= 6. *. (e.Montecarlo.std_error +. exact_se)
      in
      let plain = run Montecarlo.Plain in
      brackets plain
      && run Montecarlo.Antithetic = plain
      && brackets (run (Montecarlo.Stratified 8))
      && brackets (run (Montecarlo.Importance 1.0)))

(* Adaptive stopping keeps the scheduling-invariance contract: the
   batch-doubling rounds derive their streams from sequential splits of
   the root, so the (estimate, spent samples) pair is a pure function
   of (seed, spec) at every domain count, chunking and under injected
   faults. *)
let montecarlo_adaptive_determinism =
  Property.make
    ~name:"Adaptive-stopping estimates are schedule and fault invariant"
    ~print:(fun ((seed, plan_seed), (chunks, dexp)) ->
      Printf.sprintf "seed %d, plan seed %d, %d chunks, %d domains" seed
        plan_seed chunks (1 lsl dexp))
    (pair
       (pair Generators.sample_seed (int_range 0 10_000))
       (pair (int_range 1 16) (int_range 0 2)))
    (fun ((seed, plan_seed), (chunks, dexp)) ->
      let f rng = Rng.gaussian rng +. Rng.float rng in
      let spec =
        Montecarlo.spec
          (Montecarlo.until_rel_error ~min_samples:16 ~max_samples:512 0.05)
      in
      let target = Montecarlo.target f in
      let baseline = Montecarlo.run spec (Rng.create ~seed) target in
      let fault =
        Fault.create
          (Fault.parse_exn
             (Printf.sprintf
                "seed=%d;pool.chunk:crash:p=0.2;mc.sample_batch:crash:p=0.15"
                plan_seed))
      in
      Run_ctx.with_ctx ~domains:(1 lsl dexp)
        ~chunking:(Run_ctx.Fixed chunks) ~warn:false (fun ctx ->
          Montecarlo.run ~ctx spec (Rng.create ~seed) target = baseline)
      && Run_ctx.with_ctx ~domains:(1 lsl dexp) ~fault ~warn:false
           (fun ctx ->
             Montecarlo.run ~ctx spec (Rng.create ~seed) target = baseline))

let all =
  [
    h_bijectivity;
    final_matrix_is_elementwise_h;
    step_matrix_definition;
    step_final_round_trip;
    phi_dose_pattern_equivalence;
    nu_counts_operations;
    sigma_consistency;
    gray_adjacency;
    gray_not_beaten_phi;
    gray_not_beaten_sigma;
    hot_code_structure;
    arranged_hot_adjacency;
    word_involutions;
    reflection_unique_addressability;
    codebook_space_coverage;
    metrics_consistency;
    pattern_transitions;
    defect_map_determinism;
    pool_map_sequential_equivalence;
    chunked_mc_domain_invariance;
    auto_chunking_value_invariance;
    telemetry_transparency;
    telemetry_span_well_formedness;
    fault_probes_inert;
    fault_injection_transparency;
    kernel_reference_equivalence;
    montecarlo_strategy_unbiasedness;
    montecarlo_adaptive_determinism;
  ]
