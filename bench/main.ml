(* Benchmark and reproduction harness.

   For every figure of the paper's evaluation section this executable
   (1) prints the data series the figure reports — the reproduction — and
   (2) times the computation that generates it with Bechamel, one
   Test.make per figure, all in this one executable.

   Run with [dune exec bench/main.exe]. *)

open Nanodec_codes
open Nanodec_numerics
open Nanodec

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* --- Fig. 5: fabrication complexity --- *)

let print_fig5 () =
  section "FIG 5 — fabrication complexity (extra litho/doping steps), N = 10";
  Printf.printf "%-12s %-6s %-4s %s\n" "logic" "code" "M" "Phi";
  List.iter
    (fun (p : Figures.fig5_point) ->
      let logic =
        match p.radix with
        | 2 -> "binary"
        | 3 -> "ternary"
        | 4 -> "quaternary"
        | n -> string_of_int n ^ "-ary"
      in
      Printf.printf "%-12s %-6s %-4d %d\n" logic
        (Codebook.name p.code_type)
        p.code_length p.phi)
    (Figures.fig5 ());
  print_endline
    "paper: binary flat at 2N = 20; ternary/quaternary TC above; GC \
     cancels most of the multi-valued overhead (17% saving)"

(* --- Fig. 6: variability maps --- *)

let print_fig6 () =
  section
    "FIG 6 — sqrt(Sigma)/sigma_T per (nanowire, digit), binary codes, N = 20";
  List.iter
    (fun (s : Figures.fig6_surface) ->
      Printf.printf "\n%s (L=%d): mean nu = %.2f, max sqrt(nu) = %.2f\n"
        (Codebook.name s.code_type)
        s.code_length s.mean_nu s.max_std;
      let m = s.normalized_std in
      Printf.printf "%-5s" "wire";
      for j = 0 to Fmatrix.cols m - 1 do
        Printf.printf " d%-4d" (j + 1)
      done;
      print_newline ();
      for i = 0 to Fmatrix.rows m - 1 do
        Printf.printf "%-5d" (i + 1);
        for j = 0 to Fmatrix.cols m - 1 do
          Printf.printf " %-5.2f" (Fmatrix.get m i j)
        done;
        print_newline ()
      done)
    (Figures.fig6 ());
  print_endline
    "\npaper: TC peaks at sqrt(20) ~ 4.5 on early wires / low digits; BGC \
     flattens the map; longer codes lower the average (-18%)"

(* --- Fig. 7: crossbar yield --- *)

let print_fig7 () =
  section "FIG 7 — crossbar yield (fraction of addressable crosspoints)";
  Printf.printf "%-6s %-4s %s\n" "code" "M" "yield";
  List.iter
    (fun (p : Figures.fig7_point) ->
      Printf.printf "%-6s %-4d %.1f%%\n"
        (Codebook.name p.code_type)
        p.code_length
        (100. *. p.crossbar_yield))
    (Figures.fig7 ());
  print_endline
    "paper: yield rises with M to a maximum near M~10 (TC/BGC) and M~6 \
     (HC); BGC ~42% over TC at M=8; AHC ~19% over HC at M=8; ~40 points \
     from TC M=6 to M=10"

(* --- Fig. 8: bit area --- *)

let print_fig8 () =
  section "FIG 8 — average area per functional bit [nm^2]";
  let fig8_points = Figures.fig8 () in
  Printf.printf "%-6s %-6s %-6s %-6s\n" "code" "M=6" "M=8" "M=10";
  List.iter
    (fun ct ->
      let area m =
        match
          List.find_opt
            (fun (p : Figures.fig8_point) ->
              p.code_type = ct && p.code_length = m)
            fig8_points
        with
        | Some p -> p.Figures.bit_area
        | None -> nan
      in
      Printf.printf "%-6s %-6.0f %-6.0f %-6.0f\n" (Codebook.name ct) (area 6)
        (area 8) (area 10))
    Codebook.all_types;
  print_endline
    "paper: TC -51% from M=6 to 10; BGC ~30% denser than TC at M=8; minima \
     ~169 nm^2 (BGC, M=10) and ~175 nm^2 (AHC, M=6)"

let print_headlines () =
  section "HEADLINE NUMBERS (measured vs paper)";
  Format.printf "%a@." Figures.pp_headlines (Figures.headlines ())

(* --- extension: multi-valued variability (paper, Section 6.2 remark) --- *)

let print_fig6_multivalued () =
  section "FIG 6 EXTENSION — multi-valued logic variability summaries";
  List.iter
    (fun radix ->
      Printf.printf "radix %d:\n" radix;
      List.iter
        (fun (s : Figures.fig6_surface) ->
          Printf.printf "  %-4s M=%-3d mean nu = %.2f  max sqrt(nu) = %.2f\n"
            (Codebook.name s.code_type)
            s.code_length s.mean_nu s.max_std)
        (Figures.fig6_multivalued ~radix ()))
    [ 3; 4 ];
  print_endline
    "paper: 'similar results were obtained for these codes with a higher \
     logic level' — Gray arrangements reduce and flatten nu at every radix"

(* --- extension: multi-valued decoder designs --- *)

let print_multivalued () =
  section "EXTENSION — multi-valued decoder designs (yield and area)";
  Printf.printf "%-6s %-6s %-4s %-5s %-8s %s\n" "logic" "code" "M" "Phi"
    "yield" "bit area";
  List.iter
    (fun (p : Figures.multivalued_point) ->
      Printf.printf "%-6d %-6s %-4d %-5d %-8.3f %.0f\n" p.radix
        (Codebook.name p.code_type)
        p.code_length p.phi p.crossbar_yield p.bit_area)
    (Figures.multivalued_designs ());
  print_endline
    "finding: at the paper's sigma_T = 50 mV (plus intrinsic variability) \
     the shrunken level separation makes ternary/quaternary decoders \
     yield-limited — the area benefit the paper's ref [2] hoped for needs \
     proportionally tighter V_T control; the Gray code still beats the \
     tree code at every radix"

(* --- baseline: stochastic-assembly decoders (paper refs [6], [8]) --- *)

let print_baseline () =
  section "BASELINE — stochastic-assembly decoder vs deterministic MSPT";
  Printf.printf "%-8s %-6s %-22s %-22s %s\n" "Omega" "group" "E[unique wires]"
    "deterministic wires" "stochastic loss";
  List.iter
    (fun (omega, group_size) ->
      let a = Nanodec_crossbar.Stochastic.analyze ~omega ~group_size in
      Printf.printf "%-8d %-6d %-22.2f %-22d %.1f%%\n" omega group_size
        a.Nanodec_crossbar.Stochastic.expected_unique_wires
        a.Nanodec_crossbar.Stochastic.deterministic_unique_wires
        (100. *. Nanodec_crossbar.Stochastic.stochastic_loss ~omega ~group_size))
    [ (8, 8); (16, 16); (32, 20); (70, 20) ];
  print_endline
    "the MSPT decoder's deterministic code assignment (the paper's first \
     novelty) avoids the collision losses inherent to stochastically \
     assembled decoders"

(* --- extension: technology scaling --- *)

let print_scaling () =
  section "EXTENSION — technology scaling (best design per node / size)";
  print_endline "by lithography node:";
  List.iter
    (fun p -> Format.printf "  %a@." Scaling.pp_point p)
    (Scaling.sweep_nodes ());
  print_endline "by raw memory size (32 nm node):";
  List.iter
    (fun p -> Format.printf "  %a@." Scaling.pp_point p)
    (Scaling.sweep_memory_sizes ());
  print_endline
    "finding: the AHC(M=6)/BGC(M=10) near-tie of Fig. 8 is node- and \
     size-dependent — finer lithography or larger arrays amortise the \
     longer code's decoder overhead and hand the optimum to the balanced \
     Gray code"

(* --- ablations: robustness of the BGC-beats-TC conclusion --- *)

let print_ablations () =
  section "ABLATIONS — does BGC > TC survive moving the calibration?";
  List.iter
    (fun series -> Format.printf "%a@.@." Ablation.pp series)
    (Ablation.all ())

(* --- extension: the arrangement optimiser vs the analytic optimum --- *)

let print_arranger () =
  section "EXTENSION — simulated-annealing arrangement vs Gray optimum";
  let rng = Rng.create ~seed:2009 in
  let omega = 16 in
  let shuffled =
    let space =
      Array.of_list (Tree_code.reflected_words ~radix:2 ~base_len:4 ~count:omega)
    in
    Rng.shuffle rng space;
    Array.to_list space
  in
  let gray = Gray_code.reflected_words ~radix:2 ~base_len:4 ~count:omega in
  let annealed = Arranger.optimize (Rng.split rng) `Sigma shuffled in
  let show name words =
    Printf.printf "%-18s transitions %4.0f   sigma-weighted %5.0f\n" name
      (Arranger.cost `Transitions words)
      (Arranger.cost `Sigma words)
  in
  show "random shuffle" shuffled;
  show "annealed" annealed;
  show "Gray (analytic)" gray;
  print_endline
    "the local search recovers (near-)Gray cost from a random order — the \
     optimum of Propositions 4-5 without knowing the Gray construction"

(* --- Bechamel timing: one Test.make per table/figure --- *)

let bechamel_tests =
  let open Bechamel in
  [
    Test.make ~name:"fig5/fabrication-complexity"
      (Staged.stage (fun () -> ignore (Figures.fig5 ())));
    Test.make ~name:"fig6/variability-maps"
      (Staged.stage (fun () -> ignore (Figures.fig6 ())));
    Test.make ~name:"fig7/crossbar-yield"
      (Staged.stage (fun () -> ignore (Figures.fig7 ())));
    Test.make ~name:"fig8/bit-area"
      (Staged.stage (fun () -> ignore (Figures.fig8 ())));
    Test.make ~name:"kernel/balanced-gray-base5"
      (Staged.stage (fun () ->
           ignore (Balanced_gray.words ~radix:2 ~base_len:5 ~count:32)));
    Test.make ~name:"kernel/arranged-hot-M10"
      (Staged.stage (fun () ->
           ignore (Arranged_hot.words ~radix:2 ~length:10 ~count:252)));
    Test.make ~name:"kernel/cave-analysis"
      (Staged.stage (fun () ->
           ignore
             (Nanodec_crossbar.Cave.analyze
                Nanodec_crossbar.Cave.default_config)));
    Test.make ~name:"kernel/design-evaluate"
      (Staged.stage (fun () ->
           ignore
             (Design.evaluate
                (Design.spec ~code_type:Codebook.Balanced_gray ~code_length:10
                   ()))));
    Test.make ~name:"baseline/stochastic-analysis"
      (Staged.stage (fun () ->
           ignore (Nanodec_crossbar.Stochastic.analyze ~omega:70 ~group_size:20)));
    Test.make ~name:"extension/arranger-anneal"
      (Staged.stage
         (let rng = Rng.create ~seed:3 in
          let words =
            Tree_code.reflected_words ~radix:2 ~base_len:4 ~count:16
          in
          fun () ->
            ignore (Arranger.optimize ~steps:2_000 (Rng.split rng) `Sigma words)));
    Test.make ~name:"extension/memory-build-16kB"
      (Staged.stage
         (let rng = Nanodec_numerics.Rng.create ~seed:1 in
          fun () ->
            ignore
              (Nanodec_crossbar.Memory.create rng
                 Nanodec_crossbar.Array_sim.default_config)));
  ]

let run_bechamel () =
  let open Bechamel in
  let open Toolkit in
  section "BECHAMEL TIMINGS (OLS time per run)";
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let instances = Instance.[ monotonic_clock ] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let ols =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:true
             ~predictors:[| Measure.run |])
          Instance.monotonic_clock results
      in
      Hashtbl.iter
        (fun name result ->
          let time_ns =
            match Analyze.OLS.estimates result with
            | Some [ est ] -> est
            | Some _ | None -> nan
          in
          let r2 = Option.value ~default:nan (Analyze.OLS.r_square result) in
          Printf.printf "%-34s %12.0f ns/run   (r^2 %.3f)\n" name time_ns r2)
        ols)
    bechamel_tests

(* --- machine-readable parallel bench: --json [--quick] [--gate-overhead] ---

   Times the headline workloads sequentially and on 2- and 4-domain
   pools, checks that every reproduced value is bit-for-bit identical
   across the three runs AND across a telemetry-instrumented run (the
   determinism gate — any drift fails the process), and writes
   BENCH_parallel.json (now with a per-stage breakdown from the span
   totals and pool counters of the instrumented run) plus
   BENCH_telemetry.json (the full span-tree export per workload) so
   later PRs have both a perf trajectory and a stage profile to regress
   against.  --gate-overhead additionally times the first workload with
   and without a sink and fails if telemetry costs more than 5 %. *)

module Run_ctx = Nanodec_parallel.Run_ctx
module Telemetry = Nanodec_telemetry.Telemetry

type parallel_workload = {
  wname : string;
  detail : string;
  run : ?ctx:Run_ctx.t -> unit -> (string * float) list;
      (* labelled reproduced values; the digest compared across runs *)
}

let parallel_workloads ~quick =
  let mc_samples = if quick then 500 else 4_000 in
  let label ct m = Printf.sprintf "%s-M%d" (Codebook.name ct) m in
  [
    {
      wname = "fig7-mc-yield";
      detail =
        Printf.sprintf
          "Monte-Carlo window yield, %d noise draws x %d designs" mc_samples
          (List.length Figures.fig7_candidates);
      run =
        (fun ?ctx () ->
          List.map
            (fun (ct, m) ->
              let spec = Design.spec ~code_type:ct ~code_length:m () in
              let analysis =
                Nanodec_crossbar.Cave.analyze spec.Design.cave
              in
              let e =
                Nanodec_crossbar.Cave.mc_yield_window_par ?ctx
                  (Rng.create ~seed:2009) ~samples:mc_samples analysis
              in
              (label ct m, e.Montecarlo.mean))
            Figures.fig7_candidates);
    };
    {
      wname = "optimizer-sweep";
      detail = "full code-family x length grid, analytic design flow";
      run =
        (fun ?ctx () ->
          List.map
            (fun (r : Design.report) ->
              let c = r.Design.spec.Design.cave in
              ( label c.Nanodec_crossbar.Cave.code_type
                  c.Nanodec_crossbar.Cave.code_length,
                r.Design.crossbar_yield ))
            (Optimizer.sweep ?ctx ()));
    };
    {
      wname = "fig8-bit-area";
      detail = "bit area, all five families at M in {6,8,10}";
      run =
        (fun ?ctx () ->
          List.map
            (fun (p : Figures.fig8_point) ->
              (label p.Figures.code_type p.Figures.code_length, p.Figures.bit_area))
            (Figures.fig8 ?ctx ()));
    };
    {
      wname = "ablation-sigma-t";
      detail = "TC vs BGC yield across the sigma_T sweep";
      run =
        (fun ?ctx () ->
          List.concat_map
            (fun (p : Ablation.point) ->
              [
                (Printf.sprintf "TC@%g" p.Ablation.value, p.Ablation.tree_yield);
                (Printf.sprintf "BGC@%g" p.Ablation.value, p.Ablation.bgc_yield);
              ])
            (Ablation.sigma_t ?ctx ()).Ablation.points);
    };
  ]

let time_best ~reps f =
  let best = ref infinity and result = ref None in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt;
    result := Some r
  done;
  (Option.get !result, !best)

let json_escape s =
  String.concat ""
    (List.map
       (function
         | '"' -> "\\\"" | '\\' -> "\\\\" | '\n' -> "\\n" | c -> String.make 1 c)
       (List.init (String.length s) (String.get s)))

(* The pool counters worth tracking per workload in the stage
   breakdown. *)
let stage_counters = [
  "pool.jobs"; "pool.jobs.sequential"; "pool.jobs.inline_nested";
  "pool.chunks.submitter"; "pool.chunks.worker"; "pool.batches";
  "optimizer.candidates"; "mc.samples";
]

(* Workloads quicker than this are dominated by timer noise and pool
   wake-up latency; their speedups are recorded but must not steer
   [recommended_domains]. *)
let min_seconds_floor = 0.05

let run_json ~quick =
  let reps = if quick then 1 else 3 in
  let domain_counts = [ 2; 4 ] in
  let all_deterministic = ref true in
  let results =
    List.map
      (fun w ->
        (* One untimed warm-up run populates the code-construction memo
           tables so every timed run sees the same warm caches. *)
        let reference = w.run () in
        let _, seq_time = time_best ~reps (fun () -> w.run ()) in
        let pooled =
          List.map
            (fun domains ->
              Run_ctx.with_ctx ~domains (fun ctx ->
                  let values, t =
                    time_best ~reps (fun () -> w.run ~ctx ())
                  in
                  (domains, t, values = reference)))
            domain_counts
        in
        (* One instrumented 4-domain run: its span totals and counters
           become the per-stage breakdown, its full export lands in
           BENCH_telemetry.json, and its values join the determinism
           gate — telemetry must be a pure observer. *)
        let sink = Telemetry.create () in
        let tele_ok =
          Run_ctx.with_ctx ~domains:4 ~telemetry:sink (fun ctx ->
              w.run ~ctx () = reference)
        in
        let deterministic =
          List.for_all (fun (_, _, ok) -> ok) pooled && tele_ok
        in
        if not deterministic then all_deterministic := false;
        Printf.printf "%-18s seq %8.4fs" w.wname seq_time;
        List.iter
          (fun (d, t, _) ->
            Printf.printf "   %dd %8.4fs (%.2fx)" d t (seq_time /. t))
          pooled;
        Printf.printf "   deterministic: %b\n%!" deterministic;
        (w, reference, seq_time, pooled, deterministic, sink))
      (parallel_workloads ~quick)
  in
  (* Recommend the domain count with the best aggregate measured speedup
     over the workloads big enough to time honestly; 1 when nothing
     beats sequential (single-CPU hosts land here by construction). *)
  let eligible =
    List.filter
      (fun (_, _, seq_time, _, deterministic, _) ->
        deterministic && seq_time >= min_seconds_floor)
      results
  in
  let aggregate_speedup domains =
    let seq, par =
      List.fold_left
        (fun (seq, par) (_, _, seq_time, pooled, _, _) ->
          let _, t, _ =
            List.find (fun (d, _, _) -> d = domains) pooled
          in
          (seq +. seq_time, par +. t))
        (0., 0.) eligible
    in
    if par > 0. then seq /. par else 0.
  in
  let recommended_domains_measured =
    List.fold_left
      (fun (best_d, best_s) d ->
        let s = aggregate_speedup d in
        if s > best_s then (d, s) else (best_d, best_s))
      (1, 1.) domain_counts
    |> fst
  in
  (* Never recommend more domains than the host has cores: on a
     small container the 4-domain row can still "win" on oversubscribed
     timing noise, and shipping that number into Run_ctx defaults would
     pessimise every real run. *)
  let cpus = Domain.recommended_domain_count () in
  let recommended_domains = min recommended_domains_measured cpus in
  let recommended_clamped = recommended_domains <> recommended_domains_measured in
  let oc = open_out "BENCH_parallel.json" in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"generated_by\": \"bench/main.exe --json%s\",\n"
    (if quick then " --quick" else "");
  out "  \"quick\": %b,\n" quick;
  out "  \"reps\": %d,\n" reps;
  out "  \"cpus\": %d,\n" cpus;
  out "  \"min_seconds_floor\": %.3f,\n" min_seconds_floor;
  out "  \"recommended_domains\": %d,\n" recommended_domains;
  out "  \"recommended_domains_measured\": %d,\n" recommended_domains_measured;
  out "  \"recommended_domains_clamped\": %b,\n" recommended_clamped;
  out "  \"all_deterministic\": %b,\n" !all_deterministic;
  out "  \"workloads\": [\n";
  List.iteri
    (fun i (w, reference, seq_time, pooled, deterministic, sink) ->
      out "    {\n";
      out "      \"name\": \"%s\",\n" (json_escape w.wname);
      out "      \"detail\": \"%s\",\n" (json_escape w.detail);
      out "      \"seconds\": {\"seq\": %.6f" seq_time;
      List.iter (fun (d, t, _) -> out ", \"domains%d\": %.6f" d t) pooled;
      out "},\n";
      out "      \"speedup\": {";
      List.iteri
        (fun j (d, t, _) ->
          out "%s\"domains%d\": %.3f" (if j > 0 then ", " else "") d
            (seq_time /. t))
        pooled;
      out "},\n";
      out "      \"deterministic\": %b,\n" deterministic;
      out "      \"too_fast_to_time\": %b,\n" (seq_time < min_seconds_floor);
      (* Stage breakdown of the instrumented 4-domain run: total
         seconds per span name plus the pool/estimator counters. *)
      out "      \"stages\": {";
      List.iteri
        (fun j (name, (count, seconds)) ->
          out "%s\"%s\": {\"count\": %d, \"seconds\": %.6f}"
            (if j > 0 then ", " else "")
            (json_escape name) count seconds)
        (Telemetry.span_totals sink);
      out "},\n";
      out "      \"counters\": {";
      let counters = Telemetry.counters sink in
      List.iteri
        (fun j name ->
          let v =
            Option.value ~default:0 (List.assoc_opt name counters)
          in
          out "%s\"%s\": %d" (if j > 0 then ", " else "") (json_escape name) v)
        stage_counters;
      out "},\n";
      out "      \"values\": {";
      List.iteri
        (fun j (k, v) ->
          out "%s\"%s\": %.17g" (if j > 0 then ", " else "") (json_escape k) v)
        reference;
      out "}\n";
      out "    }%s\n" (if i < List.length results - 1 then "," else ""))
    results;
  out "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote BENCH_parallel.json (%d workloads)\n"
    (List.length results);
  (* Full span-tree export of every workload's instrumented run. *)
  let oc = open_out "BENCH_telemetry.json" in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n  \"workloads\": [\n";
  List.iteri
    (fun i (w, _, _, _, _, sink) ->
      out "    {\"name\": \"%s\", \"telemetry\": %s}%s\n" (json_escape w.wname)
        (Telemetry.to_json sink)
        (if i < List.length results - 1 then "," else ""))
    results;
  out "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote BENCH_telemetry.json (%d workloads)\n"
    (List.length results);
  if not !all_deterministic then begin
    prerr_endline
      "FAIL: parallel results diverged from the sequential reference";
    exit 1
  end;
  (* The scheduler gate's inputs: the four-domain speedup of the
     Monte-Carlo workload (the job the batched scheduler exists for). *)
  let fig7_speedup_4d =
    match
      List.find_opt (fun (w, _, _, _, _, _) -> w.wname = "fig7-mc-yield")
        results
    with
    | Some (_, _, seq_time, pooled, _, _) -> (
      match List.find_opt (fun (d, _, _) -> d = 4) pooled with
      | Some (_, t, _) when t > 0. -> seq_time /. t
      | Some _ | None -> 0.)
    | None -> 0.
  in
  (fig7_speedup_4d, !all_deterministic)

(* --gate-parallel-speedup T: the batched scheduler must reach a T-fold
   four-domain speedup on fig7-mc-yield (and stay bit-for-bit
   deterministic — run_json already hard-fails on divergence).  Meant
   for CI runners with >= 4 hardware threads; a single-CPU host cannot
   pass it physically. *)
let gate_parallel_speedup ~threshold (fig7_speedup_4d, all_deterministic) =
  Printf.printf
    "parallel gate: fig7-mc-yield at 4 domains %.2fx (threshold %.2fx)\n"
    fig7_speedup_4d threshold;
  if not all_deterministic then begin
    prerr_endline
      "FAIL: parallel results diverged from the sequential reference";
    exit 1
  end;
  if fig7_speedup_4d < threshold then begin
    Printf.eprintf
      "FAIL: fig7-mc-yield four-domain speedup %.2fx below the %.2fx gate\n"
      fig7_speedup_4d threshold;
    exit 1
  end

(* --- kernel bench: BENCH_kernels.json + --gate-kernel-speedup ---

   Times the compiled MC kernel (Cave.mc_yield_window_par, pool-less)
   against the allocating reference draw (Cave.mc_yield_window_reference)
   on every Fig. 7 candidate design: same seed, same chunking, same
   sample count, best-of-N wall time on both sides.  Every pair of
   estimates must be bit-for-bit identical — the kernel is licensed as an
   optimisation only.  Writes BENCH_kernels.json; --gate-kernel-speedup
   fails the process if the aggregate speedup over the designs drops
   below 2x or any estimate diverges. *)

let kernel_designs ~quick =
  let samples = if quick then 500 else 4_000 in
  List.map
    (fun (ct, m) ->
      let spec = Design.spec ~code_type:ct ~code_length:m () in
      ( Printf.sprintf "%s-M%d" (Codebook.name ct) m,
        samples,
        Nanodec_crossbar.Cave.analyze spec.Design.cave ))
    Figures.fig7_candidates

let run_kernel_json ~quick =
  let module Cave = Nanodec_crossbar.Cave in
  let module Kernel = Nanodec_crossbar.Kernel in
  let reps = 5 in
  let rows =
    List.map
      (fun (name, samples, analysis) ->
        let kernel = Cave.kernel_of_analysis analysis in
        (* Warm both paths outside the timer: code-construction memo
           tables, and the domain-local workspace buffer the kernel
           grows on first contact. *)
        ignore
          (Cave.mc_yield_window_reference (Rng.create ~seed:2009) ~samples:16
             analysis);
        ignore
          (Cave.mc_yield_window_par (Rng.create ~seed:2009) ~samples:16
             analysis);
        let reference, t_ref =
          time_best ~reps (fun () ->
              Cave.mc_yield_window_reference (Rng.create ~seed:2009) ~samples
                analysis)
        in
        let kernelized, t_ker =
          time_best ~reps (fun () ->
              Cave.mc_yield_window_par (Rng.create ~seed:2009) ~samples
                analysis)
        in
        let identical = reference = kernelized in
        Printf.printf
          "%-8s reference %8.4fs   kernel %8.4fs   %5.2fx   identical: %b\n%!"
          name t_ref t_ker (t_ref /. t_ker) identical;
        ( name,
          samples,
          Kernel.draws_per_sample kernel,
          Kernel.n_passes kernel,
          t_ref,
          t_ker,
          identical,
          reference.Montecarlo.mean ))
      (kernel_designs ~quick)
  in
  let total_ref =
    List.fold_left (fun acc (_, _, _, _, t, _, _, _) -> acc +. t) 0. rows
  in
  let total_ker =
    List.fold_left (fun acc (_, _, _, _, _, t, _, _) -> acc +. t) 0. rows
  in
  let aggregate = total_ref /. total_ker in
  let all_identical =
    List.for_all (fun (_, _, _, _, _, _, ok, _) -> ok) rows
  in
  Printf.printf
    "kernel aggregate over %d designs (best of %d): %.4fs -> %.4fs (%.2fx), \
     identical: %b\n"
    (List.length rows) reps total_ref total_ker aggregate all_identical;
  let oc = open_out "BENCH_kernels.json" in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"generated_by\": \"bench/main.exe --json%s\",\n"
    (if quick then " --quick" else "");
  out "  \"quick\": %b,\n" quick;
  out "  \"reps\": %d,\n" reps;
  out "  \"all_identical\": %b,\n" all_identical;
  out "  \"aggregate_speedup\": %.3f,\n" aggregate;
  out "  \"designs\": [\n";
  List.iteri
    (fun i (name, samples, draws, passes, t_ref, t_ker, identical, mean) ->
      out
        "    {\"name\": \"%s\", \"samples\": %d, \"draws_per_sample\": %d, \
         \"passes\": %d, \"seconds\": {\"reference\": %.6f, \"kernel\": \
         %.6f}, \"speedup\": %.3f, \"identical\": %b, \"mean\": %.17g}%s\n"
        (json_escape name) samples draws passes t_ref t_ker (t_ref /. t_ker)
        identical mean
        (if i < List.length rows - 1 then "," else ""))
    rows;
  out "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote BENCH_kernels.json (%d designs)\n" (List.length rows);
  (aggregate, all_identical)

let gate_kernel_speedup (aggregate, all_identical) =
  if not all_identical then begin
    prerr_endline
      "FAIL: kernelized estimate diverged from the reference draw";
    exit 1
  end;
  if aggregate < 2. then begin
    Printf.eprintf
      "FAIL: compiled kernel speedup %.2fx below the 2x gate\n" aggregate;
    exit 1
  end

(* --- variance-reduction bench: BENCH_mc.json + --gate-vr-samples ---

   Measures, per Fig. 7 candidate design, how many samples each
   sampling strategy needs to pin the window yield to the same +/- CI a
   plain Monte-Carlo run would need — the tentpole claim of the
   [Montecarlo.spec] redesign.  The plain side is exact, not sampled:
   each wire passes independently with the closed-form probability
   [analysis.wire_probability], so the per-sample variance of the plain
   estimator is (1/n^2) sum p_i (1 - p_i) with no pilot noise.  Each
   variance-reduced strategy gets a pilot run whose empirical variance
   converts to a samples-to-target count at the same CI half-width
   (h = rel_target * yield, n = v * (z/h)^2), and its estimate must
   bracket the analytic yield — a biased "fast" estimator fails the
   bench, never mind the gate.

   The bench runs at a production operating point (sigma_t = 0.02, the
   tightened implant control of a tuned process) where yields are high
   and plain sampling wastes almost every draw on all-pass samples;
   importance sampling aims every draw at the failure boundary and
   reweights exactly, which is where the 10x comes from.

   A determinism battery reruns the best strategy across domain counts
   1/2/4 under Auto and two Fixed chunkings — any drift fails the
   process, exactly like the parallel bench's gate.

   --gate-vr-samples RATIO fails the process unless at least 3
   high-yield designs (analytic yield >= 0.9) reach a RATIO-fold
   sample reduction with a bracketing estimate. *)

let mc_rel_target = 0.001
let mc_sigma_t = 0.02
let mc_high_yield = 0.9
let mc_gate_designs = 3

let mc_designs () =
  List.map
    (fun (ct, m) ->
      let spec = Design.spec ~code_type:ct ~code_length:m () in
      let config =
        { spec.Design.cave with Nanodec_crossbar.Cave.sigma_t = mc_sigma_t }
      in
      ( Printf.sprintf "%s-M%d" (Codebook.name ct) m,
        Nanodec_crossbar.Cave.analyze config ))
    Figures.fig7_candidates

let run_mc_json ~quick =
  let module Cave = Nanodec_crossbar.Cave in
  let module Kernel = Nanodec_crossbar.Kernel in
  let pilot = if quick then 1_000 else 4_000 in
  let z = Montecarlo.z95 in
  let strategies =
    [
      ("stratified-16", Montecarlo.Stratified 16);
      ("importance-1.0", Montecarlo.Importance 1.0);
    ]
  in
  let samples_to_target ~mean v =
    let h = mc_rel_target *. Float.abs mean in
    int_of_float (ceil (v *. (z /. h) ** 2.))
  in
  let rows =
    List.map
      (fun (name, analysis) ->
        let kernel = Cave.kernel_of_analysis analysis in
        let target = Kernel.target kernel in
        let exact = analysis.Cave.yield in
        let n = float_of_int (Array.length analysis.Cave.wire_probability) in
        let v_plain =
          Array.fold_left
            (fun acc p -> acc +. (p *. (1. -. p)))
            0. analysis.Cave.wire_probability
          /. (n *. n)
        in
        let exact_se = sqrt (v_plain /. float_of_int pilot) in
        let n_plain = samples_to_target ~mean:exact v_plain in
        let cells =
          List.map
            (fun (sname, strategy) ->
              let e =
                Montecarlo.run
                  (Montecarlo.spec ~strategy (Montecarlo.fixed pilot))
                  (Rng.create ~seed:2009) target
              in
              let v =
                e.Montecarlo.std_error ** 2. *. float_of_int e.Montecarlo.samples
              in
              let brackets =
                Float.abs (e.Montecarlo.mean -. exact)
                <= (6. *. (e.Montecarlo.std_error +. exact_se)) +. 1e-9
              in
              let n_s = max 2 (samples_to_target ~mean:exact v) in
              ( sname,
                v,
                n_s,
                float_of_int n_plain /. float_of_int n_s,
                brackets ))
            strategies
        in
        (* Determinism battery on the winning strategy: the sample
           schedule must not leak into the estimate. *)
        let best_name, best_strategy =
          let best, _ =
            List.fold_left2
              (fun (acc, av) (sname, _, _, vr, _) s ->
                if vr > av then ((sname, snd s), vr) else (acc, av))
              (("", Montecarlo.Plain), neg_infinity)
              cells strategies
          in
          best
        in
        let spec =
          Montecarlo.spec ~strategy:best_strategy (Montecarlo.fixed 512)
        in
        let baseline = Montecarlo.run spec (Rng.create ~seed:7) target in
        let deterministic =
          List.for_all
            (fun (domains, chunking) ->
              Run_ctx.with_ctx ~domains ~chunking ~warn:false (fun ctx ->
                  Montecarlo.run ~ctx spec (Rng.create ~seed:7) target
                  = baseline))
            (List.concat_map
               (fun domains ->
                 [
                   (domains, Run_ctx.Auto);
                   (domains, Run_ctx.Fixed 3);
                   (domains, Run_ctx.Fixed 16);
                 ])
               [ 1; 2; 4 ])
        in
        let _, _, _, best_vr, best_ok =
          List.find (fun (s, _, _, _, _) -> s = best_name) cells
        in
        Printf.printf
          "%-8s yield %.5f  plain n=%-9d best %s  n=%-8d (%6.1fx)  \
           brackets: %b  deterministic: %b\n%!"
          name exact n_plain best_name
          (let _, _, n_s, _, _ =
             List.find (fun (s, _, _, _, _) -> s = best_name) cells
           in
           n_s)
          best_vr best_ok deterministic;
        (name, exact, v_plain, n_plain, cells, best_name, deterministic))
      (mc_designs ())
  in
  let gate_rows =
    List.filter_map
      (fun (name, exact, _, _, cells, best_name, deterministic) ->
        if exact < mc_high_yield then None
        else
          let _, _, _, vr, ok =
            List.find (fun (s, _, _, _, _) -> s = best_name) cells
          in
          if ok && deterministic then Some (name, vr) else None)
      rows
  in
  let oc = open_out "BENCH_mc.json" in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"generated_by\": \"bench/main.exe --mc%s\",\n"
    (if quick then " --quick" else "");
  out "  \"quick\": %b,\n" quick;
  out "  \"pilot_samples\": %d,\n" pilot;
  out "  \"rel_target\": %g,\n" mc_rel_target;
  out "  \"sigma_t\": %g,\n" mc_sigma_t;
  out "  \"high_yield_threshold\": %g,\n" mc_high_yield;
  out "  \"designs\": [\n";
  List.iteri
    (fun i (name, exact, v_plain, n_plain, cells, best_name, deterministic) ->
      out
        "    {\"name\": \"%s\", \"yield\": %.17g, \"plain\": {\"variance\": \
         %.6e, \"samples_to_target\": %d}, \"high_yield\": %b, \"best\": \
         \"%s\", \"deterministic\": %b, \"strategies\": {"
        (json_escape name) exact v_plain n_plain (exact >= mc_high_yield)
        (json_escape best_name) deterministic;
      List.iteri
        (fun j (sname, v, n_s, vr, ok) ->
          out
            "%s\"%s\": {\"variance\": %.6e, \"samples_to_target\": %d, \
             \"vr_factor\": %.3f, \"brackets_exact\": %b}"
            (if j > 0 then ", " else "")
            (json_escape sname) v n_s vr ok)
        cells;
      out "}}%s\n" (if i < List.length rows - 1 then "," else ""))
    rows;
  out "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote BENCH_mc.json (%d designs, %d high-yield at gate)\n"
    (List.length rows) (List.length gate_rows);
  gate_rows

(* --gate-vr-samples RATIO: at least [mc_gate_designs] high-yield
   designs must cut the samples-to-CI by RATIO with a bracketing,
   schedule-deterministic estimate. *)
let gate_vr_samples ~threshold gate_rows =
  let passing = List.filter (fun (_, vr) -> vr >= threshold) gate_rows in
  Printf.printf
    "variance-reduction gate: %d high-yield designs at >= %.1fx (need %d)\n"
    (List.length passing) threshold mc_gate_designs;
  List.iter
    (fun (name, vr) -> Printf.printf "  %-8s %6.1fx\n" name vr)
    passing;
  if List.length passing < mc_gate_designs then begin
    Printf.eprintf
      "FAIL: only %d high-yield designs reached the %.1fx \
       variance-reduction gate (need %d)\n"
      (List.length passing) threshold mc_gate_designs;
    exit 1
  end

(* --gate-overhead: a sink on the sequential path must cost < 5 %.
   Best-of-5 on the Monte-Carlo workload, whose per-chunk probes make
   it the most telemetry-dense of the four. *)
let gate_overhead ~quick =
  let w = List.hd (parallel_workloads ~quick) in
  let reps = 5 in
  ignore (w.run ());
  let _, off = time_best ~reps (fun () -> w.run ()) in
  let sink = Telemetry.create () in
  let ctx = Run_ctx.make ~telemetry:sink () in
  let _, on_t = time_best ~reps (fun () -> w.run ~ctx ()) in
  let overhead = (on_t -. off) /. off in
  Printf.printf
    "telemetry overhead (%s, seq, best of %d): off %.4fs, on %.4fs (%+.2f%%)\n"
    w.wname reps off on_t (100. *. overhead);
  if overhead > 0.05 then begin
    prerr_endline "FAIL: telemetry overhead exceeds 5%";
    exit 1
  end

(* --gate-fault-overhead: the fault-injection probes are compiled in
   unconditionally, so an engine whose plan matches nothing must cost
   < 2 % over running with no engine at all.  Best-of-5 on the
   Monte-Carlo workload, whose per-chunk and per-batch probes make it
   the most probe-dense of the four. *)
let gate_fault_overhead ~quick =
  let w = List.hd (parallel_workloads ~quick) in
  let reps = 5 in
  ignore (w.run ());
  let off_ctx = Run_ctx.make () in
  let _, off = time_best ~reps (fun () -> w.run ~ctx:off_ctx ()) in
  let on_ctx = Run_ctx.make ~fault:(Nanodec_fault.Fault.inert ()) () in
  let _, on_t = time_best ~reps (fun () -> w.run ~ctx:on_ctx ()) in
  let overhead = (on_t -. off) /. off in
  Printf.printf
    "fault-probe overhead (%s, seq, best of %d): off %.4fs, inert %.4fs \
     (%+.2f%%)\n"
    w.wname reps off on_t (100. *. overhead);
  if overhead > 0.02 then begin
    prerr_endline "FAIL: disabled fault-injection overhead exceeds 2%";
    exit 1
  end

(* --- serve bench: BENCH_serve.json + the warm-cache gates ---

   Three daemon lifetimes on one Unix socket:

   1. cold/warm evaluates over every Fig. 7 candidate, a serial and a
      4-client concurrent throughput loop, then a graceful shutdown
      whose drain writes the artifact-cache snapshot;
   2. a restarted daemon on the same [--cache-file]: every request must
      come back warm, byte-identical to the pre-restart cold bytes, and
      the whole warm-after-restart pass at least 5x faster than cold;
   3. an overload probe (max-inflight 1, max-queue 1, the first request
      stalled by an injected serve.dispatch fault): of five pipelined
      requests exactly capacity are admitted, and the shed count on the
      wire must equal the [serve.shed] telemetry counter exactly.

   The p50/p99 of the daemon's own [serve.request_s] histogram land in
   BENCH_serve.json alongside the per-design rows and the concurrency /
   overload / persistence stats.  All gates are always-on: a cache that
   misses, corrupts, fails to survive a restart or fails to pay for
   itself — or admission control that miscounts — fails the process. *)

module Serve = Nanodec_serve
module Fault = Nanodec_fault.Fault

let serve_gate_threshold = 5.

let serve_quantile ~q (h : Telemetry.hist_stats) =
  let target = q *. float_of_int h.Telemetry.hs_count in
  let rec scan acc = function
    | [] -> h.Telemetry.hs_max_s
    | (upper, n) :: rest ->
      let acc = acc + n in
      if float_of_int acc >= target then upper else scan acc rest
  in
  scan 0 h.Telemetry.hs_buckets

let serve_result_of line response =
  match Serve.Json.parse response with
  | Error msg ->
    Printf.eprintf "FAIL: unparsable daemon response to %s: %s\n" line msg;
    exit 1
  | Ok json ->
    let field name to_v =
      match Option.bind (Serve.Json.member name json) to_v with
      | Some v -> v
      | None ->
        Printf.eprintf "FAIL: daemon response to %s lacks %S: %s\n" line name
          response;
        exit 1
    in
    if field "status" Serve.Json.to_string_opt <> "ok" then begin
      Printf.eprintf "FAIL: daemon answered an error to %s: %s\n" line response;
      exit 1
    end;
    ( field "cached" Serve.Json.to_bool_opt,
      Serve.Json.to_string (field "result" Option.some) )

let run_serve_json ~quick =
  let mc_samples = if quick then 500 else 4_000 in
  let warm_reps = 3 in
  let throughput_requests = if quick then 200 else 1_000 in
  let conc_clients = 4 in
  let socket_path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "nanodec-bench-%d.sock" (Unix.getpid ()))
  in
  let cache_file =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "nanodec-bench-%d.snapshot" (Unix.getpid ()))
  in
  let requests =
    List.map
      (fun (ct, m) ->
        ( Printf.sprintf "%s-M%d" (Codebook.name ct) m,
          Printf.sprintf
            {|{"verb":"evaluate","params":{"code":"%s","length":%d},"exec":{"seed":2009,"mc_samples":%d}}|}
            (Codebook.name ct) m mc_samples ))
      Figures.fig7_candidates
  in
  let lines = Array.of_list (List.map snd requests) in
  let sink = Telemetry.create () in
  (* Phase 1: cold/warm + throughput; the graceful drain persists the
     cache snapshot for phase 2. *)
  let rows, throughput, conc_throughput =
    Run_ctx.with_ctx ~domains:4 ~telemetry:sink @@ fun ctx ->
    let state = Serve.Protocol.make_state ~base:ctx () in
    let server = Serve.Server.create ~cache_file ~state (`Unix socket_path) in
    let server_thread = Thread.create Serve.Server.serve server in
    Fun.protect
      ~finally:(fun () ->
        Serve.Server.close server;
        Thread.join server_thread)
      (fun () ->
        let rows, throughput_s =
          Serve.Client.with_connection (`Unix socket_path) @@ fun conn ->
          let timed line =
            let t0 = Unix.gettimeofday () in
            let response = Serve.Client.request conn line in
            (Unix.gettimeofday () -. t0, response)
          in
          section
            (Printf.sprintf
               "SERVE — cold vs warm-cache evaluate, %d fig7 designs x %d MC \
                samples"
               (List.length requests) mc_samples);
          let rows =
            List.map
              (fun (name, line) ->
                let cold_s, cold_response = timed line in
                let cold_cached, cold_result =
                  serve_result_of line cold_response
                in
                let warm_s = ref infinity and warm = ref None in
                for _ = 1 to warm_reps do
                  let t, response = timed line in
                  if t < !warm_s then warm_s := t;
                  warm := Some response
                done;
                let warm_cached, warm_result =
                  serve_result_of line (Option.get !warm)
                in
                let ok =
                  (not cold_cached) && warm_cached
                  && String.equal cold_result warm_result
                in
                Printf.printf
                  "%-8s cold %8.4fs   warm %8.4fs (%6.1fx)   hit ok: %b\n%!"
                  name cold_s !warm_s (cold_s /. !warm_s) ok;
                (name, cold_s, !warm_s, ok, cold_result))
              requests
          in
          (* Throughput: warm evaluates round-robin over the design set. *)
          let t0 = Unix.gettimeofday () in
          for i = 0 to throughput_requests - 1 do
            ignore
              (Serve.Client.request conn lines.(i mod Array.length lines))
          done;
          (rows, Unix.gettimeofday () -. t0)
        in
        (* Concurrent throughput: the same warm load split over
           [conc_clients] connections hitting the worker pool at once. *)
        let per_client = throughput_requests / conc_clients in
        let t0 = Unix.gettimeofday () in
        let clients =
          List.init conc_clients (fun _ ->
              Thread.create
                (fun () ->
                  Serve.Client.with_connection (`Unix socket_path)
                  @@ fun conn ->
                  for i = 0 to per_client - 1 do
                    ignore
                      (Serve.Client.request conn
                         lines.(i mod Array.length lines))
                  done)
                ())
        in
        List.iter Thread.join clients;
        let conc_s = Unix.gettimeofday () -. t0 in
        (Serve.Client.with_connection (`Unix socket_path) @@ fun conn ->
         ignore (Serve.Client.request conn {|{"verb":"shutdown"}|}));
        (* Join the drain: the snapshot must be on disk before the
           restart phase boots. *)
        Thread.join server_thread;
        (rows, throughput_s, conc_s))
  in
  let snapshot_bytes =
    match Unix.stat cache_file with
    | s -> s.Unix.st_size
    | exception Unix.Unix_error _ -> 0
  in
  (* Phase 2: a fresh daemon restored from the snapshot — warm from
     request one, byte-identical to the pre-restart cold bytes. *)
  let restart_s, restart_all_warm, restart_identical =
    Run_ctx.with_ctx ~domains:4 @@ fun ctx ->
    let state = Serve.Protocol.make_state ~base:ctx () in
    let server = Serve.Server.create ~cache_file ~state (`Unix socket_path) in
    let server_thread = Thread.create Serve.Server.serve server in
    Fun.protect
      ~finally:(fun () ->
        Serve.Server.close server;
        Thread.join server_thread)
      (fun () ->
        let dt, answers =
          Serve.Client.with_connection (`Unix socket_path) @@ fun conn ->
          let t0 = Unix.gettimeofday () in
          let answers =
            List.map
              (fun (name, line) ->
                let cached, result =
                  serve_result_of line (Serve.Client.request conn line)
                in
                (name, cached, result))
              requests
          in
          let dt = Unix.gettimeofday () -. t0 in
          ignore (Serve.Client.request conn {|{"verb":"shutdown"}|});
          (dt, answers)
        in
        Thread.join server_thread;
        ( dt,
          List.for_all (fun (_, cached, _) -> cached) answers,
          List.for_all
            (fun (name, _, result) ->
              List.exists
                (fun (n, _, _, _, cold_result) ->
                  String.equal n name && String.equal result cold_result)
                rows)
            answers ))
  in
  (try Sys.remove cache_file with Sys_error _ -> ());
  (* Phase 3: deterministic overload.  Capacity 2 (one worker, one
     queue slot), the first request stalled at serve.dispatch: of five
     pipelined requests exactly three must shed, and the telemetry
     counter must agree with the wire. *)
  let overload_capacity = 2 and overload_pipelined = 5 in
  let overload_shed, overload_tele =
    let osink = Telemetry.create () in
    let fault =
      Fault.create (Fault.parse_exn "seed=1;serve.dispatch:stall=300ms:key=0")
    in
    Run_ctx.with_ctx ~domains:1 ~telemetry:osink ~fault @@ fun ctx ->
    let state = Serve.Protocol.make_state ~base:ctx () in
    let server =
      Serve.Server.create ~max_inflight:1 ~max_queue:1 ~state
        (`Unix socket_path)
    in
    let server_thread = Thread.create Serve.Server.serve server in
    Fun.protect
      ~finally:(fun () ->
        Serve.Server.close server;
        Thread.join server_thread)
      (fun () ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX socket_path);
        let payload =
          String.concat ""
            (List.init overload_pipelined (fun _ -> {|{"verb":"ping"}|} ^ "\n"))
        in
        ignore (Unix.write_substring fd payload 0 (String.length payload));
        let ic = Unix.in_channel_of_descr fd in
        let shed = ref 0 in
        for _ = 1 to overload_pipelined do
          match Serve.Json.parse (input_line ic) with
          | Ok json ->
            if
              Option.bind (Serve.Json.member "kind" json)
                Serve.Json.to_string_opt
              = Some "overloaded"
            then incr shed
          | Error msg ->
            Printf.eprintf "FAIL: unparsable overload response: %s\n" msg;
            exit 1
        done;
        Unix.close fd;
        (Serve.Client.with_connection (`Unix socket_path) @@ fun conn ->
         ignore (Serve.Client.request conn {|{"verb":"shutdown"}|}));
        Thread.join server_thread;
        ( !shed,
          Option.value ~default:0
            (List.assoc_opt "serve.shed" (Telemetry.counters osink)) ))
  in
  (* Phase 4: single-flight.  Sixteen clients march in lockstep rounds
     over the fig7 candidates: within a round, half the clients ask one
     design and half another, every client in a group asking the {e
     same} (design, seed, samples) estimate — a refresh storm of
     duplicate cold keys hitting one daemon with the cache on.  The
     artifact cache must build each distinct estimate exactly once
     (counted from the daemon's [kernel.samples]), and every response
     must match a serial [handle_line] replay of the same lines.  The
     designs' closed-form reports are warmed first, so a response's
     [cached] flag is its estimate's alone: per key exactly one
     response reads [false], the one whose call ran the build, and
     which client that is varies — so each round is compared as a
     multiset. *)
  let flight_clients = 16 in
  let flight_rounds = if quick then 4 else 8 in
  let flight_samples = 1_024 in
  let flight_requests_n = flight_clients * flight_rounds in
  let flight_candidates = Array.of_list Figures.fig7_candidates in
  let flight_design ~client ~round =
    let group = if client < flight_clients / 2 then 0 else 1 in
    flight_candidates.(((2 * round) + group) mod Array.length flight_candidates)
  in
  let flight_line ~client ~round =
    let ct, m = flight_design ~client ~round in
    Printf.sprintf
      {|{"verb":"evaluate","params":{"code":"%s","length":%d},"exec":{"seed":%d,"mc_samples":%d}}|}
      (Codebook.name ct) m (41_000 + round) flight_samples
  in
  let flight_warmup =
    List.sort_uniq compare
      (List.concat_map
         (fun round ->
           List.map
             (fun client ->
               let ct, m = flight_design ~client ~round in
               Printf.sprintf
                 {|{"verb":"evaluate","params":{"code":"%s","length":%d}}|}
                 (Codebook.name ct) m)
             [ 0; flight_clients - 1 ])
         (List.init flight_rounds Fun.id))
  in
  let flight_distinct_keys = 2 * flight_rounds in
  let flight_builds, flight_identical =
    let fsink = Telemetry.create () in
    let responses =
      Run_ctx.with_ctx ~domains:4 ~telemetry:fsink @@ fun ctx ->
      let state = Serve.Protocol.make_state ~base:ctx () in
      let server =
        Serve.Server.create ~max_inflight:flight_clients ~state
          (`Unix socket_path)
      in
      let server_thread = Thread.create Serve.Server.serve server in
      Fun.protect
        ~finally:(fun () ->
          Serve.Server.close server;
          Thread.join server_thread)
        (fun () ->
          (Serve.Client.with_connection (`Unix socket_path) @@ fun conn ->
           List.iter
             (fun line -> ignore (Serve.Client.request conn line))
             flight_warmup);
          let responses = Array.make_matrix flight_rounds flight_clients "" in
          (* A between-rounds barrier keeps the clients in lockstep, so
             every round hits the daemon as one simultaneous burst of
             duplicate keys.  Without it the rounds smear and late
             duplicates arrive after the build, as plain hits. *)
          let bar_mu = Mutex.create () in
          let bar_cv = Condition.create () in
          let bar_arrived = ref 0 and bar_round = ref 0 in
          let barrier () =
            Mutex.lock bar_mu;
            incr bar_arrived;
            if !bar_arrived = flight_clients then begin
              bar_arrived := 0;
              incr bar_round;
              Condition.broadcast bar_cv
            end
            else begin
              let target = !bar_round + 1 in
              while !bar_round < target do
                Condition.wait bar_cv bar_mu
              done
            end;
            Mutex.unlock bar_mu
          in
          let clients =
            List.init flight_clients (fun c ->
                Thread.create
                  (fun () ->
                    Serve.Client.with_connection (`Unix socket_path)
                    @@ fun conn ->
                    for r = 0 to flight_rounds - 1 do
                      barrier ();
                      responses.(r).(c) <-
                        Serve.Client.request conn (flight_line ~client:c ~round:r)
                    done)
                  ())
          in
          List.iter Thread.join clients;
          (Serve.Client.with_connection (`Unix socket_path) @@ fun conn ->
           ignore (Serve.Client.request conn {|{"verb":"shutdown"}|}));
          Thread.join server_thread;
          responses)
    in
    let serial =
      Run_ctx.with_ctx ~domains:1 @@ fun ctx ->
      let state = Serve.Protocol.make_state ~base:ctx () in
      List.iter
        (fun line -> ignore (Serve.Protocol.handle_line state line))
        flight_warmup;
      Array.init flight_rounds (fun r ->
          Array.init flight_clients (fun c ->
              Serve.Protocol.handle_line state (flight_line ~client:c ~round:r)))
    in
    let sorted a = List.sort compare (Array.to_list a) in
    let samples =
      Option.value ~default:0
        (List.assoc_opt "kernel.samples" (Telemetry.counters fsink))
    in
    ( (if samples mod flight_samples = 0 then samples / flight_samples else -1),
      Array.for_all2 (fun d s -> sorted d = sorted s) responses serial )
  in
  let cold_total = List.fold_left (fun a (_, c, _, _, _) -> a +. c) 0. rows in
  let warm_total = List.fold_left (fun a (_, _, w, _, _) -> a +. w) 0. rows in
  let all_identical = List.for_all (fun (_, _, _, ok, _) -> ok) rows in
  let speedup = cold_total /. warm_total in
  let rps = float_of_int throughput_requests /. throughput in
  let conc_rps = float_of_int throughput_requests /. conc_throughput in
  let restart_speedup = cold_total /. restart_s in
  let latency =
    List.find_opt
      (fun h -> h.Telemetry.hs_name = "serve.request_s")
      (Telemetry.histograms sink)
  in
  Printf.printf
    "serve aggregate: cold %.4fs -> warm %.4fs (%.1fx), identical: %b\n"
    cold_total warm_total speedup all_identical;
  Printf.printf "serve throughput: %d warm requests in %.4fs (%.0f req/s)\n"
    throughput_requests throughput rps;
  Printf.printf
    "serve concurrency: %d clients x %d warm requests in %.4fs (%.0f req/s)\n"
    conc_clients
    (throughput_requests / conc_clients)
    conc_throughput conc_rps;
  Printf.printf
    "serve restart: %d-byte snapshot, warm pass %.4fs (%.1fx vs cold), all \
     warm: %b, identical: %b\n"
    snapshot_bytes restart_s restart_speedup restart_all_warm restart_identical;
  Printf.printf
    "serve overload: %d pipelined at capacity %d -> %d shed (telemetry %d)\n"
    overload_pipelined overload_capacity overload_shed overload_tele;
  Printf.printf
    "serve single-flight: %d clients, %d requests over %d distinct estimates \
     (%d samples each): %d estimate builds, serial-replay identical: %b\n"
    flight_clients flight_requests_n flight_distinct_keys flight_samples
    flight_builds flight_identical;
  (match latency with
  | Some h ->
    Printf.printf
      "serve latency (daemon-side, %d requests): p50 <= %.6fs, p99 <= %.6fs, \
       max %.6fs\n"
      h.Telemetry.hs_count
      (serve_quantile ~q:0.5 h)
      (serve_quantile ~q:0.99 h)
      h.Telemetry.hs_max_s
  | None -> print_endline "serve latency: no serve.request_s histogram");
  let oc = open_out "BENCH_serve.json" in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"generated_by\": \"bench/main.exe --serve%s\",\n"
    (if quick then " --quick" else "");
  out "  \"quick\": %b,\n" quick;
  out "  \"mc_samples\": %d,\n" mc_samples;
  out "  \"warm_reps\": %d,\n" warm_reps;
  out "  \"gate_threshold\": %.1f,\n" serve_gate_threshold;
  out "  \"all_identical\": %b,\n" all_identical;
  out "  \"seconds\": {\"cold\": %.6f, \"warm\": %.6f},\n" cold_total warm_total;
  out "  \"speedup\": %.3f,\n" speedup;
  out "  \"throughput\": {\"requests\": %d, \"seconds\": %.6f, \"rps\": %.1f},\n"
    throughput_requests throughput rps;
  out
    "  \"concurrency\": {\"clients\": %d, \"requests\": %d, \"seconds\": \
     %.6f, \"rps\": %.1f},\n"
    conc_clients throughput_requests conc_throughput conc_rps;
  out
    "  \"overload\": {\"capacity\": %d, \"pipelined\": %d, \"shed\": %d, \
     \"telemetry_shed\": %d},\n"
    overload_capacity overload_pipelined overload_shed overload_tele;
  out
    "  \"persistence\": {\"snapshot_bytes\": %d, \"restart_seconds\": %.6f, \
     \"restart_speedup\": %.3f, \"all_warm\": %b, \"identical\": %b},\n"
    snapshot_bytes restart_s restart_speedup restart_all_warm restart_identical;
  (match latency with
  | Some h ->
    out
      "  \"latency\": {\"requests\": %d, \"p50_s\": %.9f, \"p99_s\": %.9f, \
       \"max_s\": %.9f},\n"
      h.Telemetry.hs_count
      (serve_quantile ~q:0.5 h)
      (serve_quantile ~q:0.99 h)
      h.Telemetry.hs_max_s
  | None -> out "  \"latency\": null,\n");
  out
    "  \"single_flight\": {\"requests\": %d, \"distinct_keys\": %d, \
     \"builds\": %d},\n"
    flight_requests_n flight_distinct_keys flight_builds;
  out "  \"designs\": [\n";
  List.iteri
    (fun i (name, cold_s, warm_s, ok, _) ->
      out
        "    {\"name\": \"%s\", \"seconds\": {\"cold\": %.6f, \"warm\": \
         %.6f}, \"speedup\": %.3f, \"hit_identical\": %b}%s\n"
        (json_escape name) cold_s warm_s (cold_s /. warm_s) ok
        (if i < List.length rows - 1 then "," else ""))
    rows;
  out "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote BENCH_serve.json (%d designs)\n" (List.length rows);
  (* The gates are always-on: a cache this central must pay for itself,
     survive a restart and shed exactly what it says it sheds. *)
  if not all_identical then begin
    prerr_endline "FAIL: a warm response diverged from its cold bytes";
    exit 1
  end;
  if speedup < serve_gate_threshold then begin
    Printf.eprintf "FAIL: warm-cache speedup %.2fx below the %.1fx gate\n"
      speedup serve_gate_threshold;
    exit 1
  end;
  if not (restart_all_warm && restart_identical) then begin
    prerr_endline
      "FAIL: a restarted daemon did not serve the snapshot warm and \
       byte-identical";
    exit 1
  end;
  if restart_speedup < serve_gate_threshold then begin
    Printf.eprintf
      "FAIL: warm-after-restart speedup %.2fx below the %.1fx gate\n"
      restart_speedup serve_gate_threshold;
    exit 1
  end;
  if
    overload_shed <> overload_pipelined - overload_capacity
    || overload_tele <> overload_shed
  then begin
    Printf.eprintf
      "FAIL: overload shed %d (telemetry %d), expected exactly %d\n"
      overload_shed overload_tele
      (overload_pipelined - overload_capacity);
    exit 1
  end;
  if flight_builds <> flight_distinct_keys then begin
    Printf.eprintf
      "FAIL: %d estimate builds for %d distinct keys (single-flight broken)\n"
      flight_builds flight_distinct_keys;
    exit 1
  end;
  if not flight_identical then begin
    prerr_endline
      "FAIL: a single-flight response diverged from the serial replay bytes";
    exit 1
  end

let () =
  let argv = Array.to_list Sys.argv in
  if List.mem "--mc" argv then begin
    let gate_rows = run_mc_json ~quick:(List.mem "--quick" argv) in
    let rec gate_arg = function
      | "--gate-vr-samples" :: v :: _ -> (
        match float_of_string_opt v with
        | Some t when t > 0. -> Some t
        | Some _ | None ->
          prerr_endline "FAIL: --gate-vr-samples needs a positive ratio";
          exit 2)
      | _ :: rest -> gate_arg rest
      | [] -> None
    in
    match gate_arg argv with
    | Some threshold -> gate_vr_samples ~threshold gate_rows
    | None -> ()
  end
  else if List.mem "--serve" argv then
    run_serve_json ~quick:(List.mem "--quick" argv)
  else if List.mem "--json" argv then begin
    let quick = List.mem "--quick" argv in
    let parallel_result = run_json ~quick in
    let kernel_result = run_kernel_json ~quick in
    if List.mem "--gate-kernel-speedup" argv then
      gate_kernel_speedup kernel_result;
    (* --gate-parallel-speedup takes its threshold as the next argument. *)
    (let rec gate_arg = function
       | "--gate-parallel-speedup" :: v :: _ -> (
         match float_of_string_opt v with
         | Some t when t > 0. -> Some t
         | Some _ | None ->
           prerr_endline
             "FAIL: --gate-parallel-speedup needs a positive threshold";
           exit 2)
       | _ :: rest -> gate_arg rest
       | [] -> None
     in
     match gate_arg argv with
     | Some threshold -> gate_parallel_speedup ~threshold parallel_result
     | None -> ());
    if List.mem "--gate-overhead" argv then gate_overhead ~quick;
    if List.mem "--gate-fault-overhead" argv then gate_fault_overhead ~quick
  end
  else begin
    print_endline "nanodec reproduction harness — Ben Jamaa et al., DAC 2009";
    print_fig5 ();
    print_fig6 ();
    print_fig7 ();
    print_fig8 ();
    print_headlines ();
    print_fig6_multivalued ();
    print_multivalued ();
    print_baseline ();
    print_arranger ();
    print_scaling ();
    print_ablations ();
    run_bechamel ();
    print_endline "\ndone."
  end
