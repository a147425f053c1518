(* Benchmark and reproduction harness.

   With no argument this executable prints, for every figure of the
   paper's evaluation section, the data series the figure reports — the
   reproduction.  (Perfbench times the same figures end to end as its
   [figures.*_ms] metrics.)

   [--json] runs the parallel, kernel and variance-reduction suites,
   [--serve] the daemon suite; [--quick] shrinks either.  Every suite
   returns rows of one schema, writes them to BENCH_<suite>.json and
   checks its gates against the rows it just wrote.  A gate is a named
   constant, checked on every run of its suite; a failed gate exits 1.

   Run with [dune exec bench/main.exe [-- --json|--serve [--quick]]]. *)

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

(* --- machine-readable suites: one row schema, one writer --- *)

module Json = Nanodec_json.Json
module Run_ctx = Nanodec_parallel.Run_ctx
module Telemetry = Nanodec_telemetry.Telemetry

(* One measurement: [value] in [unit] for [layer] of [name].
   [identical] says whether the run behind it reproduced its reference:
   the sequential values bit for bit, the cold bytes on a warm or
   restarted daemon, or (for a variance-reduced estimate) a bracket of
   the exact yield. *)
type row = {
  suite : string;
  name : string;
  layer : string;
  value : float;
  unit : string;
  identical : bool;
}

let now = Telemetry.monotonic_s

(* BENCH_<suite>.json: a header object whose last field is the row
   list, one row per line. *)
let write_rows ~quick ~mode suite rows =
  let file = Printf.sprintf "BENCH_%s.json" suite in
  let header =
    Json.to_string
      (Json.Obj
         [
           ( "generated_by",
             Json.String
               (Printf.sprintf "bench/main.exe %s%s" mode
                  (if quick then " --quick" else "")) );
           ("quick", Json.Bool quick);
           ("cpus", Json.Int (Domain.recommended_domain_count ()));
         ])
  in
  let row r =
    Json.to_string
      (Json.Obj
         [
           ("suite", Json.String r.suite);
           ("name", Json.String r.name);
           ("layer", Json.String r.layer);
           ("value", Json.Float r.value);
           ("unit", Json.String r.unit);
           ("identical", Json.Bool r.identical);
         ])
  in
  let oc = open_out file in
  Printf.fprintf oc "%s,\"rows\":[\n%s\n]}\n"
    (String.sub header 0 (String.length header - 1))
    (String.concat ",\n" (List.map row rows));
  close_out oc;
  Printf.printf "wrote %s (%d rows)\n%!" file (List.length rows)

let find rows ~name ~layer =
  List.find (fun r -> r.name = name && r.layer = layer) rows

(* --- gates: every threshold is a constant, checked on every run --- *)

let kernel_speedup_gate = 2.0 (* aggregate, kernel vs reference draw *)
let parallel_speedup_gate = 2.0 (* fig7-mc-yield at 4 domains *)
let parallel_gate_cpus = 4 (* the speedup gate needs this many CPUs *)
let telemetry_overhead_gate = 0.05 (* a sink on the sequential path *)
let fault_overhead_gate = 0.02 (* an inert fault engine *)
let vr_gate = 10.0 (* samples-to-CI reduction ... *)
let vr_gate_designs = 3 (* ... on this many high-yield designs *)
let serve_speedup_gate = 5.0 (* warm and restarted vs cold *)

let gate_failed = ref false

let gate name ~pass detail =
  if pass then Printf.printf "gate %s: pass (%s)\n%!" name detail
  else begin
    Printf.eprintf "FAIL: gate %s: %s\n%!" name detail;
    gate_failed := true
  end

let time_best ~reps f =
  let best = ref infinity and result = ref None in
  for _ = 1 to reps do
    let t0 = now () in
    let r = f () in
    let dt = now () -. t0 in
    if dt < !best then best := dt;
    result := Some r
  done;
  (Option.get !result, !best)

(* --- parallel suite: BENCH_parallel.json + BENCH_telemetry.json ---

   Times the headline workloads sequentially and on 2- and 4-domain
   pools, and once more on 4 domains with a telemetry sink whose span
   totals and pool counters become the per-stage rows (its full export
   lands in BENCH_telemetry.json).  Every pooled and traced run must
   reproduce the sequential values bit for bit.  Two more rows time the
   Monte-Carlo workload, the most probe-dense of the four, with a sink
   and with an inert fault engine on the sequential path. *)

type parallel_workload = {
  wname : string;
  run : ?ctx:Run_ctx.t -> unit -> (string * float) list;
      (* labelled reproduced values; the digest compared across runs *)
}

(* Monte-Carlo window yield of one Fig. 7 design. *)
let fig7_mc_yield ?ctx ~samples (ct, m) =
  let spec = Design.spec ~code_type:ct ~code_length:m () in
  let analysis = Nanodec_crossbar.Cave.analyze spec.Design.cave in
  (Nanodec_crossbar.Cave.mc_yield_window_par ?ctx (Rng.create ~seed:2009)
     ~samples analysis)
    .Montecarlo.mean

let parallel_workloads ~quick =
  let mc_samples = if quick then 500 else 4_000 in
  let label ct m = Printf.sprintf "%s-M%d" (Codebook.name ct) m in
  [
    (* Monte-Carlo window yield over the Fig. 7 designs. *)
    {
      wname = "fig7-mc-yield";
      run =
        (fun ?ctx () ->
          List.map
            (fun (ct, m) ->
              (label ct m, fig7_mc_yield ?ctx ~samples:mc_samples (ct, m)))
            Figures.fig7_candidates);
    };
    (* The full code-family x length grid, analytic design flow. *)
    {
      wname = "optimizer-sweep";
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
    (* Bit area, all five families at M in {6,8,10}. *)
    {
      wname = "fig8-bit-area";
      run =
        (fun ?ctx () ->
          List.map
            (fun (p : Figures.fig8_point) ->
              (label p.Figures.code_type p.Figures.code_length, p.Figures.bit_area))
            (Figures.fig8 ?ctx ()));
    };
    (* TC vs BGC yield across the sigma_T sweep. *)
    {
      wname = "ablation-sigma-t";
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

(* The pool counters worth tracking per workload in the stage
   breakdown. *)
let stage_counters = [
  "pool.jobs"; "pool.jobs.sequential"; "pool.jobs.inline_nested";
  "pool.chunks.submitter"; "pool.chunks.worker"; "pool.batches";
  "optimizer.candidates"; "mc.samples";
]

let parallel_workload_rows ~reps w =
  (* One untimed warm-up run populates the code-construction memo
     tables so every timed run sees the same warm caches. *)
  let reference = w.run () in
  let _, seq_time = time_best ~reps (fun () -> w.run ()) in
  let pooled =
    List.map
      (fun domains ->
        Run_ctx.with_ctx ~domains (fun ctx ->
            let values, t = time_best ~reps (fun () -> w.run ~ctx ()) in
            (domains, t, values = reference)))
      [ 2; 4 ]
  in
  let sink = Telemetry.create () in
  let traced_ok =
    Run_ctx.with_ctx ~domains:4 ~telemetry:sink (fun ctx ->
        w.run ~ctx () = reference)
  in
  let deterministic =
    traced_ok && List.for_all (fun (_, _, ok) -> ok) pooled
  in
  Printf.printf "%-18s seq %8.4fs" w.wname seq_time;
  List.iter
    (fun (d, t, _) -> Printf.printf "   %dd %8.4fs (%.2fx)" d t (seq_time /. t))
    pooled;
  Printf.printf "   deterministic: %b\n%!" deterministic;
  let row layer value unit =
    { suite = "parallel"; name = w.wname; layer; value; unit;
      identical = deterministic }
  in
  let counters = Telemetry.counters sink in
  let rows =
    (row "seq" seq_time "s"
     :: List.concat_map
          (fun (d, t, _) ->
            [
              row (Printf.sprintf "domains%d" d) t "s";
              row (Printf.sprintf "speedup.domains%d" d) (seq_time /. t) "x";
            ])
          pooled)
    @ List.map
        (fun (span, (_, seconds)) -> row ("span." ^ span) seconds "s")
        (Telemetry.span_totals sink)
    @ List.map
        (fun c ->
          row ("counter." ^ c)
            (float_of_int (Option.value ~default:0 (List.assoc_opt c counters)))
            "count")
        stage_counters
  in
  (rows, (w.wname, sink))

(* Process CPU seconds of [f ()].  The overhead runs stay on the calling
   domain, so this is their own work, without the time a busy host
   keeps them waiting. *)
let cpu_time f =
  let t0 = Unix.times () in
  let r = f () in
  let t1 = Unix.times () in
  (r, t1.tms_utime +. t1.tms_stime -. t0.tms_utime -. t0.tms_stime)

(* Relative cost of the 500-sample fig7-mc-yield run with [on] instead
   of [off]: the median over [overhead_pairs] off/on pairs of the on/off
   CPU-time ratio, minus 1.  A pair runs the twelve designs once each
   way, design by design and in alternating order, so its two halves
   share the same stretch of host time; the median drops the pairs a
   neighbour still disturbed.  (On a shared 2-vCPU host one design's
   run costs 1x or 1.7x the CPU time, in phases of about a second.)
   Every run must give the reference values. *)
let overhead_pairs = 31

let overhead_row layer ?off ~on () =
  let designs = Array.of_list Figures.fig7_candidates in
  let run ctx d = fig7_mc_yield ?ctx ~samples:500 designs.(d) in
  let reference = Array.init (Array.length designs) (run None) in
  let identical = ref true in
  let timed ctx d =
    let value, t = cpu_time (fun () -> run ctx d) in
    identical := !identical && value = reference.(d);
    t
  in
  let ratios =
    Array.init overhead_pairs (fun p ->
        let off_t = ref 0. and on_t = ref 0. in
        Array.iteri
          (fun d _ ->
            let time_off () = off_t := !off_t +. timed off d in
            let time_on () = on_t := !on_t +. timed (Some on) d in
            if (p + d) mod 2 = 0 then (time_off (); time_on ())
            else (time_on (); time_off ()))
          designs;
        !on_t /. !off_t)
  in
  Array.sort Float.compare ratios;
  let overhead = ratios.(overhead_pairs / 2) -. 1. in
  Printf.printf
    "%s (fig7-mc-yield, seq, median of %d CPU-time pairs): %+.2f%% (pairs \
     %+.2f%% .. %+.2f%%)\n%!"
    layer overhead_pairs (100. *. overhead)
    (100. *. (ratios.(0) -. 1.))
    (100. *. (ratios.(overhead_pairs - 1) -. 1.));
  { suite = "parallel"; name = "fig7-mc-yield"; layer; value = overhead;
    unit = "frac"; identical = !identical }

let run_parallel ~quick =
  let reps = if quick then 1 else 3 in
  let workloads = parallel_workloads ~quick in
  let measured = List.map (parallel_workload_rows ~reps) workloads in
  let mc = List.hd workloads in
  let telemetry_overhead =
    overhead_row "telemetry_overhead"
      ~on:(Run_ctx.make ~telemetry:(Telemetry.create ()) ()) ()
  in
  let fault_overhead =
    overhead_row "fault_overhead" ~off:(Run_ctx.make ())
      ~on:(Run_ctx.make ~fault:(Nanodec_fault.Fault.inert ()) ()) ()
  in
  let rows =
    List.concat_map fst measured @ [ telemetry_overhead; fault_overhead ]
  in
  write_rows ~quick ~mode:"--json" "parallel" rows;
  let workload (_, (name, sink)) =
    Json.Obj
      [ ("name", Json.String name); ("telemetry", Telemetry.to_json sink) ]
  in
  Out_channel.with_open_text "BENCH_telemetry.json" (fun oc ->
      output_string oc
        (Json.to_string
           (Json.Obj [ ("workloads", Json.List (List.map workload measured)) ])
        ^ "\n"));
  Printf.printf "wrote BENCH_telemetry.json (%d workloads)\n%!"
    (List.length measured);
  gate "determinism"
    ~pass:(List.for_all (fun r -> r.identical) rows)
    "every pooled, traced and observed run reproduces the sequential values";
  let speedup =
    (find rows ~name:mc.wname ~layer:"speedup.domains4").value
  in
  let cpus = Domain.recommended_domain_count () in
  if cpus < parallel_gate_cpus then
    Printf.printf
      "gate parallel-speedup: skipped (needs %d CPUs, host has %d; %s at 4 \
       domains %.2fx)\n%!"
      parallel_gate_cpus cpus mc.wname speedup
  else
    gate "parallel-speedup"
      ~pass:(speedup >= parallel_speedup_gate)
      (Printf.sprintf "%s at 4 domains %.2fx, need >= %.2fx" mc.wname speedup
         parallel_speedup_gate);
  List.iter
    (fun (layer, limit) ->
      let o = (find rows ~name:mc.wname ~layer).value in
      gate layer ~pass:(o <= limit)
        (Printf.sprintf "%+.2f%%, limit %.0f%%" (100. *. o) (100. *. limit)))
    [
      ("telemetry_overhead", telemetry_overhead_gate);
      ("fault_overhead", fault_overhead_gate);
    ]

(* --- kernel suite: BENCH_kernels.json ---

   Times the compiled MC kernel (Cave.mc_yield_window_par, pool-less)
   against the allocating reference draw (Cave.mc_yield_window_reference)
   on every Fig. 7 design: same seed, same chunking, same sample count,
   best of 5 on both sides.  The kernel is licensed as an optimisation
   only: every pair of estimates must be bit-for-bit identical, and the
   aggregate must beat the reference by [kernel_speedup_gate]. *)

let run_kernels ~quick =
  let module Cave = Nanodec_crossbar.Cave in
  let samples = if quick then 500 else 4_000 in
  let reps = 5 in
  let designs =
    List.map
      (fun (ct, m) ->
        let spec = Design.spec ~code_type:ct ~code_length:m () in
        let analysis = Cave.analyze spec.Design.cave in
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
        let name = Printf.sprintf "%s-M%d" (Codebook.name ct) m in
        let identical = reference = kernelized in
        Printf.printf
          "%-8s reference %8.4fs   kernel %8.4fs   %5.2fx   identical: %b\n%!"
          name t_ref t_ker (t_ref /. t_ker) identical;
        let row layer value unit =
          { suite = "kernels"; name; layer; value; unit; identical }
        in
        [
          row "reference" t_ref "s";
          row "kernel" t_ker "s";
          row "speedup" (t_ref /. t_ker) "x";
          row "draws_per_sample"
            (float_of_int (Nanodec_crossbar.Kernel.draws_per_sample kernel))
            "count";
        ])
      Figures.fig7_candidates
  in
  let total layer =
    List.fold_left
      (fun acc rows ->
        List.fold_left
          (fun acc r -> if r.layer = layer then acc +. r.value else acc)
          acc rows)
      0. designs
  in
  let rows = List.concat designs in
  let all_identical = List.for_all (fun r -> r.identical) rows in
  let aggregate = total "reference" /. total "kernel" in
  let rows =
    rows
    @ [
        { suite = "kernels"; name = "aggregate"; layer = "speedup";
          value = aggregate; unit = "x"; identical = all_identical };
      ]
  in
  write_rows ~quick ~mode:"--json" "kernels" rows;
  let agg = find rows ~name:"aggregate" ~layer:"speedup" in
  gate "kernel-speedup"
    ~pass:(agg.identical && agg.value >= kernel_speedup_gate)
    (Printf.sprintf "%.2fx over %d designs, need >= %.1fx; identical: %b"
       agg.value (List.length designs) kernel_speedup_gate agg.identical)

(* --- variance-reduction suite: BENCH_mc.json ---

   Measures, per Fig. 7 design, how many samples each sampling strategy
   needs to pin the window yield to the same +/- CI a plain Monte-Carlo
   run would need.  The plain side is exact, not sampled: each wire
   passes independently with the closed-form probability
   [analysis.wire_probability], so the per-sample variance of the plain
   estimator is (1/n^2) sum p_i (1 - p_i) with no pilot noise.  Each
   variance-reduced strategy gets a pilot run whose empirical variance
   converts to a samples-to-target count at the same CI half-width
   (h = rel_target * yield, n = v * (z/h)^2), and its estimate must
   bracket the analytic yield to count.

   The suite runs at a production operating point (sigma_t = 0.02, the
   tightened implant control of a tuned process) where yields are high
   and plain sampling wastes almost every draw on all-pass samples;
   importance sampling aims every draw at the failure boundary and
   reweights exactly, which is where the 10x comes from.

   A determinism battery reruns the best strategy across domain counts
   1/2/4 under Auto and two Fixed chunkings; any drift fails the
   process.  The [vr_gate] needs [vr_gate_designs] high-yield designs
   (analytic yield >= 0.9) at a [vr_gate]-fold sample reduction with a
   bracketing, schedule-deterministic estimate. *)

let mc_rel_target = 0.001
let mc_sigma_t = 0.02
let mc_high_yield = 0.9

let run_mc ~quick =
  let module Cave = Nanodec_crossbar.Cave in
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
  let design (ct, m) =
    let name = Printf.sprintf "%s-M%d" (Codebook.name ct) m in
    let spec = Design.spec ~code_type:ct ~code_length:m () in
    let analysis =
      Cave.analyze { spec.Design.cave with Cave.sigma_t = mc_sigma_t }
    in
    let target =
      Nanodec_crossbar.Kernel.target (Cave.kernel_of_analysis analysis)
    in
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
          (sname, strategy, n_s, float_of_int n_plain /. float_of_int n_s,
           brackets))
        strategies
    in
    (* Determinism battery on the winning strategy: the sample schedule
       must not leak into the estimate. *)
    let best_name, best_strategy, best_n, best_vr, best_ok =
      List.fold_left
        (fun ((_, _, _, av, _) as acc) ((_, _, _, vr, _) as c) ->
          if vr > av then c else acc)
        ("", Montecarlo.Plain, 0, neg_infinity, false)
        cells
    in
    let spec = Montecarlo.spec ~strategy:best_strategy (Montecarlo.fixed 512) in
    let baseline = Montecarlo.run spec (Rng.create ~seed:7) target in
    let deterministic =
      List.for_all
        (fun (domains, chunking) ->
          Run_ctx.with_ctx ~domains ~chunking ~warn:false (fun ctx ->
              Montecarlo.run ~ctx spec (Rng.create ~seed:7) target = baseline))
        (List.concat_map
           (fun domains ->
             [
               (domains, Run_ctx.Auto);
               (domains, Run_ctx.Fixed 3);
               (domains, Run_ctx.Fixed 16);
             ])
           [ 1; 2; 4 ])
    in
    Printf.printf
      "%-8s yield %.5f  plain n=%-9d best %s  n=%-8d (%6.1fx)  brackets: %b  \
       deterministic: %b\n%!"
      name exact n_plain best_name best_n best_vr best_ok deterministic;
    let row layer value unit identical =
      { suite = "mc"; name; layer; value; unit; identical }
    in
    (row "yield" exact "frac" deterministic
     :: row "plain.samples_to_target" (float_of_int n_plain) "samples"
          deterministic
     :: List.concat_map
          (fun (sname, _, n_s, vr, ok) ->
            [
              row (sname ^ ".samples_to_target") (float_of_int n_s) "samples" ok;
              row (sname ^ ".vr_factor") vr "x" ok;
            ])
          cells)
    @ [ row "best.vr_factor" best_vr "x" (best_ok && deterministic) ]
  in
  let rows = List.concat_map design Figures.fig7_candidates in
  write_rows ~quick ~mode:"--json" "mc" rows;
  let yields = List.filter (fun r -> r.layer = "yield") rows in
  gate "mc-determinism"
    ~pass:(List.for_all (fun r -> r.identical) yields)
    "the best strategy's estimate at domains 1/2/4 x Auto/Fixed 3/Fixed 16";
  let passing =
    List.filter
      (fun y ->
        let best = find rows ~name:y.name ~layer:"best.vr_factor" in
        y.value >= mc_high_yield && best.identical && best.value >= vr_gate)
      yields
  in
  gate "variance-reduction"
    ~pass:(List.length passing >= vr_gate_designs)
    (Printf.sprintf "%d high-yield designs at >= %.1fx (%s), need %d"
       (List.length passing) vr_gate
       (String.concat " " (List.map (fun r -> r.name) passing))
       vr_gate_designs)

(* --- serve suite: BENCH_serve.json ---

   Three daemon lifetimes on one Unix socket:

   1. cold then warm evaluates over every Fig. 7 design, then a graceful
      shutdown whose drain writes the artifact-cache snapshot;
   2. a restarted daemon on the same [--cache-file]: every request must
      come back warm, byte-identical to the pre-restart cold bytes;
   3. single-flight: sixteen clients in lockstep rounds of duplicate
      cold keys must build each distinct estimate exactly once, every
      response matching a serial replay.

   The warm and the warm-after-restart passes must each beat the cold
   pass by [serve_speedup_gate].  Request throughput, latency and
   overload shedding are perfbench's and test_serve's to measure. *)

module Serve = Nanodec_serve

let serve_result_of line response =
  match Json.parse response with
  | Error msg ->
    Printf.eprintf "FAIL: unparsable daemon response to %s: %s\n" line msg;
    exit 1
  | Ok json ->
    let field name to_v =
      match Option.bind (Json.member name json) to_v with
      | Some v -> v
      | None ->
        Printf.eprintf "FAIL: daemon response to %s lacks %S: %s\n" line name
          response;
        exit 1
    in
    if field "status" Json.to_string_opt <> "ok" then begin
      Printf.eprintf "FAIL: daemon answered an error to %s: %s\n" line response;
      exit 1
    end;
    ( field "cached" Json.to_bool_opt,
      Json.to_string (field "result" Option.some) )

(* Boots a daemon on [socket_path] inside [ctx], runs [f], asks it to
   shut down and joins its drain. *)
let with_daemon ?cache_file ?max_inflight ctx socket_path f =
  let state = Serve.Protocol.make_state ~base:ctx () in
  let server =
    Serve.Server.create ?cache_file ?max_inflight ~state (`Unix socket_path)
  in
  let server_thread = Thread.create Serve.Server.serve server in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.close server;
      Thread.join server_thread)
    (fun () ->
      let result = f () in
      (Serve.Client.with_connection (`Unix socket_path) @@ fun conn ->
       ignore (Serve.Client.request conn {|{"verb":"shutdown"}|}));
      (* Join the drain: a snapshot must be on disk before the next
         lifetime boots. *)
      Thread.join server_thread;
      result)

let run_serve ~quick =
  let mc_samples = if quick then 500 else 4_000 in
  let warm_reps = 3 in
  let temp ext =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "nanodec-bench-%d.%s" (Unix.getpid ()) ext)
  in
  let socket_path = temp "sock" and cache_file = temp "snapshot" in
  let requests =
    List.map
      (fun (ct, m) ->
        ( Printf.sprintf "%s-M%d" (Codebook.name ct) m,
          Printf.sprintf
            {|{"verb":"evaluate","params":{"code":"%s","length":%d},"exec":{"seed":2009,"mc_samples":%d}}|}
            (Codebook.name ct) m mc_samples ))
      Figures.fig7_candidates
  in
  section
    (Printf.sprintf
       "SERVE — cold vs warm-cache evaluate, %d fig7 designs x %d MC samples"
       (List.length requests) mc_samples);
  (* Phase 1: cold/warm; the graceful drain persists the cache snapshot
     for phase 2. *)
  let designs =
    Run_ctx.with_ctx ~domains:4 @@ fun ctx ->
    with_daemon ~cache_file ctx socket_path @@ fun () ->
    Serve.Client.with_connection (`Unix socket_path) @@ fun conn ->
    let timed line =
      let t0 = now () in
      let response = Serve.Client.request conn line in
      (now () -. t0, response)
    in
    List.map
      (fun (name, line) ->
        let cold_s, cold_response = timed line in
        let cold_cached, cold_result = serve_result_of line cold_response in
        let warm_s = ref infinity and warm = ref None in
        for _ = 1 to warm_reps do
          let t, response = timed line in
          if t < !warm_s then warm_s := t;
          warm := Some response
        done;
        let warm_cached, warm_result = serve_result_of line (Option.get !warm) in
        let ok =
          (not cold_cached) && warm_cached && String.equal cold_result warm_result
        in
        Printf.printf "%-8s cold %8.4fs   warm %8.4fs (%6.1fx)   hit ok: %b\n%!"
          name cold_s !warm_s (cold_s /. !warm_s) ok;
        (name, cold_s, !warm_s, ok, cold_result))
      requests
  in
  let snapshot_bytes =
    match Unix.stat cache_file with
    | s -> s.Unix.st_size
    | exception Unix.Unix_error _ -> 0
  in
  (* Phase 2: a fresh daemon restored from the snapshot — warm from
     request one (every answer of every pass, the first included, cached
     and byte-identical to the pre-restart cold bytes); timed as the
     best of [warm_reps] passes, like the warm phase. *)
  let restart_s, restart_ok =
    Run_ctx.with_ctx ~domains:4 @@ fun ctx ->
    with_daemon ~cache_file ctx socket_path @@ fun () ->
    Serve.Client.with_connection (`Unix socket_path) @@ fun conn ->
    let pass () =
      let t0 = now () in
      let warm =
        List.map
          (fun (name, line) ->
            let cached, result =
              serve_result_of line (Serve.Client.request conn line)
            in
            cached
            && List.exists
                 (fun (n, _, _, _, cold_result) ->
                   String.equal n name && String.equal result cold_result)
                 designs)
          requests
      in
      (now () -. t0, List.for_all Fun.id warm)
    in
    let passes = List.init warm_reps (fun _ -> pass ()) in
    ( List.fold_left (fun best (t, _) -> Float.min best t) infinity passes,
      List.for_all snd passes )
  in
  (try Sys.remove cache_file with Sys_error _ -> ());
  (* Phase 3: single-flight.  Sixteen clients march in lockstep rounds
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
  let fsink = Telemetry.create () in
  let responses =
    Run_ctx.with_ctx ~domains:4 ~telemetry:fsink @@ fun ctx ->
    with_daemon ~max_inflight:flight_clients ctx socket_path @@ fun () ->
    (Serve.Client.with_connection (`Unix socket_path) @@ fun conn ->
     List.iter (fun line -> ignore (Serve.Client.request conn line)) flight_warmup);
    let responses = Array.make_matrix flight_rounds flight_clients "" in
    (* A between-rounds barrier keeps the clients in lockstep, so every
       round hits the daemon as one simultaneous burst of duplicate
       keys.  Without it the rounds smear and late duplicates arrive
       after the build, as plain hits. *)
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
    List.iter Thread.join
      (List.init flight_clients (fun c ->
           Thread.create
             (fun () ->
               Serve.Client.with_connection (`Unix socket_path) @@ fun conn ->
               for r = 0 to flight_rounds - 1 do
                 barrier ();
                 responses.(r).(c) <-
                   Serve.Client.request conn (flight_line ~client:c ~round:r)
               done)
             ()));
    responses
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
  let flight_identical =
    Array.for_all2 (fun d s -> sorted d = sorted s) responses serial
  in
  let flight_builds =
    let samples =
      Option.value ~default:0
        (List.assoc_opt "kernel.samples" (Telemetry.counters fsink))
    in
    if samples mod flight_samples = 0 then samples / flight_samples else -1
  in
  let cold_total = List.fold_left (fun a (_, c, _, _, _) -> a +. c) 0. designs in
  let warm_total = List.fold_left (fun a (_, _, w, _, _) -> a +. w) 0. designs in
  let all_identical = List.for_all (fun (_, _, _, ok, _) -> ok) designs in
  Printf.printf
    "serve aggregate: cold %.4fs -> warm %.4fs (%.1fx), identical: %b\n"
    cold_total warm_total (cold_total /. warm_total) all_identical;
  Printf.printf
    "serve restart: %d-byte snapshot, best of %d warm passes %.4fs (%.1fx \
     vs cold), warm and identical: %b\n"
    snapshot_bytes warm_reps restart_s (cold_total /. restart_s) restart_ok;
  Printf.printf
    "serve single-flight: %d clients, %d requests over %d distinct estimates \
     (%d samples each): %d estimate builds, serial-replay identical: %b\n"
    flight_clients (flight_clients * flight_rounds) flight_distinct_keys
    flight_samples flight_builds flight_identical;
  let row name layer value unit identical =
    { suite = "serve"; name; layer; value; unit; identical }
  in
  let rows =
    List.concat_map
      (fun (name, cold_s, warm_s, ok, _) ->
        [
          row name "cold" cold_s "s" ok;
          row name "warm" warm_s "s" ok;
          row name "speedup" (cold_s /. warm_s) "x" ok;
        ])
      designs
    @ [
        row "aggregate" "cold" cold_total "s" all_identical;
        row "aggregate" "warm" warm_total "s" all_identical;
        row "aggregate" "speedup" (cold_total /. warm_total) "x" all_identical;
        row "restart" "seconds" restart_s "s" restart_ok;
        row "restart" "speedup" (cold_total /. restart_s) "x" restart_ok;
        row "restart" "snapshot_bytes" (float_of_int snapshot_bytes) "bytes"
          restart_ok;
        row "single-flight" "distinct_keys" (float_of_int flight_distinct_keys)
          "count" flight_identical;
        row "single-flight" "builds" (float_of_int flight_builds) "count"
          flight_identical;
      ]
  in
  write_rows ~quick ~mode:"--serve" "serve" rows;
  List.iter
    (fun (name, what) ->
      let r = find rows ~name ~layer:"speedup" in
      gate (name ^ "-speedup")
        ~pass:(r.identical && r.value >= serve_speedup_gate)
        (Printf.sprintf "%s %.1fx vs cold, need >= %.1fx; identical: %b" what
           r.value serve_speedup_gate r.identical))
    [ ("aggregate", "warm cache"); ("restart", "warm after restart") ];
  let builds = find rows ~name:"single-flight" ~layer:"builds" in
  let keys = find rows ~name:"single-flight" ~layer:"distinct_keys" in
  gate "single-flight"
    ~pass:(builds.identical && builds.value = keys.value)
    (Printf.sprintf
       "%.0f estimate builds for %.0f distinct keys; serial-replay identical: %b"
       builds.value keys.value builds.identical)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = List.mem "--quick" args in
  let modes = [ "--json"; "--serve"; "--quick" ] in
  (match List.filter (fun a -> not (List.mem a modes)) args with
  | [] -> ()
  | unknown ->
    Printf.eprintf
      "bench/main.exe: unknown argument %s (usage: [--json|--serve] \
       [--quick])\n"
      (String.concat " " unknown);
    exit 2);
  if List.mem "--serve" args then run_serve ~quick
  else if List.mem "--json" args then begin
    run_parallel ~quick;
    run_kernels ~quick;
    run_mc ~quick
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
    print_endline "\ndone."
  end;
  if !gate_failed then exit 1
