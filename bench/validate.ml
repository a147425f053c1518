(* Cross-model yield validation.

   Run with: dune exec bench/validate.exe [samples]

   For every design point of the paper's Fig. 7, compares four independent
   estimates of the cave yield Y:

   - analytic   — the paper's closed-form Gaussian window model
   - MC window  — fabrication noise re-sampled through the process
                  simulator, same window criterion
   - MC unique  — full electrical semantics: the wire must be the only
                  conductor of its contact group under its own address
   - MC sense   — analog criterion: selected/sneak current ratio >= 10

   The analytic and MC-window columns must agree within sampling error
   (they share the model); the electrical and analog columns are
   independent implementations and validate the abstraction. *)

open Nanodec_codes
open Nanodec_numerics
open Nanodec_crossbar

let () =
  let samples =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 300
  in
  Printf.printf
    "cross-model cave-yield validation (%d samples per MC column)\n\n"
    samples;
  Printf.printf "%-6s %-4s %-10s %-16s %-16s %-16s\n" "code" "M" "analytic"
    "MC window" "MC unique" "MC sense";
  let rng = Rng.create ~seed:20090726 in
  List.iter
    (fun (code_type, code_length) ->
      let analysis =
        Cave.analyze
          { Cave.default_config with Cave.code_type; code_length }
      in
      let window = Cave.mc_yield_window_par (Rng.split rng) ~samples analysis in
      let unique =
        Cave.mc_yield_functional (Rng.split rng) ~samples analysis
      in
      let sense = Sensing.mc_sense_yield (Rng.split rng) ~samples analysis in
      let cell e =
        Printf.sprintf "%.3f +/- %.3f" e.Montecarlo.mean
          (2. *. e.Montecarlo.std_error)
      in
      Printf.printf "%-6s %-4d %-10.3f %-16s %-16s %-16s\n"
        (Codebook.name code_type)
        code_length analysis.Cave.yield (cell window) (cell unique)
        (cell sense))
    [
      (Codebook.Tree, 6);
      (Codebook.Tree, 8);
      (Codebook.Tree, 10);
      (Codebook.Balanced_gray, 6);
      (Codebook.Balanced_gray, 8);
      (Codebook.Balanced_gray, 10);
      (Codebook.Hot, 4);
      (Codebook.Hot, 6);
      (Codebook.Hot, 8);
      (Codebook.Arranged_hot, 4);
      (Codebook.Arranged_hot, 6);
      (Codebook.Arranged_hot, 8);
    ];
  print_endline
    "\nanalytic and MC-window share the model and must agree within \
     sampling error;\nMC-unique and MC-sense are independent criteria \
     validating the window abstraction."
