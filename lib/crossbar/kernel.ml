open Nanodec_numerics
open Nanodec_mspt

type t = {
  n : int;
  m : int;
  cells : int;
  sigma_t : float;
  sigma_base : float;
  window : float;
  usable : bool array;
  n_passes : int;
  pass_after : int array;
  pass_off : int array;
  pass_regions : int array;
  targets : int array;
  plane : int array;
      (* identity indices 0..cells-1: the base-fluctuation sweep as a
         target list, so both noise stages run the same fused loop *)
  draws_per_sample : int;
  (* --- variance-reduction tables, all compile-time ---
     Per-cell total noise scale sigma_c = sqrt(nu_c sigma_t^2 +
     sigma_base^2) where nu_c counts the implant doses landing on cell
     c; cells are independent, so each strategy may redraw a cell's
     {e total} from N(0, sigma_c^2) in place of the dose-by-dose sum —
     equal in law, different stream. *)
  cell_sigma : float array;
  noisy_cols : int array array;
      (* per wire, the columns j of its row with cell_sigma > 0, in
         ascending order: the importance draw's Gaussian targets *)
  inv_sigma2 : float array;  (* 1/sigma_c^2, 0 for noiseless cells *)
  alpha : float array;
      (* importance mixture weight of cell c within its wire's row:
         proportional to the cell's marginal failure probability
         2*Phi(-w/sigma_c), normalized per usable wire (uniform over
         the noisy cells when every p underflows); 0 on non-usable
         wires and noiseless cells *)
  alpha_cdf : float array;  (* running per-row sums of [alpha] *)
  n_usable : int;
  strat_cell : int;
      (* globally dominant cell: max sigma_c over usable wires, the
         axis stratified sampling conditions on; -1 when no usable
         wire has a noisy cell *)
  strat_sigma : float;
}

(* One scratch per domain, shared by every kernel that domain runs: a
   draw never yields mid-body, so nothing else can touch the buffer
   while it is in use, and the noise plane is refilled from zero at the
   top of each draw.  The buffer grows to the largest kernel seen. *)
type scratch = { mutable noise : float array }

let workspace : scratch Nanodec_parallel.Workspace.t =
  Nanodec_parallel.Workspace.create (fun () -> { noise = [||] })

(* Total implant draws of one sample: pass p hits wires 0..after_wire(p)
   in each masked region. *)
let implant_draw_count passes n_regions =
  List.fold_left
    (fun acc p ->
      let hits = ref 0 in
      for j = 0 to n_regions - 1 do
        if p.Process.mask.(j) then incr hits
      done;
      acc + ((p.Process.after_wire + 1) * !hits))
    0 passes

let compile ~n_wires ~n_regions ~sigma_t ~sigma_base ~window ~usable passes =
  if n_wires < 1 || n_regions < 1 then
    invalid_arg "Kernel.compile: bad cave geometry";
  if sigma_t <= 0. then invalid_arg "Kernel.compile: sigma_t must be positive";
  if sigma_base < 0. then invalid_arg "Kernel.compile: sigma_base must be >= 0";
  if not (window > 0.) then invalid_arg "Kernel.compile: window must be positive";
  if Array.length usable <> n_wires then
    invalid_arg "Kernel.compile: usable flags length mismatch";
  List.iter
    (fun p ->
      if p.Process.after_wire < 0 || p.Process.after_wire >= n_wires then
        invalid_arg "Kernel.compile: pass outside cave";
      if Array.length p.Process.mask <> n_regions then
        invalid_arg "Kernel.compile: mask length mismatch")
    passes;
  (* Same ordering as [Process.fold_passes]: fabrication order, i.e. a
     stable sort on after_wire that preserves the input pass order within
     a step.  The draw below replays the reference Gaussian sequence, so
     this order is part of the bit-for-bit contract. *)
  let ordered =
    List.stable_sort
      (fun a b -> Int.compare a.Process.after_wire b.Process.after_wire)
      passes
  in
  let n_passes = List.length ordered in
  let pass_after = Array.make (max n_passes 1) 0 in
  let pass_off = Array.make (n_passes + 1) 0 in
  let regions = ref [] in
  let total = ref 0 in
  List.iteri
    (fun p pass ->
      pass_after.(p) <- pass.Process.after_wire;
      pass_off.(p) <- !total;
      for j = 0 to n_regions - 1 do
        if pass.Process.mask.(j) then begin
          regions := j :: !regions;
          incr total
        end
      done)
    ordered;
  pass_off.(n_passes) <- !total;
  let pass_regions = Array.of_list (List.rev !regions) in
  (* Flatten the whole implant program into one index array: pass p doses
     wires 0..after_wire(p) in its masked regions, so every Gaussian draw
     of a sample maps to one precomputed cell index.  The expansion is
     bounded by (number of passes) × n_wires × n_regions — kilobytes for
     paper-scale caves — and turns the inner loop into a single linear
     sweep. *)
  let targets = Array.make (implant_draw_count ordered n_regions) 0 in
  let pos = ref 0 in
  List.iter
    (fun pass ->
      for wire = 0 to pass.Process.after_wire do
        let base = wire * n_regions in
        for j = 0 to n_regions - 1 do
          if pass.Process.mask.(j) then begin
            targets.(!pos) <- base + j;
            incr pos
          end
        done
      done)
    ordered;
  let cells = n_wires * n_regions in
  let cell_sigma = Array.make cells 0. in
  (* nu_c: implant doses per cell, read off the flattened program. *)
  Array.iter
    (fun c -> cell_sigma.(c) <- cell_sigma.(c) +. 1.)
    targets;
  for c = 0 to cells - 1 do
    cell_sigma.(c) <-
      sqrt ((cell_sigma.(c) *. sigma_t *. sigma_t) +. (sigma_base *. sigma_base))
  done;
  let noisy_cols =
    Array.init n_wires (fun i ->
        let cols = ref [] in
        for j = n_regions - 1 downto 0 do
          if cell_sigma.((i * n_regions) + j) > 0. then cols := j :: !cols
        done;
        Array.of_list !cols)
  in
  let plane = if sigma_base <> 0. then Array.init cells (fun i -> i) else [||] in
  (* [Rng.add_gaussians] writes through these indices unchecked
     (noise planes hold [cells] floats, an importance row [m]), so they
     are bounds-checked here, once per compile. *)
  let within bound a = Array.for_all (fun i -> 0 <= i && i < bound) a in
  if
    not
      (within cells targets && within cells plane
      && Array.for_all (within n_regions) noisy_cols)
  then invalid_arg "Kernel.compile: draw index outside the noise plane";
  let inv_sigma2 =
    Array.map (fun s -> if s > 0. then 1. /. (s *. s) else 0.) cell_sigma
  in
  let alpha = Array.make cells 0. in
  let alpha_cdf = Array.make cells 0. in
  let n_usable = ref 0 in
  let strat_cell = ref (-1) in
  for i = 0 to n_wires - 1 do
    if usable.(i) then begin
      incr n_usable;
      let base = i * n_regions in
      let row_sum = ref 0. in
      let noisy = ref 0 in
      for j = 0 to n_regions - 1 do
        let s = cell_sigma.(base + j) in
        if s > 0. then begin
          incr noisy;
          if
            !strat_cell < 0 || s > cell_sigma.(!strat_cell)
          then strat_cell := base + j;
          let p = 2. *. Special.normal_cdf (-.window /. s) in
          alpha.(base + j) <- p;
          row_sum := !row_sum +. p
        end
      done;
      if !noisy > 0 then begin
        let acc = ref 0. in
        for j = 0 to n_regions - 1 do
          let c = base + j in
          alpha.(c) <-
            (if !row_sum > 0. then alpha.(c) /. !row_sum
             else if cell_sigma.(c) > 0. then 1. /. float_of_int !noisy
             else 0.);
          acc := !acc +. alpha.(c);
          alpha_cdf.(c) <- !acc
        done;
        (* The last noisy cell's cdf is forced to 1 so the selection
           scan can never fall off the row on rounding. *)
        let last = ref (-1) in
        for j = 0 to n_regions - 1 do
          if alpha.(base + j) > 0. then last := base + j
        done;
        if !last >= 0 then alpha_cdf.(!last) <- 1.
      end
    end
  done;
  {
    n = n_wires;
    m = n_regions;
    cells;
    sigma_t;
    sigma_base;
    window;
    usable = Array.copy usable;
    n_passes;
    pass_after;
    pass_off;
    pass_regions;
    targets;
    plane;
    draws_per_sample =
      Array.length targets + (if sigma_base <> 0. then cells else 0);
    cell_sigma;
    noisy_cols;
    inv_sigma2;
    alpha;
    alpha_cdf;
    n_usable = !n_usable;
    strat_cell = !strat_cell;
    strat_sigma =
      (if !strat_cell >= 0 then cell_sigma.(!strat_cell) else 0.);
  }

let draws_per_sample k = k.draws_per_sample
let n_passes k = k.n_passes

let scratch_for k =
  let ws = Nanodec_parallel.Workspace.get workspace in
  if Array.length ws.noise < k.cells then ws.noise <- Array.make k.cells 0.;
  ws

let fill_noise k ws rng =
  Array.fill ws.noise 0 k.cells 0.;
  (* Implant noise: one sigma_t Gaussian per precompiled target cell, in
     the exact order [Process.sample_vt_noise] walks passes and regions. *)
  Rng.add_gaussians rng ~sigma:k.sigma_t k.targets ws.noise;
  (* Intrinsic noise: row-major plane sweep, gated exactly like the
     reference ([sigma_base <> 0.], not an epsilon test). *)
  if k.sigma_base <> 0. then
    Rng.add_gaussians rng ~sigma:k.sigma_base k.plane ws.noise

let scan_yield k noise =
  let good = ref 0 in
  let w = k.window in
  let m = k.m in
  for i = 0 to k.n - 1 do
    if Array.unsafe_get k.usable i then begin
      let base = i * m in
      let ok = ref true in
      let j = ref 0 in
      (* Early exit: the first region outside the window disqualifies
         the wire, no need to scan the rest of its row. *)
      while !ok && !j < m do
        if Float.abs (Array.unsafe_get noise (base + !j)) >= w then ok := false;
        incr j
      done;
      if !ok then incr good
    end
  done;
  float_of_int !good /. float_of_int k.n

let draw k rng =
  let ws = scratch_for k in
  fill_noise k ws rng;
  scan_yield k ws.noise

(* The window predicate is even in the noise vector (every comparison
   is on |z|), so an antithetic pair's average is the single draw's
   value exactly — the pair costs one set of Gaussians instead of two.
   Unbiasedness is the plain draw's; the variance reduction on this
   integrand is nil by symmetry, which the strategy oracle checks. *)
let draw_antithetic k rng = draw k rng

let draw_stratified k ~strata ~stratum rng =
  if k.strat_cell < 0 then draw k rng
  else begin
    let ws = scratch_for k in
    fill_noise k ws rng;
    (* One extra uniform places the dominant cell inside its stratum;
       the 2^-33 nudge keeps the quantile argument strictly inside
       (0, 1) even at u = 0. *)
    let u = Rng.float rng in
    let p =
      (float_of_int stratum +. u +. 0x1p-33) /. float_of_int strata
    in
    (* Replace the dominant cell's dose-by-dose sum with an equal-law
       stratified total: valid because cells are independent, so the
       conditional joint given the stratum factorizes. *)
    ws.noise.(k.strat_cell) <- Special.normal_quantile ~sigma:k.strat_sigma p;
    scan_yield k ws.noise
  end

let draw_importance k ~shift rng =
  let ws = scratch_for k in
  (* The scratch plane is reused as one wire's row of cell totals
     (m <= cells always): standard normals drawn into the noisy
     columns in ascending order, then scaled by cell_sigma — the same
     stream and the same products as one [sigma_c *. gaussian] per
     noisy cell. *)
  let noise = ws.noise in
  let mu = shift *. k.window in
  let w = k.window in
  let m = k.m in
  (* Unbiased failure mass: yield = (n_usable - sum_i B_i w_i) / n with
     B_i the wire-failure indicator under the proposal and w_i the
     exact inverse likelihood ratio of the per-wire mixture that
     shifted one alpha-chosen cell by +-mu. *)
  let fail_sum = ref 0. in
  for i = 0 to k.n - 1 do
    if Array.unsafe_get k.usable i then begin
      let base = i * m in
      (* A wire with no noisy cell can never fail: no draws, no term. *)
      if Array.unsafe_get k.alpha_cdf (base + m - 1) > 0. then begin
        let u = Rng.float rng in
        let sel = ref 0 in
        while u >= Array.unsafe_get k.alpha_cdf (base + !sel) do incr sel done;
        let sign = if Rng.float rng < 0.5 then 1. else -1. in
        Array.fill noise 0 m 0.;
        Rng.add_gaussians rng ~sigma:1. (Array.unsafe_get k.noisy_cols i)
          noise;
        let failed = ref false in
        for j = 0 to m - 1 do
          let c = base + j in
          let s = Array.unsafe_get k.cell_sigma c in
          let z =
            if s > 0. then begin
              let z = s *. Array.unsafe_get noise j in
              if j = !sel then z +. (sign *. mu) else z
            end
            else 0.
          in
          Array.unsafe_set noise j z;
          if Float.abs z >= w then failed := true
        done;
        if !failed then begin
          (* rho_c(z) = e^{-mu^2/(2 sigma_c^2)} cosh(mu z / sigma_c^2)
             is the symmetric-mixture density ratio of cell c; the
             proposal's ratio is the alpha-mixture of the rho terms.
             The selected cell's own term bounds the sum away from
             zero, so weights never explode. *)
          let r = ref 0. in
          for j = 0 to m - 1 do
            let c = base + j in
            let a = Array.unsafe_get k.alpha c in
            if a > 0. then begin
              let is2 = Array.unsafe_get k.inv_sigma2 c in
              let z = Array.unsafe_get noise j in
              r :=
                !r
                +. a
                   *. exp (-0.5 *. mu *. mu *. is2)
                   *. Float.cosh (mu *. z *. is2)
            end
          done;
          fail_sum := !fail_sum +. (1. /. !r)
        end
      end
    end
  done;
  (float_of_int k.n_usable -. !fail_sum) /. float_of_int k.n

let target k =
  Montecarlo.target ~antithetic:(draw_antithetic k)
    ~stratified:(fun ~strata ~stratum g -> draw_stratified k ~strata ~stratum g)
    ~importance:(fun ~shift g -> draw_importance k ~shift g)
    (draw k)
