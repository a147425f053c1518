open Nanodec_codes
open Nanodec_numerics
open Nanodec_mspt
open Nanodec_crossbar

type spec = {
  cave : Cave.config;
  raw_bits : int;
}

let default_spec =
  { cave = Cave.default_config; raw_bits = 16 * 1024 * 8 }

let spec ?(base = default_spec) ?radix ?n_wires ~code_type ~code_length () =
  let cave =
    {
      base.cave with
      Cave.code_type;
      code_length;
      radix = Option.value ~default:base.cave.Cave.radix radix;
      n_wires = Option.value ~default:base.cave.Cave.n_wires n_wires;
    }
  in
  { base with cave }

let checked_spec ~what ~code_type ~code_length ~radix ~n_wires ~raw_bits =
  let check knob ~min ~max n =
    Nanodec_error.check_int_range ~what:(what knob) ~min ~max n
  in
  check "length" ~min:1 ~max:64 code_length;
  check "radix" ~min:2 ~max:16 radix;
  check "wires" ~min:1 ~max:10_000 n_wires;
  check "raw_bits" ~min:1 ~max:1_000_000_000 raw_bits;
  (match Codebook.validate_length ~radix ~length:code_length code_type with
  | Ok () -> ()
  | Error what -> Nanodec_error.(fail (Invalid_input { what; hint = None })));
  spec ~base:{ default_spec with raw_bits } ~radix ~n_wires ~code_type
    ~code_length ()

type report = {
  spec : spec;
  omega : int;
  phi : int;
  phi_per_wire : float;
  sigma_norm1 : float;
  average_nu : float;
  max_nu : int;
  pattern_transitions : int;
  cave_yield : float;
  crossbar_yield : float;
  effective_bits : float;
  bit_area : float;
  area : float;
  n_pads : int;
  removed_wires : int;
}

let evaluate spec =
  let array_report =
    Array_sim.evaluate { Array_sim.cave = spec.cave; raw_bits = spec.raw_bits }
  in
  let analysis = array_report.Array_sim.cave_analysis in
  let pattern = analysis.Cave.pattern in
  let nu = analysis.Cave.nu in
  let sigma_t = spec.cave.Cave.sigma_t in
  let layout = analysis.Cave.layout in
  {
    spec;
    omega = analysis.Cave.omega;
    phi = Complexity.total pattern;
    phi_per_wire =
      float_of_int (Complexity.total pattern)
      /. float_of_int (Pattern.n_wires pattern);
    sigma_norm1 = sigma_t *. sigma_t *. float_of_int (Imatrix.sum nu);
    average_nu = Variability.average_nu ~nu pattern;
    max_nu = Imatrix.max_entry nu;
    pattern_transitions = Pattern.total_transitions pattern;
    cave_yield = array_report.Array_sim.cave_yield;
    crossbar_yield = array_report.Array_sim.crossbar_yield;
    effective_bits = array_report.Array_sim.effective_bits;
    bit_area = array_report.Array_sim.bit_area;
    area = array_report.Array_sim.area;
    n_pads = layout.Geometry.n_pads;
    removed_wires = Geometry.n_shared layout + Geometry.n_excess layout;
  }

let pp_report ppf r =
  let c = r.spec.cave in
  Format.fprintf ppf
    "@[<v>design: %s, n=%d, M=%d (Omega=%d), N=%d wires/half-cave@,\
     fabrication: Phi=%d passes (%.2f per wire), %d pattern transitions@,\
     variability: ||Sigma||_1=%.4f V^2, mean nu=%.2f, max nu=%d@,\
     geometry: %d contact groups, %d wires removed@,\
     yield: Y=%.3f, crossbar yield=%.3f, D_EFF=%.0f/%d@,\
     area: %.3e nm^2 total, %.1f nm^2 per bit@]"
    (Codebook.long_name c.Cave.code_type)
    c.Cave.radix c.Cave.code_length r.omega c.Cave.n_wires r.phi
    r.phi_per_wire r.pattern_transitions r.sigma_norm1 r.average_nu r.max_nu
    r.n_pads r.removed_wires r.cave_yield r.crossbar_yield r.effective_bits
    r.spec.raw_bits r.area r.bit_area

let report_header =
  "code  n  M   Omega  Phi  avg_nu  Y      Y^2    bit_area  pads  removed"

let report_row r =
  let c = r.spec.cave in
  Printf.sprintf "%-5s %d  %-3d %-6d %-4d %-7.2f %-6.3f %-6.3f %-9.1f %-5d %d"
    (Codebook.name c.Cave.code_type)
    c.Cave.radix c.Cave.code_length r.omega r.phi r.average_nu r.cave_yield
    r.crossbar_yield r.bit_area r.n_pads r.removed_wires
