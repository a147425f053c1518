open Nanodec_numerics

type t = {
  rows : Defect_map.wire_state array;
  cols : Defect_map.wire_state array;
  storage : Bytes.t;
}

type fault = [ `Defective_row | `Defective_column | `Out_of_range ]

let create rng config =
  let analysis = Cave.analyze config.Array_sim.cave in
  let wires =
    int_of_float (ceil (sqrt (float_of_int config.Array_sim.raw_bits)))
  in
  let rows = Defect_map.sample_layer (Rng.split rng) analysis ~wires in
  let cols = Defect_map.sample_layer (Rng.split rng) analysis ~wires in
  let bits = wires * wires in
  { rows; cols; storage = Bytes.make ((bits + 7) / 8) '\000' }

let n_rows t = Array.length t.rows
let n_cols t = Array.length t.cols
let row_states t = t.rows
let col_states t = t.cols

let working states =
  Array.length (Defect_map.usable_indices states)

let usable_crosspoints t = working t.rows * working t.cols

let realized_yield t =
  float_of_int (usable_crosspoints t)
  /. float_of_int (n_rows t * n_cols t)

let check t ~row ~col : (unit, fault) result =
  if row < 0 || row >= n_rows t || col < 0 || col >= n_cols t then
    Error `Out_of_range
  else
    match (t.rows.(row), t.cols.(col)) with
    | Defect_map.Working, Defect_map.Working -> Ok ()
    | (Defect_map.Removed_by_layout | Defect_map.Failed_variability), _ ->
      Error `Defective_row
    | Defect_map.Working,
      (Defect_map.Removed_by_layout | Defect_map.Failed_variability) ->
      Error `Defective_column

let bit_index t ~row ~col = (row * n_cols t) + col

let write t ~row ~col value =
  match check t ~row ~col with
  | Error _ as e -> e
  | Ok () ->
    let index = bit_index t ~row ~col in
    let byte = Bytes.get_uint8 t.storage (index / 8) in
    let mask = 1 lsl (index mod 8) in
    let byte = if value then byte lor mask else byte land lnot mask in
    Bytes.set_uint8 t.storage (index / 8) byte;
    Ok ()

let read t ~row ~col =
  match check t ~row ~col with
  | Error _ as e -> e
  | Ok () ->
    let index = bit_index t ~row ~col in
    let byte = Bytes.get_uint8 t.storage (index / 8) in
    Ok (byte land (1 lsl (index mod 8)) <> 0)

let crosspoint_usable t ~row ~col = Result.is_ok (check t ~row ~col)

let mc_realized_yield rng ~samples config =
  Montecarlo.run (Montecarlo.spec (Montecarlo.fixed samples)) rng
    (Montecarlo.target (fun rng -> realized_yield (create rng config)))
