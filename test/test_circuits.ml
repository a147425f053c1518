(* Tests for the circuit-level extensions: address book, defect maps
   and the crossbar memory, and analog sensing. *)

open Nanodec_codes
open Nanodec_numerics
open Nanodec_physics
open Nanodec_crossbar

(* --- Address_space --- *)

let analysis = Cave.analyze Cave.default_config

let book = Address_space.build analysis ~wires:100

let test_address_book_coverage () =
  Alcotest.(check int) "wires" 100 (Address_space.n_wires book);
  (* Default config: omega 32 >= 20 wires per half cave, single pad, no
     removals: every wire addressable. *)
  Alcotest.(check int) "all addressable" 100
    (List.length (Address_space.addressable_wires book))

let test_address_roundtrip () =
  List.iter
    (fun w ->
      match Address_space.address_of_wire book w with
      | None -> Alcotest.failf "wire %d has no address" w
      | Some address ->
        (match Address_space.wire_of_address book address with
        | Some w' -> Alcotest.(check int) "inverse" w w'
        | None -> Alcotest.failf "address of wire %d not found" w))
    (Address_space.addressable_wires book)

let test_address_structure () =
  (* Wire 0 is in cave 0 half 0; wire 20 in cave 0 half 1; wire 40 in
     cave 1 half 0 (20 wires per half cave). *)
  let expect w cave half =
    match Address_space.address_of_wire book w with
    | Some a ->
      Alcotest.(check int) "cave" cave a.Address_space.cave;
      Alcotest.(check int) "half" half a.Address_space.half
    | None -> Alcotest.failf "wire %d missing" w
  in
  expect 0 0 0;
  expect 20 0 1;
  expect 40 1 0;
  expect 99 2 0

let test_addresses_unique () =
  let texts =
    List.filter_map
      (fun w ->
        Option.map
          (fun a -> Format.asprintf "%a" Address_space.pp_address a)
          (Address_space.address_of_wire book w))
      (Address_space.addressable_wires book)
  in
  Alcotest.(check int) "distinct addresses"
    (List.length texts)
    (List.length (List.sort_uniq String.compare texts))

let test_removed_wires_have_no_address () =
  let config = { Cave.default_config with Cave.code_type = Codebook.Tree; code_length = 6 } in
  let a = Cave.analyze config in
  let b = Address_space.build a ~wires:40 in
  let expected =
    2 * Geometry.n_addressable a.Cave.layout
  in
  Alcotest.(check int) "layout losses excluded" expected
    (List.length (Address_space.addressable_wires b))

let test_mesowire_voltages () =
  let levels = Vt_levels.make ~radix:2 () in
  match Address_space.address_of_wire book 0 with
  | None -> Alcotest.fail "wire 0"
  | Some address ->
    let voltages = Address_space.mesowire_voltages levels address in
    Alcotest.(check int) "M voltages" 10 (Array.length voltages);
    Array.iteri
      (fun j v ->
        Alcotest.(check (float 1e-9))
          (Printf.sprintf "voltage %d" j)
          (Addressing.applied_voltage levels (Word.get address.Address_space.word j))
          v)
      voltages

(* A layout with several contact groups and layout losses: tree code,
   M = 6, so omega is small against the half cave. *)
let tree_analysis =
  Cave.analyze
    { Cave.default_config with Cave.code_type = Codebook.Tree; code_length = 6 }

let tree_book = Address_space.build tree_analysis ~wires:40

let test_address_guards () =
  let raises what f =
    Alcotest.(check bool) what true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  raises "no wires" (fun () -> Address_space.build analysis ~wires:0);
  raises "negative wire" (fun () -> Address_space.address_of_wire book (-1));
  raises "wire past the layer" (fun () ->
      Address_space.address_of_wire book (Address_space.n_wires book))

let test_foreign_address_unaddressed () =
  (* 100 wires = caves 0, 1 and the first half of cave 2. *)
  let address w =
    match Address_space.address_of_wire book w with
    | Some a -> a
    | None -> Alcotest.failf "wire %d missing" w
  in
  let a0 = address 0 and a99 = address 99 in
  let none what a =
    Alcotest.(check (option int)) what None (Address_space.wire_of_address book a)
  in
  none "cave past the layer" { a0 with Address_space.cave = 3 };
  none "half cave past the layer" { a99 with Address_space.half = 1 };
  none "contact group that does not exist" { a0 with Address_space.pad = a0.pad + 1 }

let test_addressable_wires_ascending_with_losses () =
  let wires = Address_space.addressable_wires tree_book in
  let rec strictly_ascending = function
    | a :: (b :: _ as rest) -> a < b && strictly_ascending rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "ascending" true (strictly_ascending wires);
  Alcotest.(check bool) "some wires lost to the layout" true
    (List.length wires < Address_space.n_wires tree_book);
  for w = 0 to Address_space.n_wires tree_book - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "wire %d listed iff addressed" w)
      (List.mem w wires)
      (Address_space.address_of_wire tree_book w <> None)
  done

(* The paper's claim: every wire gets a deterministic address, and
   applying that address turns on exactly that wire of its contact
   group. *)
let check_address_selects_its_wire book =
  let group_of a =
    List.filter_map
      (fun w ->
        match Address_space.address_of_wire book w with
        | Some b
          when b.Address_space.cave = a.Address_space.cave
               && b.half = a.half && b.pad = a.pad ->
          Some b.word
        | Some _ | None -> None)
      (Address_space.addressable_wires book)
  in
  List.iter
    (fun w ->
      match Address_space.address_of_wire book w with
      | None -> Alcotest.failf "wire %d missing" w
      | Some a ->
        let selected =
          Addressing.addressed_nominal ~group:(group_of a) ~address:a.word
        in
        Alcotest.(check bool)
          (Printf.sprintf "wire %d alone conducts" w)
          true
          (match selected with
          | Some word -> Word.equal word a.Address_space.word
          | None -> false))
    (Address_space.addressable_wires book)

let test_address_selects_its_wire () =
  check_address_selects_its_wire book;
  check_address_selects_its_wire tree_book

let test_defect_map_agrees_with_address_book () =
  let rng = Rng.create ~seed:47 in
  let states = Defect_map.sample_layer rng tree_analysis ~wires:40 in
  Array.iteri
    (fun w state ->
      Alcotest.(check bool)
        (Printf.sprintf "wire %d: layout loss iff unaddressed" w)
        (state = Defect_map.Removed_by_layout)
        (Address_space.address_of_wire tree_book w = None))
    states

(* --- Defect maps and the crossbar memory --- *)

let small_memory seed =
  let config =
    {
      Array_sim.cave = { Cave.default_config with Cave.n_wires = 10 };
      raw_bits = 4096;
    }
  in
  Memory.create (Rng.create ~seed) config

let test_usable_indices_are_working_wires () =
  let memory = small_memory 48 in
  let states = Memory.row_states memory in
  let usable = Defect_map.usable_indices states in
  let working =
    List.filter
      (fun i -> states.(i) = Defect_map.Working)
      (List.init (Array.length states) Fun.id)
  in
  Alcotest.(check (list int)) "ascending working wires" working
    (Array.to_list usable);
  Alcotest.(check (float 1e-12)) "layer yield"
    (float_of_int (Array.length usable) /. float_of_int (Array.length states))
    (Defect_map.layer_yield states)

let test_memory_realized_yield () =
  let memory = small_memory 49 in
  let rows = Memory.row_states memory and cols = Memory.col_states memory in
  let n_working states = Array.length (Defect_map.usable_indices states) in
  let usable = n_working rows * n_working cols in
  Alcotest.(check int) "usable = working rows x working cols" usable
    (Memory.usable_crosspoints memory);
  Alcotest.(check (float 1e-12)) "realized yield"
    (float_of_int usable
    /. float_of_int (Memory.n_rows memory * Memory.n_cols memory))
    (Memory.realized_yield memory);
  for row = 0 to Memory.n_rows memory - 1 do
    for col = 0 to Memory.n_cols memory - 1 do
      let expected =
        rows.(row) = Defect_map.Working && cols.(col) = Defect_map.Working
      in
      if Memory.crosspoint_usable memory ~row ~col <> expected then
        Alcotest.failf "crosspoint (%d,%d) usable = %b" row col (not expected)
    done
  done

let test_defect_map_rendering () =
  let states =
    [| Defect_map.Working; Removed_by_layout; Failed_variability; Working |]
  in
  Alcotest.(check string) "legend" "#.x#"
    (Format.asprintf "%a" Defect_map.pp_row states)

let prop_address_book_roundtrip =
  (* Any layer length, on both layouts: addressed wires invert, and the
     unaddressed ones are exactly the layout's losses, tile by tile. *)
  QCheck.Test.make ~name:"address book inverts on any layer length" ~count:50
    QCheck.(pair bool (int_range 1 200))
    (fun (tree, wires) ->
      let a = if tree then tree_analysis else analysis in
      let book = Address_space.build a ~wires in
      let n = a.Cave.config.Cave.n_wires in
      List.for_all
        (fun w ->
          match Address_space.address_of_wire book w with
          | Some address -> Address_space.wire_of_address book address = Some w
          | None -> (
            match a.Cave.layout.Geometry.statuses.(w mod n) with
            | Geometry.Addressable _ -> false
            | Geometry.Shared_between_pads _ | Geometry.Excess_in_pad _ -> true))
        (List.init wires Fun.id))

(* --- Sensing --- *)

let sp = Sensing.default_params
let levels = Vt_levels.make ~radix:2 ()

let test_region_conductance_regimes () =
  let on =
    Sensing.region_conductance sp ~gate_voltage:1.3 ~threshold_voltage:0.9
  in
  let off =
    Sensing.region_conductance sp ~gate_voltage:0.5 ~threshold_voltage:0.9
  in
  Alcotest.(check (float 1e-12)) "linear region" (1e-6 *. 0.4) on;
  Alcotest.(check bool) "off is positive but tiny" true (off > 0. && off < on /. 100.)

let test_conductance_continuous_at_threshold () =
  let just_above =
    Sensing.region_conductance sp ~gate_voltage:0.900001 ~threshold_voltage:0.9
  in
  let just_below =
    Sensing.region_conductance sp ~gate_voltage:0.899999 ~threshold_voltage:0.9
  in
  Alcotest.(check bool) "no big jump" true
    (Float.abs (just_above -. just_below) < 2. *. 1e-6 *. sp.Sensing.subthreshold_swing)

let test_wire_conductance_series () =
  let word = Word.of_string ~radix:2 "01" in
  let g =
    Sensing.wire_conductance sp levels ~address:word ~vt_offsets:[| 0.; 0. |]
      word
  in
  (* Two series regions each with overdrive sep/2 = 0.4 V. *)
  let per_region = 1e-6 *. 0.4 in
  Alcotest.(check (float 1e-12)) "series halves" (per_region /. 2.) g

let test_sense_ratio_nominal () =
  let group =
    List.map
      (fun w -> (w, [| 0.; 0.; 0.; 0.; 0.; 0. |]))
      (Codebook.sequence ~radix:2 ~length:6 ~count:8 Codebook.Gray)
  in
  let target = List.nth (List.map fst group) 3 in
  let ratio = Sensing.sense_ratio sp levels ~group ~target in
  Alcotest.(check bool) "nominal ratio is large" true (ratio > 100.)

let test_sense_ratio_degrades_with_noise () =
  (* Give every competitor a large negative V_T shift: sneak conduction
     rises, ratio falls. *)
  let words = Codebook.sequence ~radix:2 ~length:6 ~count:8 Codebook.Gray in
  let clean = List.map (fun w -> (w, Array.make 6 0.)) words in
  let target = List.nth words 3 in
  let noisy =
    List.map
      (fun w ->
        if Word.equal w target then (w, Array.make 6 0.)
        else (w, Array.make 6 (-0.6)))
      words
  in
  let clean_ratio = Sensing.sense_ratio sp levels ~group:clean ~target in
  let noisy_ratio = Sensing.sense_ratio sp levels ~group:noisy ~target in
  Alcotest.(check bool) "noise hurts" true (noisy_ratio < clean_ratio /. 10.)

let test_sense_ratio_guards () =
  let group = [ (Word.of_string ~radix:2 "01", [| 0.; 0. |]) ] in
  Alcotest.(check bool) "single wire: infinite" true
    (Sensing.sense_ratio sp levels ~group
       ~target:(Word.of_string ~radix:2 "01")
    = infinity);
  Alcotest.check_raises "missing target"
    (Invalid_argument "Sensing.sense_ratio: target not in group") (fun () ->
      ignore
        (Sensing.sense_ratio sp levels ~group
           ~target:(Word.of_string ~radix:2 "10")))

let test_mc_sense_yield_tracks_window_model () =
  let a =
    Cave.analyze { Cave.default_config with Cave.n_wires = 12; code_length = 8 }
  in
  let rng = Rng.create ~seed:31 in
  let sense = Sensing.mc_sense_yield rng ~samples:150 a in
  (* The analog criterion is an independent model; it should land within
     ~15 points of the analytic window yield on the default platform. *)
  Alcotest.(check bool) "same ballpark" true
    (Float.abs (sense.Montecarlo.mean -. a.Cave.yield) < 0.15)

let suite =
  [
    Alcotest.test_case "address book coverage" `Quick test_address_book_coverage;
    Alcotest.test_case "address roundtrip" `Quick test_address_roundtrip;
    Alcotest.test_case "address structure" `Quick test_address_structure;
    Alcotest.test_case "addresses unique" `Quick test_addresses_unique;
    Alcotest.test_case "removed wires unaddressed" `Quick
      test_removed_wires_have_no_address;
    Alcotest.test_case "mesowire voltages" `Quick test_mesowire_voltages;
    Alcotest.test_case "address guards" `Quick test_address_guards;
    Alcotest.test_case "foreign address unaddressed" `Quick
      test_foreign_address_unaddressed;
    Alcotest.test_case "addressable wires ascending" `Quick
      test_addressable_wires_ascending_with_losses;
    Alcotest.test_case "address selects its wire" `Quick
      test_address_selects_its_wire;
    Alcotest.test_case "defect map = address book" `Quick
      test_defect_map_agrees_with_address_book;
    Alcotest.test_case "usable indices" `Quick
      test_usable_indices_are_working_wires;
    Alcotest.test_case "memory realized yield" `Quick test_memory_realized_yield;
    Alcotest.test_case "defect map rendering" `Quick test_defect_map_rendering;
    QCheck_alcotest.to_alcotest prop_address_book_roundtrip;
    Alcotest.test_case "conductance regimes" `Quick
      test_region_conductance_regimes;
    Alcotest.test_case "conductance continuity" `Quick
      test_conductance_continuous_at_threshold;
    Alcotest.test_case "series conductance" `Quick test_wire_conductance_series;
    Alcotest.test_case "sense ratio nominal" `Quick test_sense_ratio_nominal;
    Alcotest.test_case "sense ratio vs noise" `Quick
      test_sense_ratio_degrades_with_noise;
    Alcotest.test_case "sense ratio guards" `Quick test_sense_ratio_guards;
    Alcotest.test_case "sense yield ~ window yield" `Slow
      test_mc_sense_yield_tracks_window_model;
  ]
