(* The generator is one flat 32-byte block of four native-endian int64
   words, read and written in place both here and by the C loop in
   rng_stubs.c:
     [state_at]      PCG state;
     [increment_at]  PCG stream selector (odd);
     [has_spare_at]  1 when the polar method's second variate is cached,
                     else 0;
     [spare_at]      that cached variate, as IEEE bits. *)
type t = Bytes.t

let state_at = 0
let increment_at = 8
let has_spare_at = 16
let spare_at = 24
let size = 32

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* SplitMix64 — used only to expand seeds into well-mixed initial state
   and stream words.  Inlined so [split_into] keeps its int64s
   unboxed. *)
let[@inline] splitmix64 seed =
  let z = Int64.add seed 0x9E3779B97F4A7C15L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let pcg_multiplier = 6364136223846793005L

(* Aim [rng] at a fresh stream: no spare cached. *)
let[@inline] reset rng ~state ~stream =
  let increment = Int64.logor (Int64.shift_left stream 1) 1L in
  set64 rng state_at (Int64.add state increment);
  set64 rng increment_at increment;
  set64 rng has_spare_at 0L;
  set64 rng spare_at 0L

let make ~state ~stream =
  let rng = Bytes.create size in
  reset rng ~state ~stream;
  rng

let of_int64 seed =
  make ~state:(splitmix64 seed) ~stream:(splitmix64 (Int64.lognot seed))

let create ~seed = of_int64 (Int64.of_int seed)
let of_seed seed = create ~seed

let mix_seed a b =
  let z =
    Int64.add (Int64.of_int a)
      (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int (b + 1)))
  in
  (* Mask to 62 bits so the result survives an int_of_string round trip on
     any platform and stays non-negative. *)
  Int64.to_int (Int64.logand (splitmix64 z) 0x3FFFFFFFFFFFFFFFL)

(* PCG-XSH-RR output function. *)
let[@inline] output state =
  let xorshifted =
    Int64.to_int
      (Int64.logand
         (Int64.shift_right_logical
            (Int64.logxor (Int64.shift_right_logical state 18) state)
            27)
         0xFFFFFFFFL)
  in
  let rot = Int64.to_int (Int64.shift_right_logical state 59) in
  let rotated = (xorshifted lsr rot) lor (xorshifted lsl (32 - rot)) in
  rotated land 0xFFFFFFFF

let[@inline] uint32 rng =
  let s = get64 rng state_at in
  set64 rng state_at
    (Int64.add (Int64.mul s pcg_multiplier) (get64 rng increment_at));
  output s

(* Two successive draws as one 64-bit word, the first in the high half. *)
let[@inline] word64 rng =
  let hi = uint32 rng in
  let lo = uint32 rng in
  Int64.logor (Int64.of_int lo) (Int64.shift_left (Int64.of_int hi) 32)

let split_into rng ~into =
  let state_word = word64 rng in
  let stream_word = word64 rng in
  reset into ~state:(splitmix64 state_word) ~stream:(splitmix64 stream_word)

let split rng =
  let child = Bytes.create size in
  split_into rng ~into:child;
  child

(* Every split draws exactly four uniforms from its parent. *)
let skip_splits rng n =
  if n < 0 then invalid_arg "Rng.skip_splits: negative count";
  for _ = 1 to 4 * n do
    ignore (uint32 rng)
  done

let split_n rng n =
  if n < 0 then invalid_arg "Rng.split_n: negative count";
  Array.init n (fun _ -> split rng)

let copy = Bytes.copy

let two_pow_32 = 1 lsl 32

let int rng bound =
  if bound < 1 || bound > two_pow_32 then
    invalid_arg "Rng.int: bound must be in [1, 2^32]";
  if bound land (bound - 1) = 0 then uint32 rng land (bound - 1)
  else
    (* Rejection sampling over the largest multiple of [bound] below 2^32
       keeps the draw exactly uniform. *)
    let limit = two_pow_32 - (two_pow_32 mod bound) in
    let rec draw () =
      let x = uint32 rng in
      if x < limit then x mod bound else draw ()
    in
    draw ()

(* [float_of_int (uint32 rng) *. 0x1p-32], in C so that callers in
   other modules get an unboxed result. *)
external float : t -> (float[@unboxed])
  = "nanodec_rng_float_byte" "nanodec_rng_float"
[@@noalloc]

let float_range rng ~min ~max =
  if not (min < max) then invalid_arg "Rng.float_range: empty range";
  min +. ((max -. min) *. float rng)

let bool rng = uint32 rng land 1 = 1

let rec polar_pair rng =
  let u = (2. *. float rng) -. 1. in
  let v = (2. *. float rng) -. 1. in
  let s = (u *. u) +. (v *. v) in
  if s >= 1. || s = 0. then polar_pair rng
  else
    let factor = sqrt (-2. *. log s /. s) in
    (u *. factor, v *. factor)

let gaussian ?(mu = 0.) ?(sigma = 1.) rng =
  let z =
    if get64 rng has_spare_at <> 0L then begin
      set64 rng has_spare_at 0L;
      Int64.float_of_bits (get64 rng spare_at)
    end
    else begin
      let z1, z2 = polar_pair rng in
      set64 rng spare_at (Int64.bits_of_float z2);
      set64 rng has_spare_at 1L;
      z1
    end
  in
  mu +. (sigma *. z)

external add_gaussians :
  t -> sigma:(float[@unboxed]) -> int array -> float array -> unit
  = "nanodec_rng_add_gaussians_byte" "nanodec_rng_add_gaussians"
[@@noalloc]

(* The fused Gaussian loop's C stub reads and writes float arrays
   through Double_flat_field, which assumes the flat representation; a
   runtime configured without it would silently corrupt memory. *)
let () =
  if Obj.tag (Obj.repr (Array.make 1 0.)) <> Obj.double_array_tag then
    failwith "Rng: float arrays are not flat; the Gaussian stub needs them flat"

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let shuffle_list rng xs =
  let a = Array.of_list xs in
  shuffle rng a;
  Array.to_list a

let pick rng a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int rng (Array.length a))
