type t = {
  mutable state : int64;
  (* PCG stream selector; must be odd.  Mutable only for [copy_into]'s
     zero-allocation scratch reuse; nothing else ever writes it. *)
  mutable increment : int64;
  (* Cached second Gaussian from the polar method. *)
  mutable spare : float option;
}

(* SplitMix64 — used only to expand the user seed into well-mixed initial
   state and stream words. *)
let splitmix64 seed =
  let z = Int64.add seed 0x9E3779B97F4A7C15L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let pcg_multiplier = 6364136223846793005L

let make ~state ~stream =
  let increment = Int64.logor (Int64.shift_left stream 1) 1L in
  let rng = { state = 0L; increment; spare = None } in
  rng.state <- Int64.add state increment;
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

let advance rng =
  rng.state <- Int64.add (Int64.mul rng.state pcg_multiplier) rng.increment

(* PCG-XSH-RR output function. *)
let output state =
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

let uint32 rng =
  let s = rng.state in
  advance rng;
  output s

let split rng =
  let state_word =
    Int64.logor (Int64.of_int (uint32 rng)) (Int64.shift_left (Int64.of_int (uint32 rng)) 32)
  in
  let stream_word =
    Int64.logor (Int64.of_int (uint32 rng)) (Int64.shift_left (Int64.of_int (uint32 rng)) 32)
  in
  make ~state:(splitmix64 state_word) ~stream:(splitmix64 stream_word)

let split_n rng n =
  if n < 0 then invalid_arg "Rng.split_n: negative count";
  Array.init n (fun _ -> split rng)

let copy rng = { rng with state = rng.state }

(* Overwrite [into] with [src]'s full state (stream selector and polar
   spare included): the scratch-reuse form of [copy] for per-sample hot
   loops, where a fresh record per sample would be pure garbage.  [src]
   is not touched. *)
let copy_into src ~into =
  into.state <- src.state;
  into.increment <- src.increment;
  into.spare <- src.spare

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

let float rng = float_of_int (uint32 rng) *. 0x1p-32

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
    match rng.spare with
    | Some z ->
      rng.spare <- None;
      z
    | None ->
      let z1, z2 = polar_pair rng in
      rng.spare <- Some z2;
      z1
  in
  mu +. (sigma *. z)

(* The fused Gaussian loop's C stub reads and writes float arrays
   through Double_flat_field, which assumes the flat representation; a
   runtime configured without it would silently corrupt memory. *)
let () =
  if Obj.tag (Obj.repr (Array.make 1 0.)) <> Obj.double_array_tag then
    failwith "Rng: float arrays are not flat; the Fast stub needs them flat"

(* Hot-loop mirror of the generator.  The public [t] keeps its friendly
   representation (boxed int64 fields, [float option] spare) because every
   existing consumer — and the bit-for-bit determinism contract — depends
   on it; the mirror trades that for one unboxed Bigarray that the C
   side (rng_stubs.c) reads and writes in place.  The output stream is
   the same PCG-XSH-RR / Marsaglia polar sequence, bit-for-bit: [load]
   then any number of draws then [store] leaves the source generator
   exactly where the equivalent [gaussian] calls would have. *)
module Fast = struct
  type rng = t

  (* [|state; increment; has_spare; spare|]: the PCG state and odd
     stream increment, 1 when the last word holds the polar method's
     cached second variate (as IEEE bits), else 0.  One flat block the
     C side reads and writes in place. *)
  type t = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

  let create () =
    let fast = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout 4 in
    Bigarray.Array1.fill fast 0L;
    fast

  let load (fast : t) (rng : rng) =
    Bigarray.Array1.unsafe_set fast 0 rng.state;
    Bigarray.Array1.unsafe_set fast 1 rng.increment;
    match rng.spare with
    | Some z ->
      Bigarray.Array1.unsafe_set fast 2 1L;
      Bigarray.Array1.unsafe_set fast 3 (Int64.bits_of_float z)
    | None -> Bigarray.Array1.unsafe_set fast 2 0L

  let store (fast : t) (rng : rng) =
    rng.state <- Bigarray.Array1.unsafe_get fast 0;
    rng.spare <-
      (if Bigarray.Array1.unsafe_get fast 2 <> 0L then
         Some (Int64.float_of_bits (Bigarray.Array1.unsafe_get fast 3))
       else None)

  external float : t -> (float[@unboxed])
    = "nanodec_rng_fast_float_byte" "nanodec_rng_fast_float"
  [@@noalloc]

  external add_gaussians :
    t -> sigma:(float[@unboxed]) -> int array -> float array -> unit
    = "nanodec_rng_add_gaussians_byte" "nanodec_rng_add_gaussians"
  [@@noalloc]
end

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
