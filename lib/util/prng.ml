(* The 64-bit state lives unboxed in 8 bytes: an [int64] record field
   would be a boxed value, so every draw would allocate a fresh state. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

(* SplitMix64 finalizer: two xor-shift-multiply rounds. *)
let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state s =
  let g = Bytes.create 8 in
  Bytes.set_int64_ne g 0 s;
  g

let create seed = of_state (mix (Int64.of_int seed))

let copy = Bytes.copy

let[@inline] bits64 g =
  let s = Int64.add (Bytes.get_int64_ne g 0) golden_gamma in
  Bytes.set_int64_ne g 0 s;
  mix s

let split g = of_state (bits64 g)

(* Non-negative 62-bit int from the high bits. *)
let bits g = Int64.to_int (Int64.shift_right_logical (bits64 g) 2)

(* Rejection sampling to avoid modulo bias.  A top-level loop, not a
   local closure, so a draw allocates nothing. *)
let rec below g n =
  let r = bits g land 0x3FFF_FFFF_FFFF_FFFF in
  let v = r mod n in
  if r - v + (n - 1) < 0 then below g n else v

let int g n =
  if n <= 0 then invalid_arg "Prng.int: bound must be positive";
  below g n

let[@inline] uniform g =
  (* 53 random bits into [0,1). *)
  let r = Int64.to_int (Int64.shift_right_logical (bits64 g) 11) in
  float_of_int r *. 0x1p-53

(* [uniform g] is exactly r·2⁻⁵³ for the 53-bit [r] it draws, so
   [uniform g < p] holds exactly when r < p·2⁵³, that is when
   r < ⌈p·2⁵³⌉: the scaling by a power of two is exact, and so is the
   ceiling's conversion, since it is at most 2⁵³. *)
let bernoulli_threshold p =
  if not (p >= 0. && p <= 1.) then invalid_arg "Prng.bernoulli_threshold: p must be in [0, 1]";
  int_of_float (Float.ceil (p *. 0x1p53))

let bernoulli g threshold = Int64.to_int (Int64.shift_right_logical (bits64 g) 11) < threshold

let float g x = uniform g *. x

let bool g = Int64.compare (Int64.logand (bits64 g) 1L) 0L <> 0

let range g lo hi = lo +. (uniform g *. (hi -. lo))

let gaussian g ~mean ~stddev =
  let rec nonzero () =
    let u = uniform g in
    if u > 0. then u else nonzero ()
  in
  let u1 = nonzero () and u2 = uniform g in
  let r = sqrt (-2. *. log u1) in
  mean +. (stddev *. r *. cos (2. *. Float.pi *. u2))

let exponential g ~rate =
  if rate <= 0. then invalid_arg "Prng.exponential: rate must be positive";
  let rec nonzero () =
    let u = uniform g in
    if u > 0. then u else nonzero ()
  in
  -.log (nonzero ()) /. rate

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_without_replacement g k n =
  if k < 0 || k > n then invalid_arg "Prng.sample_without_replacement";
  (* Partial Fisher–Yates over an index array. *)
  let idx = Array.init n Fun.id in
  for i = 0 to k - 1 do
    let j = i + int g (n - i) in
    let tmp = idx.(i) in
    idx.(i) <- idx.(j);
    idx.(j) <- tmp
  done;
  Array.sub idx 0 k
