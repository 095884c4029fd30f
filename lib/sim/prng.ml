(* The state lives unboxed in 8 bytes: an [int64] record field would be
   a freshly boxed value on every draw (no flambda to unbox it), and the
   erb kernels draw 2-3 coins per heated dot.  The byte order is native;
   nothing marshals a generator, so only the state's value matters. *)
type t = Bytes.t

let golden = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (Int64.of_int seed)
let copy = Bytes.copy

(* The splitmix64 output finalizer, used as a mixing function. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Decorrelated per-index stream: double-mixing (seed, index) places the
   streams far apart in splitmix64's state space, unlike seeding with
   [seed + index] (which would make stream [i] a one-step shift of
   stream [i+1]).  A pure function of (seed, index), so fleet shards can
   derive device streams independently of worker count or order. *)
let stream ~seed index =
  of_state (mix (Int64.logxor (Int64.of_int seed) (mix (Int64.of_int index))))

let[@inline] bits64 t =
  let z = Int64.add (Bytes.get_int64_ne t 0) golden in
  Bytes.set_int64_ne t 0 z;
  mix z

let split t = of_state (bits64 t)

let int t n =
  if n <= 0 then invalid_arg "Prng.int: bound must be positive";
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  v mod n

let uniform t =
  (* 53 random bits scaled into [0, 1). *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
  float_of_int v /. 9007199254740992.

let float t x = uniform t *. x
let[@inline] bool t = Int64.logand (bits64 t) 1L = 1L

let bernoulli t p =
  if p <= 0. then false else if p >= 1. then true else uniform t < p

let exponential t mean =
  let u = 1. -. uniform t in
  -.mean *. log u

let gaussian t ~mu ~sigma =
  let u1 = 1. -. uniform t and u2 = uniform t in
  mu +. (sigma *. sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
