(* Clocks, order statistics and the result records every workload fills. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let fail fmt = Format.kasprintf failwith fmt

(* Linear-interpolated quantile of an unsorted sample ([q] in [0,1]) —
   the same definition as Python's [statistics.quantiles(method=
   'inclusive')], so figures on both sides of run.py agree. *)
let quantile (xs : float array) q =
  let n = Array.length xs in
  if n = 0 then 0.
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then s.(n - 1)
    else
      let f = pos -. float_of_int i in
      s.(i) +. (f *. (s.(i + 1) -. s.(i)))
  end

let median xs = quantile xs 0.5

let mean xs =
  if Array.length xs = 0 then 0.
  else Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

(* A growable float buffer (OCaml 5.1 has no Dynarray). *)
module Fbuf = struct
  type t = { mutable a : float array; mutable n : int }

  let create cap = { a = Array.make (max 16 cap) 0.; n = 0 }

  let add b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0. in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    Array.unsafe_set b.a b.n x;
    b.n <- b.n + 1

  let contents b = Array.sub b.a 0 b.n
end

(* A growable buffer of arbitrary values. *)
module Vbuf = struct
  type 'a t = { mutable a : 'a array; mutable n : int }

  let create () = { a = [||]; n = 0 }

  let add b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (max 16 (2 * b.n)) x in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    Array.unsafe_set b.a b.n x;
    b.n <- b.n + 1

  let contents b = Array.sub b.a 0 b.n
end

(* The oracle's tally: every checked outcome is an attempt; every
   disagreement with the shadow model is a failure, with the first few
   kept for the report. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable first_failures : string list;
}

let tally () = { attempted = 0; failed = 0; first_failures = [] }

let check tl ok what =
  tl.attempted <- tl.attempted + 1;
  if not ok then begin
    tl.failed <- tl.failed + 1;
    if List.length tl.first_failures < 5 then
      tl.first_failures <- Lazy.force what :: tl.first_failures
  end

(* One timed repeat of a workload: fresh set-up, untimed warm-up, then
   a fixed op stream. *)
type repeat = {
  ops : int;  (** Workload ops completed in the timed region. *)
  wall_s : float;
  op_wall_ns : float array;  (** Per-op wall latency, submit to response. *)
  sim_lat_s : float array;  (** Per-op simulated latency. *)
  sim_s : float;  (** Simulated seconds the timed region spanned. *)
  energy_j : float;  (** Sled energy over the timed region, all members. *)
  minor_words : float;
  live_words : int;  (** OCaml heap still live at the end of the timed region. *)
  setup_s : float;
  digest : string;  (** SHA-256 of every response/outcome, for determinism. *)
  oracle : tally;  (** Timed ops and tamper probes. *)
  probes : int;
  probes_detected : int;
}

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* What a workload gives [timed_repeat]: [prepare] builds the stack and
   runs the warm-up (timed as set-up); [run] executes the fixed op
   stream, adding each op's wall and simulated latency to the buffers;
   [probe] runs the tamper probes and returns (probes, detected). *)
type 'st timed = {
  prepare : unit -> 'st;
  run : 'st -> lat_wall:Fbuf.t -> lat_sim:Fbuf.t -> unit;
  sim_now : 'st -> float;
  energy : 'st -> float;
  probe : 'st -> int * int;
  digest : 'st -> string;
  oracle_of : 'st -> tally;
}

let timed_repeat w =
  let t0 = now_ns () in
  let st = w.prepare () in
  let setup_s = float_of_int (now_ns () - t0) /. 1e9 in
  let lat_wall = Fbuf.create 65536 and lat_sim = Fbuf.create 65536 in
  let e0 = w.energy st and sim0 = w.sim_now st in
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  w.run st ~lat_wall ~lat_sim;
  let t1 = now_ns () in
  let w1 = Gc.minor_words () in
  let live_words = live_words () in
  let sim_s = w.sim_now st -. sim0 and energy_j = w.energy st -. e0 in
  let op_wall_ns = Fbuf.contents lat_wall and sim_lat_s = Fbuf.contents lat_sim in
  let probes, probes_detected = w.probe st in
  {
    ops = Array.length op_wall_ns;
    wall_s = float_of_int (t1 - t0) /. 1e9;
    op_wall_ns;
    sim_lat_s;
    sim_s;
    energy_j;
    minor_words = w1 -. w0;
    live_words;
    setup_s;
    digest = w.digest st;
    oracle = w.oracle_of st;
    probes;
    probes_detected;
  }

let digest_of_buffer b = Hash.Sha256.to_hex (Hash.Sha256.digest_string (Buffer.contents b))

(* Payloads: 512 bytes, unique per (stream, counter), cheap to make —
   a 16-byte stamp over a rotating window of a seeded random pool. *)
let pool_of rng = String.init 1024 (fun _ -> Char.chr (Sim.Prng.int rng 256))

let make_payload pool ~stamp1 ~stamp2 =
  let b = Bytes.create 512 in
  let off = (stamp2 * 7) land 511 in
  Bytes.blit_string pool off b 0 512;
  Bytes.set_int64_le b 0 (Int64.of_int stamp1);
  Bytes.set_int64_le b 8 (Int64.of_int stamp2);
  Bytes.unsafe_to_string b

(* A shuffled deck of op kinds, reshuffled when exhausted: the mix is
   exact over every deck, so two seeds differ in addresses and order, not
   in how many of each op they run. *)
type 'a deck = { cards : 'a array; drng : Sim.Prng.t; mutable next : int }

let deck rng spec =
  let cards = Array.concat (List.map (fun (k, n) -> Array.make n k) spec) in
  Sim.Prng.shuffle rng cards;
  { cards; drng = rng; next = 0 }

let draw d =
  if d.next = Array.length d.cards then begin
    Sim.Prng.shuffle d.drng d.cards;
    d.next <- 0
  end;
  d.next <- d.next + 1;
  d.cards.(d.next - 1)

(* Zipf over [n] items, mapped through a seeded permutation so the hot
   set is scattered over the address space instead of packed into the
   first lines. *)
type zipf = { z : Workload.Zipf.t; perm : int array }

let zipf rng ~n ~theta =
  let perm = Array.init n Fun.id in
  Sim.Prng.shuffle rng perm;
  { z = Workload.Zipf.create ~n ~theta; perm }

let zipf_sample zp rng = zp.perm.(Workload.Zipf.sample zp.z rng)
