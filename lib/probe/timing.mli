(** Cost model and simulated time/energy ledger for the probe device.

    The paper gives no measured device timings (the hardware never
    existed); the defaults follow the probe-storage literature it cites
    (Pozidis et al.): per-tip data rates in the 100 kbit/s range with
    massive tip parallelism, millisecond-scale sled seeks, and a slow
    electrical write dominated by the heating pulse.  Every number here
    is a config field.  The figure-of-merit experiments report {e ratios}
    between operations, but a ratio is not scale-free: where sled travel
    dominates service (the E19/E20 scheduler speedups, E21's cache
    speedup, E25's tail-latency ratios) the headline moves with
    [seek_velocity] and [seek_settle], so it holds at these defaults
    only. *)

type costs = {
  bit_time : float;  (** One magnetic bit read or write under a tip, s. *)
  ewb_time : float;  (** One electrical write pulse incl. settle, s. *)
  seek_velocity : float;  (** Sled velocity, m/s. *)
  seek_settle : float;  (** Per-seek settle time, s. *)
  read_bit_energy : float;  (** J per magnetic bit read. *)
  write_bit_energy : float;  (** J per magnetic bit write. *)
  ewb_energy : float;  (** J per heating pulse. *)
}

val default_costs : costs
(** 10 µs/bit, 150 µs/ewb, 1 mm/s sled with 1 ms settle, and pulse
    energy from {!Physics.Thermal.pulse_energy} of the default profile. *)

type t
(** Mutable ledger of elapsed simulated time and dissipated energy. *)

val create : ?costs:costs -> unit -> t

val copy : t -> t
(** Independent ledger with the same costs and accumulated figures. *)

val costs : t -> costs
val elapsed : t -> float
(** Simulated seconds so far. *)

val energy : t -> float
(** Joules so far. *)

val reset : t -> unit

val charge_bits : t -> read:int -> written:int -> unit
(** Account for a batch of magnetic bit operations that happen in
    {e sequence} under one tip (parallel tips are accounted once by the
    caller charging only its longest stripe). *)

val charge_bits_times : t -> read:int -> written:int -> times:int -> unit
(** [times] identical {!charge_bits} calls, accumulated in unboxed
    locals and stored once — the float additions happen in the same
    order with the same operands, so the ledger is bit-identical to the
    per-call loop (the contract {!Pdevice}'s lean dispatch relies on)
    without the per-call boxing. *)

val charge_ewb : t -> int -> unit

val charge_ewb_times : t -> int -> times:int -> unit
(** Batched {!charge_ewb}; same bit-identical contract as
    {!charge_bits_times}. *)

val charge_seek : t -> distance:float -> unit
val charge_time : t -> float -> unit
(** Arbitrary extra delay (controller overhead etc.). *)
