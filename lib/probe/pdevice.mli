(** The assembled probe-storage device (µSPAM, Figure 4): patterned
    medium + tip array + shared actuator + time/energy ledger.

    Operations work on {e runs} of logical dot addresses.  A run is
    striped across the tips ({!Tips}), so each scan-offset step moves
    all tips one dot and transfers [n_tips] bits in one bit time; the
    ledger is charged per offset step, not per bit — tip parallelism is
    what makes the device competitive with a disk (Section 3 expects
    hard-disk-class WMRM performance).

    Failed tips surface exactly the way the paper's addressing
    discussion worries about: their dots read as noise, fail the erb
    verification, and are indistinguishable from heated dots at this
    level — disambiguation happens in the SERO layer via framing and
    known hash locations. *)

type t

type config = {
  n_tips : int;
  spare_tips : int;
      (** Physical tips reserved for {!Tips.remap_tip}; they serve no
          dots until a failed tip's field is remapped onto one. *)
  costs : Timing.costs;
}
(** Electrical writes use the medium geometry's default thermal profile
    ({!Physics.Thermal.default_profile}), and every electrical bit read
    runs 8 invert/verify rounds (see {!Pmedia.Bitops.erb}), which pushes
    the probability of mistaking a heated dot for unheated below 2e-5. *)

val default_config : config
(** 256 tips, no spares, default costs. *)

val create : ?config:config -> Pmedia.Medium.t -> t

val clone : t -> t
(** Copy-on-write device snapshot: the medium is {!Pmedia.Medium.clone}d
    (unmutated segments shared), the tip array, ledgers, sled state and
    op counters are deep-copied, and the clone's PRNG continues from the
    parent's current state independently.  A live fault injector on the
    parent is {e never} inherited — its PRNG position and event ledger
    belong to the parent's history — so the clone starts fault-free;
    install a fresh injector on the clone to re-arm faults. *)

val medium : t -> Pmedia.Medium.t
val tips : t -> Tips.t
val bitops : t -> Pmedia.Bitops.ctx

val size : t -> int
(** Logical dot addresses, = medium size. *)

val read_run_packed : t -> start:int -> len:int -> dst:Bytes.t -> bool
(** Magnetic read of dots [start, start+len) into packed MSB-first bytes:
    dot [start + 8b + j] lands in bit [7 - j] of [dst.(b)], [1] = up =
    logical 1; bits past [len] in a partial last byte are unspecified.
    Heated or failed-tip dots yield random values, as the physics
    dictates.  On the lean dispatch ({!packed_read_lean}) the whole run
    is one kernel call; otherwise the run goes scan row by scan row,
    honouring injector ticks, tip deaths at row boundaries, remap
    settles and dead-tip noise.  Always returns [true].
    @raise Invalid_argument if the run leaves the device or [dst] holds
    fewer than [ceil (len/8)] bytes. *)

val packed_read_lean : t -> start:int -> len:int -> bool
(** Whether {!read_run_packed} would take its whole-run lean branch: a
    non-empty 8-dot-aligned run, no fault injector, no broken or
    remapped tip, zero read noise and a defect-free run.  Callers that
    batch several blocks into one run test this first, so a faulty
    device keeps its block-by-block charge and retry order. *)

val read_run_into : t -> start:int -> len:int -> dst:bool array -> unit
(** {!read_run_packed} unpacked into [dst.(0..len-1)], [true] = up.
    @raise Invalid_argument if [dst] holds fewer than [len] cells. *)

val write_run_packed : t -> start:int -> len:int -> src:Bytes.t -> bool
(** Magnetic write of dots [start, start+len) from packed MSB-first
    bytes (bit [7 - j] of [src.(b)] → dot [start + 8b + j]), the mirror
    of {!read_run_packed}.  Heated dots ignore the write and dots under
    failed tips receive none.  The lean branch needs an 8-dot-aligned
    run, no injector and no broken or remapped tip; everything else
    goes scan row by scan row.  Always returns [true].
    @raise Invalid_argument if the run leaves the device or [src] holds
    fewer than [ceil (len/8)] bytes. *)

val write_run : t -> start:int -> bool array -> unit
(** {!write_run_packed} of the bits packed from a bool array. *)

val heat_run : t -> start:int -> bool array -> unit
(** Electrical write: heats dot [start + i] wherever the pattern is
    [true].  Dots under failed tips receive no pulse. *)

val erb_run : ?cycles:int -> t -> start:int -> len:int -> bool array
(** Electrical read: [true] = detected heated.  [cycles] overrides the
    device's 8 invert/verify rounds.  One cycle misses a heated dot with
    probability 1/4 (the two verification reads of the paper's sequence
    both agree by luck), so callers that must not miss escalate the
    cycle count on suspicious dots. *)

val erb_run_into :
  ?cycles:int -> t -> start:int -> len:int -> dst:bool array -> unit
(** {!erb_run} into a caller-owned buffer, like {!read_run_into}. *)

val elapsed : t -> float
val energy : t -> float
val reset_ledger : t -> unit

(** {1 Fault injection} *)

val install_fault : t -> Fault.Injector.t -> unit
(** Route every bit operation through the injector (see
    {!Pmedia.Bitops.set_fault}).  Scheduled tip deaths are drained at
    scan-row boundaries and marked in {!tips}; once any field is
    remapped to a spare, every scan row pays one extra settle time. *)

val clear_fault : t -> unit
val fault : t -> Fault.Injector.t option
