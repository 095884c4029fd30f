(** The four low-level bit operations of Section 3.

    - [mrb] — magnetic read: direction of a magnetised dot; a heated dot
      "would yield a more or less random result" (its perpendicular
      stray field is gone, the channel thresholds noise), so the result
      is a coin flip from the medium's PRNG.
    - [mwb] — magnetic write: sets the direction; silently ineffective
      on a heated dot (no perpendicular axis remains).
    - [ewb] — electrical write: heats the dot, destroying it
      irreversibly; may collaterally heat neighbours with the
      probability given by the thermal model.
    - [erb] — electrical read, {e built out of} magnetic reads and
      writes as the paper's 5-step atomic sequence: read, write inverse,
      verify inverse, write back, verify original.  Any failed
      verification means the dot no longer holds out-of-plane data.

    Every operation increments the per-medium counters, from which the
    device layer derives simulated time and energy; [erb] costs exactly
    5 primitive operations per cycle, which is where the paper's
    "at least 5 times slower than mrb" comes from. *)

type counters = {
  mutable mrb : int;
  mutable mwb : int;
  mutable ewb : int;
  mutable erb : int;  (** erb {e sequences}, not primitive ops. *)
  mutable collateral : int;  (** Neighbour dots destroyed by ewb pulses. *)
}

type ctx
(** A medium together with its counters and thermal write profile. *)

val make :
  ?profile:Physics.Thermal.profile ->
  ?read_ber:float ->
  Medium.t ->
  ctx
(** [profile] defaults to {!Physics.Thermal.default_profile} of the
    medium's geometry; [read_ber] is the raw magnetic-read error
    probability on healthy dots (default 0 — sector-level ECC is
    exercised separately with fault injection). *)

val clone : ctx -> Medium.t -> ctx
(** [clone ctx medium'] is a context over [medium'] (normally
    [Medium.clone (medium ctx)]) with the same physics and a private
    copy of the counters.  A live fault injector is never inherited —
    injector position state is the parent's history — so the clone's
    [fault] is [None] until the caller installs a fresh one. *)

val medium : ctx -> Medium.t
val counters : ctx -> counters
val reset_counters : ctx -> unit

val set_fault : ctx -> Fault.Injector.t option -> unit
(** Install (or remove) a fault injector.  With one installed, every
    primitive op ticks the injector first (so a configured power cut
    raises {!Fault.Injector.Power_cut} {e before} the op touches the
    medium); mrb results pass through the stuck-dot and bit-flip
    filters; ewb pulses may be underpowered and leave their dot
    magnetic.  [None] (the default) restores fault-free behaviour. *)

val mrb : ctx -> int -> Dot.direction
val mwb : ctx -> int -> Dot.direction -> unit
val ewb : ctx -> int -> unit

val erb : ?cycles:int -> ctx -> int -> bool
(** [erb ctx i] is [true] iff the dot is detected as heated.  [cycles]
    (default 1) repeats the invert/verify round: a heated dot passes one
    round by luck with probability 1/4 (both random reads agreeing), so
    callers that must not miss heated dots escalate the cycle count.
    A magnetised dot always comes back with its original data restored. *)

val primitive_ops : counters -> int
(** Total mrb + mwb operations issued, counting the ones inside erb —
    the denominator for op-cost accounting. *)

(** {1 Run kernels}

    Bulk mrb/mwb/erb over a run of consecutive dot addresses, with
    counters charged in bulk.  A kernel's fast, allocation-free path is
    only taken where it is semantically invisible: no fault injector
    installed, [read_ber = 0], and (for the reads) the run provably
    defect-free per {!Medium.run_defect_free}.  The fast paths reproduce
    the scalar ops' PRNG draws (heated-dot coin flips, heated-dot erb
    protocol reads) in the exact same order from the medium's PRNG.

    Sector images travel packed, one bit per dot, MSB-first: dot
    [start + 8b + j] is bit [7 - j] of byte [b].  The packed mrb/mwb
    kernels serve 8-dot-aligned runs on the fast path only; anywhere
    else they return [false] having charged, drawn and touched nothing,
    and the caller (the probe device) issues the scalar {!mrb}/{!mwb}
    per dot instead, so fault and RAS semantics are bit-identical
    either way.  {!erb_run} loops over the scalar {!erb} itself. *)

val read_fast_available : ctx -> start:int -> len:int -> bool
(** Whether the read kernels' fast path is available over the run: no
    injector, [read_ber = 0], and the run defect-free.  Lets callers
    that must not charge anything before committing test the guards up
    front. *)

val mrb_run_packed :
  ctx -> start:int -> len:int -> dst:Bytes.t -> dst_pos:int -> bool
(** Magnetic read of an 8-dot-aligned run into packed bytes from
    [dst.(dst_pos)] on; when it runs it is bit-, counter- and
    draw-identical to [len] calls of {!mrb} ([true] = Up).  Returns
    [false] — having charged and drawn nothing — when [start] or [len]
    is not a multiple of 8 or {!read_fast_available} fails. *)

val mwb_run_packed :
  ctx -> start:int -> len:int -> src:Bytes.t -> src_pos:int -> bool
(** Magnetic write of an 8-dot-aligned run from packed bytes at
    [src.(src_pos)] on; when it runs it leaves the medium, counters and
    PRNG exactly as [len] calls of {!mwb} would (heated dots ignore the
    write, and mwb never draws randomness).  Returns [false] — having
    touched nothing — when [start] or [len] is not a multiple of 8 or a
    fault injector is installed. *)

val erb_run :
  ?cycles:int ->
  ctx ->
  start:int ->
  len:int ->
  dst:bool array ->
  dst_pos:int ->
  unit
(** Electrical read of the run; [dst.(dst_pos + k)] is [true] iff dot
    [start + k] is detected heated.  Equivalent to [len] calls of
    {!erb}. *)
