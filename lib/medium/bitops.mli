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
    counters charged in bulk.  Each kernel takes a fast, allocation-free
    path only when that is semantically invisible — no fault injector
    installed, [read_ber = 0], and (for the read kernels) the run
    provably defect-free per {!Medium.run_defect_free} — and otherwise
    falls back to a per-dot loop over the scalar ops, so fault and RAS
    semantics are bit-identical either way.  The fast paths reproduce
    the scalar path's PRNG draws (heated-dot coin flips, heated-dot erb
    protocol reads) in the exact same order from the medium's PRNG. *)

val mrb_run :
  ctx -> start:int -> len:int -> dst:bool array -> dst_pos:int -> unit
(** Magnetic read of dots [start, start+len) into [dst.(dst_pos ..)],
    [true] = Up; equivalent to [len] calls of {!mrb} piped through
    {!Dot.to_bool}. *)

val read_fast_available : ctx -> start:int -> len:int -> bool
(** Whether the read kernels' fast path is available over the run: no
    injector, [read_ber = 0], and the run defect-free.  Lets callers
    that must not charge anything before committing (see
    {!mrb_run_packed}) test the guards up front. *)

val mrb_run_packed :
  ctx -> start:int -> len:int -> dst:Bytes.t -> dst_pos:int -> bool
(** Magnetic read of an 8-dot-aligned run straight into packed bytes:
    dot [start + 8b + j] lands in bit [7 - j] of [dst.(dst_pos + b)]
    (MSB-first, the sector image order), skipping the intermediate bool
    array entirely.  Only available on the fast path: returns [false]
    — having charged nothing and drawn nothing — when [start] or [len]
    is not a multiple of 8 or {!mrb_run}'s fast-path guards fail, and
    the caller must fall back to {!mrb_run} plus packing.  When it runs
    it is bit- and draw-identical to that fallback. *)

val mwb_run :
  ctx -> start:int -> len:int -> src:bool array -> src_pos:int -> unit
(** Magnetic write of [src.(src_pos ..)] over the run; equivalent to
    [len] calls of {!mwb} via {!Dot.of_bool} (heated dots ignore the
    write). *)

val mwb_run_packed :
  ctx -> start:int -> len:int -> src:Bytes.t -> src_pos:int -> bool
(** Magnetic write of an 8-dot-aligned run straight from packed bytes
    (bit [7 - j] of [src.(src_pos + b)] → dot [start + 8b + j], the
    inverse of {!mrb_run_packed}'s layout).  Returns [false] — having
    touched nothing — when [start] or [len] is not a multiple of 8 or a
    fault injector is installed; the caller falls back to {!mwb_run}.
    When it runs it leaves the medium, counters and PRNG exactly as
    that fallback would (heated dots ignore the write on both paths,
    and mwb never draws randomness). *)

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
