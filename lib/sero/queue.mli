(** The asynchronous request pipeline: queued submit/complete I/O
    through {!Device} on the {!Sim.Des} clock.

    Section 6 of the paper expects the SERO device to "behave like a
    disk" for random WMRM I/O served by one shared sled.  A disk earns
    that behaviour from its request queue: requests are {e submitted},
    wait their turn, are {e served} in whatever order the scheduler
    picks, and {e complete} asynchronously.  This module gives the SERO
    device the same lifecycle:

    {v
      submit ──▶ pending (per priority class)
                     │   Sched.order picks the next offset
                     ▼
                 service (sled pass; adjacent reads coalesce
                     │    into one bulk Device.read_blocks)
                     ▼
      complete ◀── Des event at now + measured service time
    v}

    One request group is in flight at a time (the sled is a single
    mechanical resource; service is non-preemptive).  Whenever the sled
    goes idle, the scheduler re-orders the {e currently pending}
    requests with {!Probe.Sched.order} from the sled's current scan
    offset and serves the head — so the configured policy drives the
    real service order, not just the E19 cost estimate.  Foreground
    requests strictly precede background ones; background work
    (scrubbing, cleaning) therefore contends with the foreground only
    through the non-preemptive service time of the request it already
    occupies the sled with.

    Timing: the device's own {!Probe.Timing} ledger is read before and
    after each sled pass and the delta becomes the service time; the
    completion event fires that many simulated seconds after service
    starts.  Per-request wait/latency/energy feed {!Sim.Stats}
    counters, so percentiles and throughput come for free.

    The synchronous facade ({!read_block} / {!write_block} /
    {!heat_line}) submits and then pumps the DES until that one request
    completes — with an otherwise empty queue this is bit-identical
    (results, counters, ledger, PRNG draws) to calling {!Device}
    directly. *)

type t

type prio =
  | Foreground  (** FS and user traffic; always served first. *)
  | Background  (** Scrub and cleaner traffic; fills idle time. *)

val create :
  ?policy:Probe.Sched.policy ->
  ?coalesce:bool ->
  ?read_retry_limit:int ->
  Sim.Des.t ->
  Device.t ->
  t
(** A queue serving [dev] on the [des] clock.  [policy] defaults to
    {!Probe.Sched.Elevator}; [coalesce] (default [true]) merges reads
    of consecutive PBAs that are also adjacent in service order into
    one {!Device.read_blocks} span of at most 8 blocks.

    Request-level RAS: a read that completes with [Error] is re-queued
    up to [read_retry_limit] times (default 0 — deliver errors
    immediately) with deterministic exponential backoff off the DES
    clock: the nth retry waits [100 us * 2^(n-1)] of simulated time.
    The original submit time is kept, so latency percentiles see the
    whole ordeal; only the final delivery updates the completion
    counters. *)

val device : t -> Device.t
val des : t -> Sim.Des.t

(** {1 Multi-tenant arbitration}

    Requests carry a tenant tag (default [0]).  An installed arbiter
    turns dispatch into a two-level decision: first {e which tenant} is
    served (the arbiter's call — fair share, weights, whatever the host
    layer installs), then {e which of that tenant's requests} (the sled
    policy's call, exactly as before).  Span coalescing never crosses
    tenants, so every sled pass is charged to exactly one tenant's
    service/energy ledger — and the charge lands when the pass runs,
    before the next dispatch, which is what a fair-share arbiter needs
    to see.  With no arbiter (the default), dispatch is tenant-blind
    and bit-identical to the pre-tenant pipeline. *)

type arbiter_view = {
  av_tenant : int;
  av_backlog : int;  (** Pending requests of this tenant in the class. *)
  av_oldest : float;  (** Submit time of its oldest pending request. *)
}

val set_arbiter : t -> (arbiter_view list -> int) option -> unit
(** Install (or remove) the tenant arbiter.  At each dispatch with more
    than one tenant backlogged in the preferred class, the arbiter is
    given one view per backlogged tenant (sorted by tenant id) and
    returns the tenant to serve; an answer naming no backlogged tenant
    falls back to the first view. *)

val tenants : t -> int list
(** Tenant ids that have been charged service or completions, sorted. *)

val tenant_completed : t -> int -> int
val tenant_service : t -> int -> float
(** Cumulative sled-busy seconds charged to the tenant (updated at
    service time, not completion). *)

val tenant_energy : t -> int -> float

(** {1 Asynchronous submission}

    Each [submit_*] enqueues a request and returns immediately; the
    callback fires from the completion event.  [prio] defaults to
    [Foreground] except for scrub lines; [tenant] defaults to [0]
    (system traffic — scrub and migration always ride tenant 0). *)

val submit_read :
  t ->
  ?prio:prio ->
  ?tenant:int ->
  pba:int ->
  ((string, Device.read_error) result -> unit) ->
  unit

val submit_write :
  t ->
  ?prio:prio ->
  ?tenant:int ->
  pba:int ->
  string ->
  ((unit, Device.write_error) result -> unit) ->
  unit

val submit_heat_line :
  t ->
  ?prio:prio ->
  ?tenant:int ->
  line:int ->
  ?timestamp:float ->
  ((Hash.Sha256.t, Device.heat_error) result -> unit) ->
  unit
(** [timestamp] defaults to the DES clock at submit time. *)

val submit_verify_line :
  t ->
  ?tenant:int ->
  line:int ->
  (Tamper.verdict -> unit) ->
  unit
(** One {!Device.verify_line} as a queued request — the audit traffic
    class.  It runs at [Background] priority, so sampled audits contend
    under the arbiter like any other background work instead of jumping
    the foreground; give them a tenant of their own to meter their
    budget through per-tenant accounting. *)

val schedule_scrub :
  ?config:Scrub.config ->
  ?planner:Scrub.planner ->
  t ->
  period:float ->
  stop:(unit -> bool) ->
  Scrub.progress
(** Background scrubbing as queue traffic: every [period] simulated
    seconds submit the line the [planner] names next (at most one
    outstanding scrub request at a time) until [stop ()] holds at a
    tick.  [planner] defaults to a fresh {!Scrub.Sequential} planner,
    which is bit-identical to the pre-planner round-robin.  Returns the
    progress the sweeps accumulate into — snapshot it with
    {!Scrub.report_of_progress}. *)

val schedule_migration :
  t -> period:float -> stop:(unit -> bool) -> Device.migration list ref
(** Endurance maintenance as background queue traffic: every [period]
    simulated seconds, if no migration is outstanding and
    {!Device.next_due} names a weakening line, submit its
    {!Device.evacuate_line} as one Background request: the whole
    evacuation — copy, remap, re-burn, verify — is a single
    non-preemptive sled pass, so it only contends with the foreground
    through the one pass it occupies.  Returns the list the completed migrations accumulate
    into (newest first). *)

(** {1 Pumping} *)

val drain : t -> unit
(** Step the DES until no request is pending or in flight — note this
    also fires any unrelated events scheduled on the same DES that come
    due. *)

(** {1 Synchronous facade}

    Submit one foreground request and pump the DES until {e that}
    request completes (earlier-queued requests may be served on the
    way, exactly as a disk would).  Drop-in replacements for the
    corresponding {!Device} calls. *)

val read_block :
  ?prio:prio -> ?tenant:int -> t -> pba:int -> (string, Device.read_error) result

val write_block :
  ?prio:prio ->
  ?tenant:int ->
  t ->
  pba:int ->
  string ->
  (unit, Device.write_error) result

val write_span :
  ?prio:prio ->
  ?tenant:int ->
  t ->
  pba:int ->
  string array ->
  (unit, Device.write_error) result array

val heat_line :
  ?tenant:int ->
  t ->
  line:int ->
  ?timestamp:float ->
  unit ->
  (Hash.Sha256.t, Device.heat_error) result

(** {1 Measurement}

    All times in simulated seconds.  [latency] = completion − submit;
    [wait] = service start − submit; [service] is per sled pass (a
    coalesced span counts once). *)

val latency : t -> prio -> Sim.Stats.t
val wait : t -> prio -> Sim.Stats.t
val service : t -> Sim.Stats.t
val energy_spent : t -> prio -> float
val completed : t -> prio -> int

val last_completion : t -> prio -> float
(** DES time of the class's most recent completion (0 if none) — the
    numerator's clock for closed-loop throughput. *)

val depth_histogram : t -> Sim.Stats.Histogram.h
(** Queue depth (waiting + in-flight) sampled at each submit. *)

val served_offsets : t -> int list
(** Scan offsets in actual service order (oldest first) — the
    observable that the policy-conformance tests compare against
    {!Probe.Sched.order}. *)

val coalesced_requests : t -> int
(** Read requests absorbed into a bulk span (span size − 1 per span). *)

val retried_reads : t -> int
(** Failed reads sent back through the queue by the retry policy. *)

val abandoned_reads : t -> int
(** Reads whose error was delivered after the retry budget ran out
    (only counted when [read_retry_limit > 0]). *)


val pp_summary : Format.formatter -> t -> unit
