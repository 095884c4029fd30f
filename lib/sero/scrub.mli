(** Background media scrubbing.

    Magnetic sectors accumulate symbol errors (defects, stray flips,
    tip trouble) silently: Reed–Solomon keeps correcting until the
    budget (12 symbols per codeword) is gone, and only then does a read
    fail.  The scrubber turns that cliff into a slope — it sweeps the
    device, {e rewrites} any still-correctable sector whose corrected-
    symbol count crossed [correction_threshold] (resetting its error
    count), remaps failed tips to spares, completes torn burns, and
    optionally deep-verifies heated lines.

    A pass is a plain function so tests can call it directly;
    {!Queue.schedule_scrub} sweeps one line at a time as background
    queue traffic on the DES clock. *)

type config = {
  correction_threshold : int;
      (** Rewrite a sector once RS had to correct at least this many
          symbols. *)
  deep_verify : bool;  (** Also re-verify every heated line's data. *)
}

val default_config : config
(** Threshold 6, no deep verify. *)

type report = {
  lines_swept : int;
  sectors_checked : int;
  rewritten : int;  (** Decaying sectors refreshed. *)
  unrecoverable : int list;  (** PBAs no retry could bring back. *)
  tips_remapped : int;
  torn_completed : int list;  (** Lines whose torn burn was finished. *)
  tamper_found : (int * Tamper.verdict) list;
      (** Lines whose write-once area or data is evidence. *)
  retired_skipped : int;
      (** Spare-region lines left alone: pristine spares are blank and
          quarantined carcasses are frozen evidence, judged by
          {!Device.scan} against their migration link instead. *)
}

val pass : ?config:config -> Device.t -> report
(** One full sweep.  Unheated lines: every written sector is decoded
    raw; past-threshold sectors are rewritten in place, undecodable
    ones go through the device's RAS read path and are rewritten on
    success or reported unrecoverable.  Torn lines are completed via
    [heat_line].  Heated lines are re-verified when [deep_verify].
    Failed tips are remapped first so the sweep itself reads through
    spares. *)

val pp_report : Format.formatter -> report -> unit

(** {1 Incremental sweeping}

    {!pass} sweeps the whole device in one synchronous call.  The
    request pipeline ({!Queue}) instead issues one line at a time as a
    background request, accumulating into a [progress] and turning it
    into a {!report} whenever the caller wants a snapshot. *)

type progress

val progress_create : unit -> progress

val sweep_line : ?config:config -> Device.t -> progress -> line:int -> unit
(** Sweep one line exactly as {!pass} would (same per-line decode /
    rewrite / torn-completion / verify logic) and fold the outcome into
    [progress].  Unlike {!pass} it does {e not} remap failed tips
    first — callers servicing tips should use
    {!Device.service_failed_tips} and add the count themselves. *)

val add_remapped : progress -> int -> unit
(** Fold a {!Device.service_failed_tips} count into the progress. *)

val report_of_progress : progress -> report
(** Snapshot of everything swept so far ([lines_swept] counts
    {!sweep_line} calls on usable lines, not distinct lines;
    spare-region calls land in [retired_skipped] instead). *)

(** {1 Sweep planners}

    Which line does the next background scrub slot go to?  That choice
    is the defender's cheapest audit knob: a sequential sweep is
    predictable (an insider tampers just {e behind} the cursor and buys
    almost a full rotation of latency), weakest-first chases the health
    ledger (and can be decoyed by targeted noise), and seeded sampling
    is memoryless, so no position is ever safe for long.  A planner is
    deterministic state — same policy, same device history, same line
    sequence — so campaigns over it replay byte-identically. *)

type policy =
  | Sequential  (** Round-robin over all lines — today's default. *)
  | Weakest_first
      (** Each round visits every line, ordered by ascending health
          margin ({!Health.margin}), so the lines nearest RS-budget
          exhaustion are verified soonest.  Ties break low. *)
  | Sampled of int
      (** Memoryless uniform line choice from a private stream seeded
          with the payload — unpredictable coverage at the price of
          coupon-collector gaps. *)

type planner

val planner : ?policy:policy -> Device.t -> planner
(** A planner over the device's line space; [policy] defaults to
    {!Sequential}, which yields exactly the 0,1,…,n-1,0,… sequence the
    pre-planner scheduler used. *)

val planner_position : planner -> int
(** The line the next {!planner_next} will return, without consuming
    it.  This is precisely what a scheduling-aware insider can observe
    (the sweep cursor), so campaign adversaries race it honestly. *)

val planner_next : planner -> int
(** Yield the next line to sweep and advance the plan. *)
