(** Minimal discrete-event simulation kernel.

    The device timing model is mostly a ledger of per-operation costs,
    but the file-system experiments (cleaner running concurrently with
    foreground writes, snapshot scheduling) and the request pipeline
    ({!Sero.Queue}) need ordered future events.  Events are thunks
    fired in timestamp order; events with {e equal} timestamps fire in
    the order they were scheduled (FIFO), so traces are reproducible
    even when submissions and completions coincide on the clock.

    The queue behind the clock is the calendar-queue {!Wheel}
    (Brown 1988), O(1) amortised per event in the dense regime. *)

type t

val create : unit -> t

val now : t -> float
(** Current simulated time in seconds. *)

val schedule : t -> delay:float -> (t -> unit) -> unit
(** [schedule t ~delay f] fires [f] at [now t +. delay].
    @raise Invalid_argument if [delay < 0]. *)

val schedule_at : t -> at:float -> (t -> unit) -> unit
(** @raise Invalid_argument if [at < now t]. *)

val run : ?until:float -> t -> unit
(** Drain the event queue, optionally stopping once simulated time would
    exceed [until] (remaining events stay queued).  The drain loop is
    allocation-free per event. *)

val step : t -> bool
(** Fire the single next event; [false] if the queue was empty. *)

val pending : t -> int

val sched_work : t -> int
(** Deterministic effort counter of the backing {!Wheel} (bucket-scan
    steps plus sorted-insert hops) — the byte-stable basis for the E26
    scheduler bench gate. *)
