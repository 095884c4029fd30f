(** Calendar-queue event scheduler (Brown 1988), O(1) amortised.

    Buckets partition the key axis into fixed-width windows and a cursor
    sweeps them in calendar order, so in the dense steady state both
    push and pop touch O(1) entries.  Entries pop in the lexicographic
    [(key, insertion stamp)] total order (equal keys pop in push order),
    which {!Des} relies on for FIFO ties. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val size : 'a t -> int

val push : 'a t -> float -> 'a -> unit
(** @raise Invalid_argument on a non-finite key. *)

val peek : 'a t -> (float * 'a) option
val pop : 'a t -> (float * 'a) option

val min_key : 'a t -> float
(** Key of the minimum entry, without allocating.
    @raise Invalid_argument on an empty wheel. *)

val min_value : 'a t -> 'a
(** Value of the minimum entry, without allocating a pair.
    @raise Invalid_argument on an empty wheel. *)

val drop_min : 'a t -> unit
(** Remove the minimum entry — with {!min_key}/{!min_value} this is the
    allocation-free hot-path equivalent of {!pop}.
    @raise Invalid_argument on an empty wheel. *)

val clear : 'a t -> unit
(** Empty the wheel and shed capacity back to the initial footprint. *)

val work : 'a t -> int
(** Deterministic effort counter: bucket-scan steps plus sorted-insert
    hops since creation.  The E26 bench gate watches it because it is
    byte-stable where wall clock is only informational. *)
