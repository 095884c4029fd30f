(** The segment cleaner (garbage collector).

    Classic Sprite-LFS cost-benefit cleaning with the paper's one
    crucial amendment (Section 4.1): segments containing heated lines
    are {e never} selected — "the garbage collector skips over heated
    segments, avoiding reading and writing them repeatedly", and copying
    a heated line would not free reusable space anyway.

    Liveness is decided against the imap and the in-memory pointer
    caches; live blocks are rewritten at their owner's group log head,
    so under the clustering policy cleaning also {e re-segregates} heat
    groups that historical workloads interleaved. *)

val is_live : State.t -> pba:int -> Enc.owner -> bool
(** Ground-truth liveness of a block given its summary owner record. *)

val segment_utilisation : State.t -> int -> float
(** live / usable for one segment. *)

val select_victim : State.t -> int option
(** Best cost-benefit candidate: maximises [(1-u)·age/(1+u)] over
    closed, unheated, non-checkpoint segments (empty segments win
    immediately). [None] if nothing is cleanable. *)

val clean_segment : State.t -> int -> int
(** Clean one segment: copy out live blocks, flush affected inodes,
    release the segment.  Returns the number of blocks copied. *)

val low_water : int
(** The low watermark: 3 free segments. *)

val maybe_clean : State.t -> unit
(** Enforce the watermarks: when free segments fall below {!low_water},
    clean victims until 6 are free (or nothing is cleanable). *)
