(** Deterministic fleet fan-out over {!Pool}.

    Shards a population of [n] independent simulations (devices, cells)
    into contiguous index ranges whose count is a pure function of [n]
    — never of the worker count — and gives simulation [i] the keyed
    PRNG {!Prng.stream}[ ~seed i].  Results return in index order and
    per-shard reductions fold in shard order, so fleet output is
    byte-identical for any [-j]. *)

type shard = { first : int; count : int }

val default_shards : int
(** Target shard count (64): enough slack for dynamic load balance at
    any plausible core count, few enough that per-shard state stays
    cheap. *)

val shards : ?shards:int -> int -> shard list
(** [shards n] splits [0..n-1] into at most [shards] (default
    {!default_shards}) contiguous ranges of near-equal size, in index
    order.  Pure in [n] — the same plan whatever runs it.
    @raise Invalid_argument if [n < 0] or [shards < 1]. *)

val device_rng : seed:int -> int -> Prng.t
(** The canonical per-device generator, {!Prng.stream}[ ~seed i]. *)

val map :
  ?jobs:int -> seed:int -> int -> (rng:Prng.t -> int -> 'a) -> 'a list
(** [map ~seed n f] is [[f ~rng:(stream ~seed 0) 0; ...; f ~rng:... (n-1)]]
    computed shard-parallel; [f] must not touch state shared across
    indices.  Byte-identical to the sequential map for any [jobs]. *)

val map_merge :
  ?jobs:int ->
  seed:int ->
  int ->
  f:(rng:Prng.t -> int -> 'a) ->
  merge:('a list -> 'a) ->
  'a
(** Like {!map}, but each shard reduces its results with [merge] before
    returning and the shard summaries reduce once more in shard order —
    the fleet-statistics shape ({!Stats.merge_many} is the canonical
    [merge]).  The merge {e grouping} is fixed by the shard plan, which
    is pure in [n], so the result is byte-identical for any [jobs] even
    when [merge] is only approximately associative (floating-point
    moment combination). *)
