type config = {
  rows : int;
  cols : int;
  geometry : Physics.Constants.dot_geometry;
  material : Physics.Constants.material;
  defect_rate : float;
  seed : int;
}

type states =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

(* The packed store is segmented for lazy allocation and copy-on-write:
   a segment is [None] while still all-zero (virgin medium) or while
   shared read-only with clone relatives ([frozen]), and is only ever
   materialised — privately, in [own] — when written.  So a blank or
   freshly-cloned device costs two pointer arrays, not a full matrix.

   Segment payloads are off-heap [Bigarray]s: the GC sees only the
   pointer arrays, and the process-wide CoW footprint is pinned by
   RSS/address-space limits (the CI fleet job runs under [ulimit -v]). *)

let seg_bytes = 4096
let seg_shift = 12
let seg_mask = seg_bytes - 1
let seg_dots = seg_bytes * 4

type t = {
  config : config;
  n_packed : int; (* packed bytes of live store, (size + 3) / 4 *)
  mutable frozen : states option array;
      (* per segment: shared read-only payload, or None = all-zero *)
  mutable own : states option array;
      (* per segment: this device's private overlay *)
  mutable own_count : int;
  mutable materialized_total : int; (* own segments ever created *)
  defects : Bytes.t; (* 1 bit per dot; empty when defect_rate = 0 *)
  rows_clean : Bytes.t; (* 1 bit per row: set = no defect in the row *)
  defect_total : int;
  rng : Sim.Prng.t;
  mutable heated : int;
}

let default_config ~rows ~cols =
  {
    rows;
    cols;
    geometry = Physics.Constants.dot_100nm;
    material = Physics.Constants.co_pt;
    defect_rate = 0.;
    seed = 42;
  }

let size t = t.config.rows * t.config.cols
let rows t = t.config.rows
let cols t = t.config.cols
let config t = t.config
let rng t = t.rng
let segment_bytes = seg_bytes

(* One process-wide all-zero segment backs every unmaterialised read. *)
let zero_seg : states =
  let s = Bigarray.Array1.create Bigarray.char Bigarray.c_layout seg_bytes in
  Bigarray.Array1.fill s '\x00';
  s

let n_segs_of n_packed = (n_packed + seg_bytes - 1) / seg_bytes

let create config =
  if config.rows <= 0 || config.cols <= 0 then
    invalid_arg "Medium.create: non-positive dimensions";
  let n = config.rows * config.cols in
  let rng = Sim.Prng.create config.seed in
  let n_packed = (n + 3) / 4 in
  let n_segs = n_segs_of n_packed in
  (* A defect-free medium (the common large-geometry case) keeps no
     per-dot defect bitmap at all. *)
  let defects =
    if config.defect_rate > 0. then Bytes.make ((n + 7) / 8) '\x00'
    else Bytes.empty
  in
  let rows_clean = Bytes.make ((config.rows + 7) / 8) '\xFF' in
  let defect_total = ref 0 in
  if config.defect_rate > 0. then
    for i = 0 to n - 1 do
      if Sim.Prng.bernoulli rng config.defect_rate then begin
        let byte = i / 8 and bit = i mod 8 in
        Bytes.set defects byte
          (Char.chr (Char.code (Bytes.get defects byte) lor (1 lsl bit)));
        incr defect_total;
        let row = i / config.cols in
        Bytes.set rows_clean (row / 8)
          (Char.chr
             (Char.code (Bytes.get rows_clean (row / 8))
             land lnot (1 lsl (row mod 8))))
      end
    done;
  {
    config;
    n_packed;
    frozen = Array.make n_segs None;
    own = Array.make n_segs None;
    own_count = 0;
    materialized_total = 0;
    defects;
    rows_clean;
    defect_total = !defect_total;
    rng;
    heated = 0;
  }

(* Read view of segment [si]: private overlay, else shared frozen
   payload, else the global zero segment. *)
let seg_ro t si =
  match Array.unsafe_get t.own si with
  | Some s -> s
  | None -> (
      match Array.unsafe_get t.frozen si with
      | Some s -> s
      | None -> zero_seg)

(* Write view: materialise a private copy on first touch. *)
let seg_rw t si =
  match Array.unsafe_get t.own si with
  | Some s -> s
  | None ->
      let s =
        Bigarray.Array1.create Bigarray.char Bigarray.c_layout seg_bytes
      in
      (match Array.unsafe_get t.frozen si with
      | Some f -> Bigarray.Array1.blit f s
      | None -> Bigarray.Array1.fill s '\x00');
      Array.unsafe_set t.own si (Some s);
      t.own_count <- t.own_count + 1;
      t.materialized_total <- t.materialized_total + 1;
      s

let owned_segments t = t.own_count
let total_segments t = Array.length t.frozen
let materialized_total t = t.materialized_total

(* CoW snapshot.  The parent's private overlay merges into a fresh
   frozen generation shared (read-only, by construction: nothing ever
   writes a [frozen] payload) with the child; both sides restart with
   empty overlays, so the clone itself copies only pointer arrays and
   each side pays per-segment copies lazily as it diverges. *)
let clone t =
  let n_segs = Array.length t.frozen in
  let frozen' =
    Array.init n_segs (fun si ->
        match t.own.(si) with Some s -> Some s | None -> t.frozen.(si))
  in
  t.frozen <- frozen';
  t.own <- Array.make n_segs None;
  t.own_count <- 0;
  {
    config = t.config;
    n_packed = t.n_packed;
    frozen = Array.copy frozen';
    own = Array.make n_segs None;
    own_count = 0;
    materialized_total = 0;
    defects = t.defects (* immutable after create: shared *);
    rows_clean = t.rows_clean;
    defect_total = t.defect_total;
    rng = Sim.Prng.copy t.rng;
    heated = t.heated;
  }

let check_range t i =
  if i < 0 || i >= size t then invalid_arg "Medium: dot index out of range"

let raw_get t i =
  let byte = i lsr 2 and shift = 2 * (i land 3) in
  let seg = seg_ro t (byte lsr seg_shift) in
  (Char.code (Bigarray.Array1.unsafe_get seg (byte land seg_mask)) lsr shift)
  land 3

let raw_set t i v =
  let byte = i lsr 2 and shift = 2 * (i land 3) in
  let seg = seg_rw t (byte lsr seg_shift) in
  let j = byte land seg_mask in
  let old = Char.code (Bigarray.Array1.unsafe_get seg j) in
  Bigarray.Array1.unsafe_set seg j
    (Char.chr (old land lnot (3 lsl shift) lor (v lsl shift)))

let get t i =
  check_range t i;
  match raw_get t i with
  | 0 -> Dot.Magnetised Dot.Down
  | 1 -> Dot.Magnetised Dot.Up
  | _ -> Dot.Heated

let set t i s =
  check_range t i;
  let was_heated = raw_get t i = 2 in
  let v =
    match s with
    | Dot.Magnetised Dot.Down -> 0
    | Dot.Magnetised Dot.Up -> 1
    | Dot.Heated -> 2
  in
  (match (was_heated, s) with
  | false, Dot.Heated -> t.heated <- t.heated + 1
  | true, Dot.Magnetised _ -> t.heated <- t.heated - 1
  | _ -> ());
  raw_set t i v

let is_defect t i =
  check_range t i;
  t.defect_total > 0
  && Char.code (Bytes.get t.defects (i / 8)) land (1 lsl (i mod 8)) <> 0

let check_run t start len =
  if len < 0 || start < 0 || start + len > size t then
    invalid_arg "Medium: run out of range"

let run_defect_free t ~start ~len =
  check_run t start len;
  t.defect_total = 0
  || len = 0
  ||
  let c = t.config.cols in
  let r0 = start / c and r1 = (start + len - 1) / c in
  let ok = ref true in
  for r = r0 to r1 do
    if Char.code (Bytes.unsafe_get t.rows_clean (r lsr 3)) land (1 lsl (r land 7)) = 0
    then ok := false
  done;
  !ok

let packed_length t = t.n_packed

(* Walk the dot run [start, start+len) one segment-contained chunk at a
   time.  Segment boundaries fall on multiples of [seg_dots] (a multiple
   of 8), so chunking never splits a packed byte — or the byte-pairs the
   packed kernels consume — and the bulk kernels built on this produce
   bit-identical results to a flat store. *)
let iter_chunks t ~write ~start ~len f =
  check_run t start len;
  let stop = start + len in
  let i = ref start in
  while !i < stop do
    let si = !i / seg_dots in
    let cstop = min stop ((si + 1) * seg_dots) in
    let seg = if write then seg_rw t si else seg_ro t si in
    f seg ~base:(si lsl seg_shift) ~start:!i ~len:(cstop - !i);
    i := cstop
  done

let blit_packed t ~pos ~dst ~dst_off ~len =
  if
    pos < 0 || len < 0
    || pos + len > t.n_packed
    || dst_off < 0
    || dst_off + len > Bytes.length dst
  then invalid_arg "Medium.blit_packed: out of range";
  let k = ref 0 in
  while !k < len do
    let p = pos + !k in
    let si = p lsr seg_shift in
    let j = p land seg_mask in
    let chunk = min (len - !k) (seg_bytes - j) in
    let seg = seg_ro t si in
    let off = dst_off + !k in
    for q = 0 to chunk - 1 do
      Bytes.unsafe_set dst (off + q) (Bigarray.Array1.unsafe_get seg (j + q))
    done;
    k := !k + chunk
  done

(* Every 2-bit field >= 2 collapses to the canonical Heated code 2 (the
   decoding [raw_get] applies), so a foreign byte can never plant the
   reserved code 3 in the store. *)
let sanitize_byte =
  Array.init 256 (fun b ->
      let v = ref 0 in
      for f = 0 to 3 do
        let c = (b lsr (2 * f)) land 3 in
        v := !v lor ((if c > 2 then 2 else c) lsl (2 * f))
      done;
      Char.chr !v)

let load_packed t ~pos ~src ~src_off ~len =
  if
    pos < 0 || len < 0
    || pos + len > t.n_packed
    || src_off < 0
    || src_off + len > Bytes.length src
  then invalid_arg "Medium.load_packed: out of range";
  let tbl = sanitize_byte in
  let k = ref 0 in
  while !k < len do
    let p = pos + !k in
    let si = p lsr seg_shift in
    let j = p land seg_mask in
    let chunk = min (len - !k) (seg_bytes - j) in
    let off = src_off + !k in
    (* Loading all-zero bytes into a still-virtual all-zero segment is a
       no-op: skip materialising it, so streaming a sparse image into a
       blank device keeps the device sparse.  (A byte sanitises to zero
       iff it is zero, so checking the raw source suffices.) *)
    let virtual_zero = t.own.(si) = None && t.frozen.(si) = None in
    let all_zero =
      virtual_zero
      &&
      let z = ref true in
      let q = ref 0 in
      while !z && !q < chunk do
        if Bytes.unsafe_get src (off + !q) <> '\x00' then z := false;
        incr q
      done;
      !z
    in
    if not all_zero then begin
      let seg = seg_rw t si in
      for q = 0 to chunk - 1 do
        Bigarray.Array1.unsafe_set seg (j + q)
          (Array.unsafe_get tbl (Char.code (Bytes.unsafe_get src (off + q))))
      done
    end;
    k := !k + chunk
  done

(* Number of 2-bit fields per state byte that read back as Heated
   (raw code >= 2, matching [raw_get]'s decoding). *)
let heated_per_byte =
  Array.init 256 (fun b ->
      let n = ref 0 in
      for f = 0 to 3 do
        if (b lsr (2 * f)) land 3 >= 2 then incr n
      done;
      !n)

let count_heated_run t ~start ~len =
  check_run t start len;
  let tbl = heated_per_byte in
  let n = ref 0 in
  iter_chunks t ~write:false ~start ~len (fun seg ~base ~start ~len ->
      let state i =
        (Char.code (Bigarray.Array1.unsafe_get seg ((i lsr 2) - base))
        lsr (2 * (i land 3)))
        land 3
      in
      let i = ref start in
      let stop = start + len in
      (* Unaligned head *)
      while !i < stop && !i land 3 <> 0 do
        if state !i >= 2 then incr n;
        incr i
      done;
      (* Whole state bytes *)
      while !i + 4 <= stop do
        n :=
          !n
          + Array.unsafe_get tbl
              (Char.code (Bigarray.Array1.unsafe_get seg ((!i lsr 2) - base)));
        i := !i + 4
      done;
      (* Tail *)
      while !i < stop do
        if state !i >= 2 then incr n;
        incr i
      done);
  !n

let recount_heated t = t.heated <- count_heated_run t ~start:0 ~len:(size t)

let get_run t ~start ~len ~dst ~dst_pos =
  check_run t start len;
  if dst_pos < 0 || dst_pos + len > Bytes.length dst then
    invalid_arg "Medium.get_run: destination out of range";
  for k = 0 to len - 1 do
    Bytes.unsafe_set dst (dst_pos + k) (Char.unsafe_chr (raw_get t (start + k)))
  done

let set_run t ~start ~len ~src ~src_pos =
  check_run t start len;
  if src_pos < 0 || src_pos + len > Bytes.length src then
    invalid_arg "Medium.set_run: source out of range";
  for k = 0 to len - 1 do
    let v = Char.code (Bytes.get src (src_pos + k)) in
    if v > 2 then invalid_arg "Medium.set_run: invalid state code";
    let i = start + k in
    let old = raw_get t i in
    if old >= 2 && v < 2 then t.heated <- t.heated - 1
    else if old < 2 && v = 2 then t.heated <- t.heated + 1;
    raw_set t i v
  done

let neighbours t i =
  check_range t i;
  let c = t.config.cols in
  let row = i / c and col = i mod c in
  let candidates =
    [ (row, col - 1); (row, col + 1); (row - 1, col); (row + 1, col) ]
  in
  List.filter_map
    (fun (r, cl) ->
      if r < 0 || r >= t.config.rows || cl < 0 || cl >= c then None
      else Some ((r * c) + cl))
    candidates

(* Same visit order as [neighbours] — left, right, up, down — so
   callers drawing randomness per neighbour keep a bit-identical
   stream whichever entry point they use. *)
let iter_neighbours t i f =
  check_range t i;
  let c = t.config.cols in
  let row = i / c and col = i mod c in
  if col > 0 then f (i - 1);
  if col < c - 1 then f (i + 1);
  if row > 0 then f (i - c);
  if row < t.config.rows - 1 then f (i + c)

let heated_count t = t.heated

let capacity_bits t =
  let area_cm2 =
    float_of_int (size t) *. t.config.geometry.pitch *. t.config.geometry.pitch
    /. 1e-4
  in
  area_cm2 *. Physics.Constants.areal_density_bits_per_cm2 t.config.geometry

let note_heated t i =
  check_range t i;
  if raw_get t i <> 2 then begin
    t.heated <- t.heated + 1;
    raw_set t i 2
  end
