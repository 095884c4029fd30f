(* A calendar queue (Brown 1988): the O(1)-amortised event scheduler
   behind {!Des}.  Buckets partition the key axis into windows of [width]; an event lands in bucket
   [floor (key / width) mod nbuckets], and a cursor sweeps the buckets
   in "calendar year" order, so in the steady state (about one pending
   event per bucket) both enqueue and dequeue touch O(1) entries where
   a binary heap pays O(log n) comparisons.

   Stability contract: entries carry a monotonic insertion stamp and
   every bucket list is kept sorted by the lexicographic [(key, stamp)]
   order.  Equal keys always hash to the same bucket, so the pop
   sequence realises that total order exactly — equal keys pop in push
   order, which is what makes {!Des} fire equal-timestamp events FIFO. *)

type 'a entry = { ekey : float; estamp : int; eval : 'a }

type 'a t = {
  mutable buckets : 'a entry list array;
  mutable nbuckets : int; (* always a power of two *)
  mutable width : float;
  mutable size : int;
  mutable next_stamp : int;
  mutable cur : int; (* cursor bucket *)
  mutable cur_q : float; (* virtual window index of the cursor: floor (key / width) *)
  mutable cache_valid : bool; (* cursor is known to sit on the min *)
  mutable work : int;
  mutable rewidth_gate : int; (* next_stamp before the next skew check *)
}

let initial_buckets = 16
let initial_width = 1.0

let create () =
  {
    buckets = Array.make initial_buckets [];
    nbuckets = initial_buckets;
    width = initial_width;
    size = 0;
    next_stamp = 0;
    cur = 0;
    cur_q = 0.;
    cache_valid = false;
    work = 0;
    rewidth_gate = 0;
  }

let is_empty t = t.size = 0
let size t = t.size
let work t = t.work

let clear t =
  t.buckets <- Array.make initial_buckets [];
  t.nbuckets <- initial_buckets;
  t.width <- initial_width;
  t.size <- 0;
  t.next_stamp <- 0;
  t.cur <- 0;
  t.cur_q <- 0.;
  t.cache_valid <- false;
  t.rewidth_gate <- 0

(* Point the cursor at the window containing [key] (so a subsequent
   scan starts at or before the minimum).  The window is identified by
   its virtual index [floor (key / width)] — the same quantity bucket
   placement uses — never by a key-axis boundary, so cursor tests stay
   drift-free however the scan got here. *)
let set_cursor t key =
  let q = Float.floor (key /. t.width) in
  let b = int_of_float q land (t.nbuckets - 1) in
  let b = if q < 0. then ((b mod t.nbuckets) + t.nbuckets) mod t.nbuckets else b in
  t.cur <- b;
  t.cur_q <- q;
  t.cache_valid <- false

let bucket_of t key =
  let q = Float.floor (key /. t.width) in
  let i = int_of_float q in
  ((i mod t.nbuckets) + t.nbuckets) mod t.nbuckets

let entry_less a b =
  a.ekey < b.ekey || (a.ekey = b.ekey && a.estamp < b.estamp)

(* Sorted insert by (key, stamp); walked nodes count as work. *)
let rec insert_sorted t e = function
  | [] -> [ e ]
  | x :: rest when entry_less x e ->
      t.work <- t.work + 1;
      x :: insert_sorted t e rest
  | l ->
      t.work <- t.work + 1;
      e :: l

(* Returns the nodes walked, the skew signal for [push]. *)
let insert t e =
  let b = bucket_of t e.ekey in
  let before = t.work in
  t.buckets.(b) <- insert_sorted t e t.buckets.(b);
  t.work - before

(* Rebuild with [nb'] buckets and a width matched to the current key
   spread (~2 events per bucket window on average), so the cursor scan
   stays O(1) amortised in the dense regime.  Deterministic: the width
   comes from the min/max keys, not from sampling randomness. *)
let resize t nb' =
  let entries = ref [] in
  Array.iter
    (fun l -> List.iter (fun e -> entries := e :: !entries) l)
    t.buckets;
  let lo = ref infinity and hi = ref neg_infinity in
  List.iter
    (fun e ->
      if e.ekey < !lo then lo := e.ekey;
      if e.ekey > !hi then hi := e.ekey)
    !entries;
  let spread = !hi -. !lo in
  let magnitude = Float.max (Float.abs !lo) (Float.abs !hi) in
  (* Keep [key / width] far inside int range, and never collapse to a
     zero or denormal width when every key coincides. *)
  let floor_w = Float.max 1e-9 (magnitude *. 1e-12) in
  let width =
    if t.size > 0 && spread > 0. then
      Float.max floor_w (2. *. spread /. float_of_int t.size)
    else Float.max floor_w t.width
  in
  t.width <- width;
  t.nbuckets <- nb';
  t.buckets <- Array.make nb' [];
  t.cache_valid <- false;
  if Float.is_finite !lo then set_cursor t !lo;
  List.iter (fun e -> ignore (insert t e)) !entries

(* A long sorted-insert walk means the population bunched into few
   buckets: the key spread shrank while the size did not — a regime the
   size-triggered resizes never revisit (the classic calendar-queue
   skew failure, e.g. a steady hold-model workload whose span contracts
   to a few widths).  Re-derive the width from the live spread when
   that would actually change the calendar; when the bunching is ties
   or an incompressible distribution, leave it alone.  The gate spaces
   the O(n) spread scans at least [size] stamps apart, so skew checks
   stay amortised O(1), and every trigger is a pure function of the
   queue's content — the pop order is untouched. *)
let skew_limit = 24

let rewidth t =
  t.rewidth_gate <- t.next_stamp + t.size;
  let lo = ref infinity and hi = ref neg_infinity in
  Array.iter
    (List.iter (fun e ->
         if e.ekey < !lo then lo := e.ekey;
         if e.ekey > !hi then hi := e.ekey))
    t.buckets;
  let spread = !hi -. !lo in
  if spread > 0. then begin
    let fair = 2. *. spread /. float_of_int t.size in
    if fair < t.width /. 2. || fair > t.width *. 2. then resize t t.nbuckets
  end

let push t key v =
  if not (Float.is_finite key) then invalid_arg "Wheel.push: non-finite key";
  (* A key too far from zero for the current width would overflow the
     virtual bucket index: re-anchor the width to its magnitude. *)
  if Float.abs key /. t.width >= 1e15 then begin
    t.width <- Float.max t.width (Float.abs key *. 1e-12);
    resize t t.nbuckets
  end;
  let e = { ekey = key; estamp = t.next_stamp; eval = v } in
  t.next_stamp <- t.next_stamp + 1;
  if t.size = 0 || Float.floor (key /. t.width) < t.cur_q then set_cursor t key;
  let hops = insert t e in
  t.cache_valid <- false;
  t.size <- t.size + 1;
  if t.size > 2 * t.nbuckets then resize t (2 * t.nbuckets)
  else if hops > skew_limit && t.next_stamp >= t.rewidth_gate then rewidth t

(* Advance the cursor to the bucket holding the global minimum.
   Within one calendar year the first bucket head falling inside its
   window is the minimum (earlier buckets were empty-in-window, later
   windows start higher); if a whole year turns up nothing the pending
   events are sparse and far away, so jump straight to the smallest
   bucket head.  "Inside its window" is decided by comparing virtual
   window indices, [floor (ekey / width) <= q] — comparing against an
   accumulated key-axis boundary instead would drift away from the
   floor-division grid that placed the entries and can reject the true
   minimum when a key sits exactly on a window edge. *)
let find_min t =
  if t.cache_valid then t.cur
  else begin
    let found = ref (-1) in
    let i = ref t.cur and q = ref t.cur_q and steps = ref 0 in
    while !found < 0 && !steps < t.nbuckets do
      (match t.buckets.(!i) with
      | e :: _ when Float.floor (e.ekey /. t.width) <= !q ->
          found := !i;
          t.cur <- !i;
          t.cur_q <- !q
      | _ -> ());
      if !found < 0 then begin
        incr steps;
        i := (!i + 1) land (t.nbuckets - 1);
        q := !q +. 1.
      end
    done;
    t.work <- t.work + !steps + 1;
    if !found < 0 then begin
      (* Direct search over the bucket heads. *)
      let best = ref (-1) in
      for b = 0 to t.nbuckets - 1 do
        t.work <- t.work + 1;
        match t.buckets.(b) with
        | [] -> ()
        | e :: _ -> (
            match !best with
            | -1 -> best := b
            | bb ->
                let be = List.hd t.buckets.(bb) in
                if entry_less e be then best := b)
      done;
      let b = !best in
      (match t.buckets.(b) with
      | e :: _ -> set_cursor t e.ekey
      | [] -> assert false);
      t.cur <- b;
      found := b
    end;
    t.cache_valid <- true;
    !found
  end

let min_key t =
  if t.size = 0 then invalid_arg "Wheel.min_key: empty wheel";
  match t.buckets.(find_min t) with
  | e :: _ -> e.ekey
  | [] -> assert false

let min_value t =
  if t.size = 0 then invalid_arg "Wheel.min_value: empty wheel";
  match t.buckets.(find_min t) with
  | e :: _ -> e.eval
  | [] -> assert false

let drop_min t =
  if t.size = 0 then invalid_arg "Wheel.drop_min: empty wheel";
  let b = find_min t in
  (match t.buckets.(b) with
  | _ :: rest -> t.buckets.(b) <- rest
  | [] -> assert false);
  t.size <- t.size - 1;
  t.cache_valid <- false;
  if t.size < t.nbuckets / 2 && t.nbuckets > initial_buckets then
    resize t (t.nbuckets / 2)

let peek t =
  if t.size = 0 then None
  else
    match t.buckets.(find_min t) with
    | e :: _ -> Some (e.ekey, e.eval)
    | [] -> assert false

let pop t =
  if t.size = 0 then None
  else begin
    let b = find_min t in
    match t.buckets.(b) with
    | e :: rest ->
        t.buckets.(b) <- rest;
        t.size <- t.size - 1;
        t.cache_valid <- false;
        if t.size < t.nbuckets / 2 && t.nbuckets > initial_buckets then
          resize t (t.nbuckets / 2);
        Some (e.ekey, e.eval)
    | [] -> assert false
  end
