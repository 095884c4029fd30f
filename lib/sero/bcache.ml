(* Sized LRU block cache over the request pipeline: read hits cost zero
   sled service, misses prefetch forward as Background reads, writes are
   buffered dirty and flushed as coalesced spans.  Coherence against
   everything that mutates the medium under the cache (scrub, heat,
   attacks, fault plans) is driven by the Device listener hooks — see
   the interface comment for the three rules. *)

type entry = {
  mutable payload : string;
  mutable dirty : bool;
  mutable prefetched : bool;
}

type t = {
  q : Queue.t;
  dev : Device.t;
  capacity : int;
  read_ahead : int;
  dirty_high : int;
  entries : (int, entry) Sim.Lru.t;
  inflight : (int, unit) Hashtbl.t; (* prefetch reads not yet landed *)
  mutable n_dirty : int;
  (* Reentrancy/ownership state for the mutation listener: while a
     flush span is in service, single-block notifications inside that
     span are our own writes, not foreign mutations. *)
  mutable flush_span : (int * int) option;
  mutable epoch : int; (* bumped by every invalidation; stale prefetches drop *)
  (* Last-hit shortcut: the entry most recently touched, checked against
     the LRU head before any hash lookup.  Valid only while its pba is
     still the MRU head (then [Lru.find] would not move it, so skipping
     the find is observationally identical); every code path that
     removes or replaces entries clears or refreshes it. *)
  mutable last : (int * entry) option;
  mutable hits : int;
  mutable misses : int;
  mutable read_aheads : int;
  mutable read_ahead_hits : int;
  mutable evictions : int;
  mutable flushes : int;
  mutable flushed_blocks : int;
  mutable flushed_spans : int;
  mutable write_absorbed : int;
  mutable invalidations : int;
  mutable bypasses : int;
}

(* One flush span is one queue request and one sled pass; keep it to a
   bounded group so a big dirty set drains as several schedulable
   requests instead of one monster pass. *)
let max_flush_span = 16

let remove_entry t pba =
  match Sim.Lru.peek t.entries pba with
  | None -> ()
  | Some e ->
      if e.dirty then t.n_dirty <- t.n_dirty - 1;
      Sim.Lru.remove t.entries pba;
      (match t.last with Some (p, _) when p = pba -> t.last <- None | _ -> ());
      t.invalidations <- t.invalidations + 1

let invalidate_range t ~pba ~n =
  t.epoch <- t.epoch + 1;
  for p = pba to pba + n - 1 do
    remove_entry t p
  done

let invalidate_line t ~line =
  let layout = Device.layout t.dev in
  invalidate_range t
    ~pba:(Layout.hash_block_of_line layout line)
    ~n:(Layout.blocks_per_line layout)

let invalidate_all t =
  t.epoch <- t.epoch + 1;
  t.invalidations <- t.invalidations + Sim.Lru.length t.entries;
  t.n_dirty <- 0;
  t.last <- None;
  Sim.Lru.clear t.entries

let bypassing t = Device.fault_installed t.dev

(* {1 Write-behind flush} *)

(* Dirty PBAs, ascending, grouped into physically consecutive spans. *)
let dirty_spans ?range t =
  let keep =
    match range with
    | None -> fun _ -> true
    | Some (lo, n) -> fun pba -> pba >= lo && pba < lo + n
  in
  let pbas =
    Sim.Lru.fold
      (fun pba e acc -> if e.dirty && keep pba then pba :: acc else acc)
      t.entries []
    |> List.sort compare
  in
  let rec group acc cur = function
    | [] -> List.rev (match cur with [] -> acc | _ -> List.rev cur :: acc)
    | pba :: rest -> (
        match cur with
        | last :: _ when pba = last + 1 && List.length cur < max_flush_span ->
            group acc (pba :: cur) rest
        | [] -> group acc [ pba ] rest
        | _ -> group (List.rev cur :: acc) [ pba ] rest)
  in
  group [] [] pbas

let flush_spans ?prio ?tenant t spans =
  if spans <> [] then begin
    t.flushes <- t.flushes + 1;
    List.iter
      (fun span ->
        let first = List.hd span in
        let n = List.length span in
        (* Snapshot the payloads: completions firing during the pump
           must not be able to change what this span writes. *)
        let payloads =
          Array.of_list
            (List.map
               (fun pba ->
                 match Sim.Lru.peek t.entries pba with
                 | Some e -> e.payload
                 | None -> assert false)
               span)
        in
        t.flush_span <- Some (first, n);
        let results = Queue.write_span ?prio ?tenant t.q ~pba:first payloads in
        t.flush_span <- None;
        t.flushed_spans <- t.flushed_spans + 1;
        List.iteri
          (fun i pba ->
            match results.(i) with
            | Ok () -> (
                t.flushed_blocks <- t.flushed_blocks + 1;
                match Sim.Lru.peek t.entries pba with
                | Some e when e.dirty && e.payload == payloads.(i) ->
                    e.dirty <- false;
                    t.n_dirty <- t.n_dirty - 1
                | Some _ | None -> ())
            | Error _ ->
                (* The medium refused (e.g. the line was heated under
                   us by a direct device call).  The medium wins: drop
                   the buffered write rather than retry forever. *)
                remove_entry t pba)
          span)
      spans
  end

let flush ?prio ?tenant t = flush_spans ?prio ?tenant t (dirty_spans t)

let flush_line ?prio ?tenant t ~line =
  let layout = Device.layout t.dev in
  let range =
    (Layout.hash_block_of_line layout line, Layout.blocks_per_line layout)
  in
  flush_spans ?prio ?tenant t (dirty_spans ~range t)

let sync t =
  flush t;
  Queue.drain t.q

(* {1 Construction} *)

let create ?(capacity = 64) ?(read_ahead = 8) ?dirty_high q =
  if capacity < 1 then invalid_arg "Bcache.create: capacity must be positive";
  if read_ahead < 0 then invalid_arg "Bcache.create: read_ahead must be >= 0";
  let dirty_high =
    match dirty_high with Some d -> max 1 d | None -> max 1 (capacity / 2)
  in
  let t =
    {
      q;
      dev = Queue.device q;
      capacity;
      read_ahead;
      dirty_high;
      entries =
        Sim.Lru.create ~evictable:(fun _ e -> not e.dirty) ~capacity ();
      inflight = Hashtbl.create 16;
      n_dirty = 0;
      flush_span = None;
      epoch = 0;
      last = None;
      hits = 0;
      misses = 0;
      read_aheads = 0;
      read_ahead_hits = 0;
      evictions = 0;
      flushes = 0;
      flushed_spans = 0;
      flushed_blocks = 0;
      write_absorbed = 0;
      invalidations = 0;
      bypasses = 0;
    }
  in
  Device.add_mutation_listener t.dev (fun ~pba ~n ->
      let own_write =
        n = 1
        &&
        match t.flush_span with
        | Some (first, len) -> pba >= first && pba < first + len
        | None -> false
      in
      if not own_write then invalidate_range t ~pba ~n);
  Device.on_fault_install t.dev (fun () ->
      (* Barrier: push buffered writes through the still-healthy device
         and forget everything, so the armed plan sees the medium an
         uncached device would have. *)
      flush t;
      invalidate_all t);
  t

let device t = t.dev

(* {1 Cache fill} *)

let insert_clean t ~prefetched pba payload =
  let e = { payload; dirty = false; prefetched } in
  let evicted = Sim.Lru.add t.entries pba e in
  t.last <- Some (pba, e);
  t.evictions <- t.evictions + List.length evicted

let read_ahead ?tenant t ~pba =
  if t.read_ahead > 0 && not (bypassing t) then begin
    let layout = Device.layout t.dev in
    let n_blocks = (Device.config t.dev).Device.n_blocks in
    let epoch0 = t.epoch in
    for p = pba + 1 to min (n_blocks - 1) (pba + t.read_ahead) do
      if
        (not (Layout.is_hash_block layout p))
        && (not (Sim.Lru.mem t.entries p))
        && not (Hashtbl.mem t.inflight p)
      then begin
        Hashtbl.replace t.inflight p ();
        t.read_aheads <- t.read_aheads + 1;
        Queue.submit_read t.q ~prio:Queue.Background ?tenant ~pba:p (fun r ->
            Hashtbl.remove t.inflight p;
            match r with
            | Ok payload
              when t.epoch = epoch0
                   && (not (Sim.Lru.mem t.entries p))
                   && not (bypassing t) ->
                insert_clean t ~prefetched:true p payload
            | Ok _ | Error _ -> ())
      end
    done
  end

(* {1 Block I/O} *)

let hit t pba e =
  t.hits <- t.hits + 1;
  t.last <- Some (pba, e);
  if e.prefetched then begin
    t.read_ahead_hits <- t.read_ahead_hits + 1;
    e.prefetched <- false
  end;
  Ok e.payload

let read_block ?prio ?tenant t ~pba =
  if bypassing t then begin
    t.bypasses <- t.bypasses + 1;
    Queue.read_block ?prio ?tenant t.q ~pba
  end
  else
    match t.last with
    (* Repeat read of the hottest block: skip the hash lookup.  Only
       taken while the pba is still the recency head, where [Lru.find]
       would not reorder anything — identical stats, identical result. *)
    | Some (p, e) when p = pba && Sim.Lru.is_head t.entries pba -> hit t pba e
    | _ -> (
    match Sim.Lru.find t.entries pba with
    | Some e -> hit t pba e
    | None ->
        (* A prefetch for this block may already be in flight: join it
           (pump the DES until it lands) instead of issuing a duplicate
           pass.  The wait is the remaining in-flight time, which is
           why a read arriving just behind its prefetch is cheaper than
           a cold miss. *)
        if Hashtbl.mem t.inflight pba then begin
          let des = Queue.des t.q in
          while Hashtbl.mem t.inflight pba do
            if not (Sim.Des.step des) then
              failwith "Bcache: in-flight prefetch cannot complete"
          done
        end;
        (match Sim.Lru.find t.entries pba with
        | Some e -> hit t pba e
        | None ->
            t.misses <- t.misses + 1;
            let r = Queue.read_block ?prio ?tenant t.q ~pba in
            (match r with
            | Ok payload -> insert_clean t ~prefetched:false pba payload
            | Error _ -> ());
            read_ahead ?tenant t ~pba;
            r))

let dirty_ratio t = float_of_int t.n_dirty /. float_of_int t.capacity

let write_block ?prio ?tenant t ~pba payload =
  if bypassing t then begin
    t.bypasses <- t.bypasses + 1;
    Queue.write_block ?prio ?tenant t.q ~pba payload
  end
  else
    let layout = Device.layout t.dev in
    (* Same refusals as {!Device.write_block}, checked against live
       device state so the error surface matches an uncached write. *)
    if Layout.is_hash_block layout pba then Error Device.Reserved_hash_block
    else if Device.is_line_heated t.dev ~line:(Layout.line_of_block layout pba)
    then Error Device.In_heated_line
    else begin
      (match Sim.Lru.find t.entries pba with
      | Some e ->
          if e.dirty then t.write_absorbed <- t.write_absorbed + 1
          else t.n_dirty <- t.n_dirty + 1;
          e.payload <- payload;
          e.dirty <- true;
          e.prefetched <- false;
          t.last <- Some (pba, e)
      | None ->
          t.n_dirty <- t.n_dirty + 1;
          let e = { payload; dirty = true; prefetched = false } in
          let evicted = Sim.Lru.add t.entries pba e in
          t.last <- Some (pba, e);
          t.evictions <- t.evictions + List.length evicted);
      if t.n_dirty > t.dirty_high then flush ?prio ?tenant t;
      Ok ()
    end

let heat_line ?tenant t ~line ?timestamp () =
  if bypassing t then begin
    t.bypasses <- t.bypasses + 1;
    Queue.heat_line ?tenant t.q ~line ?timestamp ()
  end
  else begin
    (* The burn hashes the medium, so the line's buffered writes must
       land first; afterwards ewb is irreversible and the burned
       Manchester hash must be re-read from the dots, so the whole
       line's cached copies are dropped. *)
    flush_line ?tenant t ~line;
    let r = Queue.heat_line ?tenant t.q ~line ?timestamp () in
    invalidate_line t ~line;
    r
  end

let verify_line t ~line =
  if not (bypassing t) then flush_line t ~line;
  Device.verify_line t.dev ~line

(* {1 Measurement} *)

type stats = {
  hits : int;
  misses : int;
  read_aheads : int;
  read_ahead_hits : int;
  evictions : int;
  flushes : int;
  flushed_blocks : int;
  flushed_spans : int;
  write_absorbed : int;
  invalidations : int;
  bypasses : int;
}

let stats (t : t) : stats =
  {
    hits = t.hits;
    misses = t.misses;
    read_aheads = t.read_aheads;
    read_ahead_hits = t.read_ahead_hits;
    evictions = t.evictions;
    flushes = t.flushes;
    flushed_blocks = t.flushed_blocks;
    flushed_spans = t.flushed_spans;
    write_absorbed = t.write_absorbed;
    invalidations = t.invalidations;
    bypasses = t.bypasses;
  }

let hit_rate (t : t) =
  float_of_int t.hits /. float_of_int (t.hits + t.misses)

let pp_stats ppf (t : t) =
  let s = stats t in
  Format.fprintf ppf
    "bcache[%d blocks, ra=%d]: %d hits / %d misses (%.1f%% hit rate, %d via \
     read-ahead of %d issued)@ %d evictions, %d invalidations, %d bypasses@ \
     write-behind: %d dirty now (%.1f%% of cap), %d absorbed overwrites, %d \
     blocks flushed in %d spans over %d passes@."
    t.capacity t.read_ahead s.hits s.misses
    (100. *. hit_rate t)
    s.read_ahead_hits s.read_aheads s.evictions s.invalidations s.bypasses
    t.n_dirty
    (100. *. dirty_ratio t)
    s.write_absorbed s.flushed_blocks s.flushed_spans s.flushes
