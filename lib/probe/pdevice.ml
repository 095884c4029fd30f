type config = { n_tips : int; spare_tips : int; costs : Timing.costs }

let default_config =
  { n_tips = 256; spare_tips = 0; costs = Timing.default_costs }

(* Invert/verify rounds per electrical bit read: one erb protocol for
   the whole device, as in the paper. *)
let erb_cycles = 8

type t = {
  medium : Pmedia.Medium.t;
  bitops : Pmedia.Bitops.ctx;
  tips : Tips.t;
  actuator : Actuator.t;
  timing : Timing.t;
  mutable fault : Fault.Injector.t option;
}

let create ?(config = default_config) medium =
  let timing = Timing.create ~costs:config.costs () in
  let tips = Tips.create ~spares:config.spare_tips ~n_tips:config.n_tips medium in
  let bitops = Pmedia.Bitops.make medium in
  let actuator =
    Actuator.create timing
      ~pitch:(Pmedia.Medium.config medium).Pmedia.Medium.geometry.pitch
      ~field_cols:(Tips.field_cols tips)
  in
  { medium; bitops; tips; actuator; timing; fault = None }

(* CoW device snapshot: the medium clones copy-on-write, everything
   else (ledgers, tips, sled position, op counters) deep-copies so the
   two devices evolve fully independently afterwards.  A live fault
   injector on the parent is simply not inherited — its PRNG position
   and ledger belong to the parent's history, so the clone starts
   fault-free and callers re-arm it with a fresh plan if they want
   faults on the copy. *)
let clone t =
  let medium = Pmedia.Medium.clone t.medium in
  let bitops = Pmedia.Bitops.clone t.bitops medium in
  let timing = Timing.copy t.timing in
  {
    medium;
    bitops;
    tips = Tips.copy t.tips;
    actuator = Actuator.copy t.actuator timing;
    timing;
    fault = None;
  }

let medium t = t.medium
let tips t = t.tips
let bitops t = t.bitops
let size t = Pmedia.Medium.size t.medium
let elapsed t = Timing.elapsed t.timing
let energy t = Timing.energy t.timing
let reset_ledger t = Timing.reset t.timing
let fault t = t.fault

let install_fault t inj =
  t.fault <- Some inj;
  Pmedia.Bitops.set_fault t.bitops (Some inj)

let clear_fault t =
  t.fault <- None;
  Pmedia.Bitops.set_fault t.bitops None

let check_run t start len =
  if start < 0 || len < 0 || start + len > size t then
    invalid_arg "Pdevice: run out of range"

(* How the ledger is charged per scan-offset step of a run. *)
type charge = Cbits of { read : int; written : int } | Cewb of int

let charge_one t = function
  | Cbits { read; written } -> Timing.charge_bits t.timing ~read ~written
  | Cewb n -> Timing.charge_ewb t.timing n

let charge_many t c ~times =
  match c with
  | Cbits { read; written } ->
      Timing.charge_bits_times t.timing ~read ~written ~times
  | Cewb n -> Timing.charge_ewb_times t.timing n ~times

(* Wear for every scan row a run touches.  Interior rows are always
   full rows; only the first and last can be partial.  Wear is integer
   addition, so banking the full rows in a single call leaves exactly
   the per-row totals.  Lean path only (record_full_rows requires no
   remap, which the caller guarantees). *)
let record_run_wear t ~start ~len =
  let n = Tips.n_tips t.tips in
  let first_off = start / n and last_off = (start + len - 1) / n in
  let lo0 = start - (first_off * n)
  and hi1 = start + len - 1 - (last_off * n) in
  if first_off = last_off then Tips.record_use_range t.tips ~lo:lo0 ~hi:hi1
  else begin
    let full = ref (last_off - first_off - 1) in
    if lo0 = 0 then incr full
    else Tips.record_use_range t.tips ~lo:lo0 ~hi:(n - 1);
    if hi1 = n - 1 then incr full
    else Tips.record_use_range t.tips ~lo:0 ~hi:hi1;
    Tips.record_full_rows t.tips ~count:!full
  end

(* With no injector and no broken or remapped tip, none of those states
   can change mid-run, so a run needs no per-offset checks. *)
let lean t =
  t.fault = None
  && Tips.remapped_count t.tips = 0
  && Tips.all_serving_healthy t.tips

(* The lean dispatch's seek, charge and wear for a whole run: each
   batch replays the per-offset float additions in the same order from
   unboxed locals (see {!Actuator.scan_run} and
   {!Timing.charge_bits_times}), so the ledgers are bit-identical to
   the per-offset loop without its boxing. *)
let lean_pass t ~start ~len charge =
  let n = Tips.n_tips t.tips in
  let first_off = start / n and last_off = (start + len - 1) / n in
  Actuator.scan_run t.actuator ~first:first_off ~last:last_off;
  charge_many t charge ~times:(last_off - first_off + 1);
  record_run_wear t ~start ~len

(* Iterate a run scan-row by scan-row, charging [charge] once per step.
   On the lean dispatch the whole run goes through [bulk] in one call,
   visiting dots in address order exactly as the per-row loop would.
   Otherwise, when every logical tip is served by a healthy unit, a row
   goes through [bulk] in one call (tip index is [dot - off * n], no
   per-dot [Tips.locate]); a row with any broken serving tip falls back
   to per-dot [f dot tip], which keeps the dead-tip noise semantics.
   Wear is recorded per row either way, and timing is charged per
   offset either way, so the ledgers are identical on both paths. *)
let run_offsets t ~start ~len ~charge ~bulk f =
  if len > 0 then begin
    if lean t then begin
      lean_pass t ~start ~len charge;
      bulk ~lo:start ~hi:(start + len - 1)
    end
    else begin
      let n = Tips.n_tips t.tips in
      for off = start / n to (start + len - 1) / n do
        Actuator.seek t.actuator off;
        charge_one t charge;
        (* Scheduled tip deaths land at scan-row boundaries. *)
        (match t.fault with
        | None -> ()
        | Some inj ->
            List.iter (Tips.fail_tip t.tips) (Fault.Injector.newly_dead_tips inj));
        (* A remapped field is served by a spare parked off-pitch on the
           same sled: each scan row pays one extra settle to line it up. *)
        if Tips.remapped_count t.tips > 0 then
          Timing.charge_time t.timing (Timing.costs t.timing).Timing.seek_settle;
        let row_base = off * n in
        let lo = max start row_base
        and hi = min (start + len - 1) (row_base + n - 1) in
        Tips.record_use_range t.tips ~lo:(lo - row_base) ~hi:(hi - row_base);
        if Tips.all_serving_healthy t.tips then bulk ~lo ~hi
        else
          for dot = lo to hi do
            f dot (dot - row_base)
          done
      done
    end
  end

let random_bit t = Sim.Prng.bool (Pmedia.Medium.rng t.medium)

(* Bit [k] of a packed MSB-first run buffer, i.e. dot [start + k]. *)
let get_bit buf k =
  Char.code (Bytes.unsafe_get buf (k lsr 3)) land (0x80 lsr (k land 7)) <> 0

let set_bit buf k v =
  let b = k lsr 3 and m = 0x80 lsr (k land 7) in
  let c = Char.code (Bytes.unsafe_get buf b) in
  Bytes.unsafe_set buf b (Char.unsafe_chr (if v then c lor m else c land lnot m))

let packed_read_lean t ~start ~len =
  len > 0 && start land 7 = 0 && len land 7 = 0 && lean t
  && Pmedia.Bitops.read_fast_available t.bitops ~start ~len

(* The lean branch takes the whole run in one kernel call without
   building a closure; everything else runs the per-row dispatch, where
   each row tries the packed kernel and, when it declines (injector,
   defects, read noise, unaligned row), reads dot by dot through the
   scalar mrb — the same draws in the same order either way. *)
let read_run_packed t ~start ~len ~dst =
  check_run t start len;
  if Bytes.length dst < (len + 7) lsr 3 then
    invalid_arg "Pdevice.read_run_packed: dst too short";
  if packed_read_lean t ~start ~len then begin
    lean_pass t ~start ~len (Cbits { read = 1; written = 0 });
    ignore (Pmedia.Bitops.mrb_run_packed t.bitops ~start ~len ~dst ~dst_pos:0)
  end
  else
    run_offsets t ~start ~len
      ~charge:(Cbits { read = 1; written = 0 })
      ~bulk:(fun ~lo ~hi ->
        if
          not
            (start land 7 = 0
            && Pmedia.Bitops.mrb_run_packed t.bitops ~start:lo
                 ~len:(hi - lo + 1) ~dst ~dst_pos:((lo - start) lsr 3))
        then
          for dot = lo to hi do
            set_bit dst (dot - start)
              (Pmedia.Dot.to_bool (Pmedia.Bitops.mrb t.bitops dot))
          done)
      (fun dot tip ->
        set_bit dst (dot - start)
          (if Tips.tip_failed t.tips tip then random_bit t
           else Pmedia.Dot.to_bool (Pmedia.Bitops.mrb t.bitops dot)));
  true

(* The mirror of [read_run_packed].  mwb draws no randomness and ignores
   defects, so the lean branch needs no kernel guard beyond alignment;
   a failed tip's dots receive no write. *)
let write_run_packed t ~start ~len ~src =
  check_run t start len;
  if Bytes.length src < (len + 7) lsr 3 then
    invalid_arg "Pdevice.write_run_packed: src too short";
  if len > 0 && start land 7 = 0 && len land 7 = 0 && lean t then begin
    lean_pass t ~start ~len (Cbits { read = 0; written = 1 });
    ignore (Pmedia.Bitops.mwb_run_packed t.bitops ~start ~len ~src ~src_pos:0)
  end
  else
    run_offsets t ~start ~len
      ~charge:(Cbits { read = 0; written = 1 })
      ~bulk:(fun ~lo ~hi ->
        if
          not
            (start land 7 = 0
            && Pmedia.Bitops.mwb_run_packed t.bitops ~start:lo
                 ~len:(hi - lo + 1) ~src ~src_pos:((lo - start) lsr 3))
        then
          for dot = lo to hi do
            Pmedia.Bitops.mwb t.bitops dot
              (Pmedia.Dot.of_bool (get_bit src (dot - start)))
          done)
      (fun dot tip ->
        if not (Tips.tip_failed t.tips tip) then
          Pmedia.Bitops.mwb t.bitops dot
            (Pmedia.Dot.of_bool (get_bit src (dot - start))));
  true

let read_run_into t ~start ~len ~dst =
  check_run t start len;
  if Array.length dst < len then
    invalid_arg "Pdevice.read_run_into: dst too short";
  let buf = Bytes.create ((len + 7) lsr 3) in
  ignore (read_run_packed t ~start ~len ~dst:buf);
  for k = 0 to len - 1 do
    Array.unsafe_set dst k (get_bit buf k)
  done

let write_run t ~start bits =
  let len = Array.length bits in
  check_run t start len;
  let buf = Bytes.make ((len + 7) lsr 3) '\x00' in
  Array.iteri (fun k v -> if v then set_bit buf k true) bits;
  ignore (write_run_packed t ~start ~len ~src:buf)

let heat_run t ~start pattern =
  let len = Array.length pattern in
  check_run t start len;
  run_offsets t ~start ~len ~charge:(Cewb 1)
    ~bulk:(fun ~lo ~hi ->
      for dot = lo to hi do
        if pattern.(dot - start) then Pmedia.Bitops.ewb t.bitops dot
      done)
    (fun dot tip ->
      if pattern.(dot - start) && not (Tips.tip_failed t.tips tip) then
        Pmedia.Bitops.ewb t.bitops dot)

let erb_run_into ?cycles t ~start ~len ~dst =
  check_run t start len;
  if Array.length dst < len then
    invalid_arg "Pdevice.erb_run_into: dst too short";
  let cycles = Option.value cycles ~default:erb_cycles in
  (* Each cycle is read, write, read, write, read = 3 reads + 2 writes
     of the whole tip row. *)
  run_offsets t ~start ~len
    ~charge:(Cbits { read = 3 * cycles; written = 2 * cycles })
    ~bulk:(fun ~lo ~hi ->
      Pmedia.Bitops.erb_run ~cycles t.bitops ~start:lo ~len:(hi - lo + 1)
        ~dst ~dst_pos:(lo - start))
    (fun dot tip ->
      let heated =
        if Tips.tip_failed t.tips tip then
          (* A dead tip cannot run the protocol; its verification reads
             are noise, which reports as heated. *)
          true
        else Pmedia.Bitops.erb ~cycles t.bitops dot
      in
      dst.(dot - start) <- heated)

let erb_run ?cycles t ~start ~len =
  let out = Array.make len false in
  erb_run_into ?cycles t ~start ~len ~dst:out;
  out
