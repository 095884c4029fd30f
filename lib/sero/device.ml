(* The RAS profile: with [ras] on, a failed read is retried this many
   times, an incomplete burn is re-pulsed this many times, and the tip
   array carries this many spare tips. *)
let read_retries = 3
let max_repulses = 2
let ras_spare_tips = 4

(* Every device has one probe array of this many tips, over a Co/Pt
   medium. *)
let n_tips = 32

type endurance = {
  health_enabled : bool;
  spare_lines : int;
  retire_margin : float;
}

let default_endurance =
  { health_enabled = false; spare_lines = 0; retire_margin = 0.5 }

let active_endurance =
  { health_enabled = true; spare_lines = 4; retire_margin = 0.5 }

type config = {
  n_blocks : int;
  line_exp : int;
  seed : int;
  defect_rate : float;
  geometry : Physics.Constants.dot_geometry;
  costs : Probe.Timing.costs;
  strict_hash_locations : bool;
  ras : bool;
  endurance : endurance;
}

let default_config ?(n_blocks = 512) ?(line_exp = 3) () =
  {
    n_blocks;
    line_exp;
    seed = 42;
    defect_rate = 0.;
    geometry = Physics.Constants.dot_100nm;
    costs = Probe.Timing.default_costs;
    strict_hash_locations = true;
    ras = false;
    endurance = default_endurance;
  }

type device_state = Healthy | Degraded | Read_only

let pp_device_state ppf s =
  Format.pp_print_string ppf
    (match s with
    | Healthy -> "healthy"
    | Degraded -> "degraded"
    | Read_only -> "read-only")

type migration = {
  m_line : int;  (** Logical line that was rehomed. *)
  m_from : int;  (** Physical line it vacated (the carcass). *)
  m_to : int;  (** Physical line now serving it. *)
  m_hash : Hash.Sha256.t option;  (** Burned hash carried across. *)
  m_timestamp : float;
}

(* Reusable buffers for the sector and write-once hot paths; the
   write-once area's erb result is 32 KB as a bool array, too much to
   allocate per read.  Every buffer size is a layout constant, so
   scratch sets are interchangeable between devices: they live in a
   per-domain free list and a device only holds one from first I/O
   until [park] — a parked or freshly-cloned device pins no transient
   buffers.  Contents are dead between device calls (always fully
   overwritten before being read), so recycling is semantically
   invisible. *)
type scratch = {
  sc_wo : bool array;
  sc_probe : bool array; (* the 2 dots of one cell, escalation re-probes *)
  sc_image : Bytes.t; (* one packed block image, block_dots / 8 *)
  mutable sc_span : Bytes.t; (* coalesced-span images, grown on demand *)
}

let scratch_pool : scratch list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let scratch_acquire () =
  let pool = Domain.DLS.get scratch_pool in
  match !pool with
  | s :: rest ->
      pool := rest;
      s
  | [] ->
      {
        sc_wo = Array.make Layout.wo_area_dots false;
        sc_probe = Array.make 2 false;
        sc_image = Bytes.create (Layout.block_dots / 8);
        sc_span = Bytes.empty;
      }

let scratch_release s =
  let pool = Domain.DLS.get scratch_pool in
  pool := s :: !pool

(* An all-zero block image, shared by every device and never written
   (it is only ever a [write_image_at] source). *)
let zero_image = Bytes.make (Layout.block_dots / 8) '\x00'

type t = {
  config : config;
  layout : Layout.t;
  pdevice : Probe.Pdevice.t;
  generations : int array; (* per logical PBA *)
  heated : bool array; (* per physical line, see [recount_heated] *)
  (* Grown-defect remap: [phys_line] maps logical line -> physical line
     (a permutation; identity until a retirement), [log_of_phys] its
     inverse.  Frames always embed the {e logical} PBA, so a migrated
     line's data re-hashes to the same burned hash at its new home. *)
  phys_line : int array;
  log_of_phys : int array;
  mutable spare_pool : int list; (* pristine spare physical lines, FIFO *)
  retired : bool array; (* per physical line: a vacated carcass *)
  health : Health.t; (* indexed by logical line *)
  defects_of_phys : int array; (* manufacturing defect dots per phys line *)
  mutable dstate : device_state;
  mutable migrations : migration list; (* oldest first *)
  (* Scratch buffers, pooled per domain: materialised on first use,
     given back by [park].  Never live across a nested device call. *)
  mutable scratch : scratch option;
  (* Payload-sized memory traffic on paths that had to materialise a
     fresh buffer (retained string copies).  The zero-copy read/write
     paths leave it untouched, which is what the bench counters
     assert. *)
  mutable bytes_copied : int;
  mutable reads : int;
  mutable writes : int;
  mutable heats : int;
  mutable verifies : int;
  (* RAS counters *)
  mutable retries : int;
  mutable retry_successes : int;
  mutable repulses : int;
  mutable remapped_tips : int;
  mutable scrub_rewrites : int;
  mutable torn_completions : int;
  mutable line_retirements : int;
  mutable reattest_failures : int;
  (* Mutation listeners let a layer above (the buffer cache) observe
     every path that changes block contents under it — scrub rewrites,
     heat/burn completions, attacker writes — so stale copies can never
     mask what is actually on the medium. *)
  mutable mutation_listeners : (pba:int -> n:int -> unit) list;
  mutable fault_listeners : (unit -> unit) list;
}

(* The geometry checks [Layout.create] raises on, as a result, so that
   a loaded image header can be refused cleanly. *)
let validate_config c =
  let spare_lines = c.endurance.spare_lines in
  if c.line_exp < 1 || c.line_exp > 20 then
    Error "Layout.create: line_exp must be in 1..20"
  else if c.n_blocks <= 0 || c.n_blocks mod (1 lsl c.line_exp) <> 0 then
    Error "Layout.create: n_blocks must be a positive multiple of 2^N"
  else if spare_lines < 0 || spare_lines >= c.n_blocks lsr c.line_exp then
    Error "Layout.create: spare_lines must be in 0..n_lines-1"
  else Ok c

let create config =
  let config =
    match validate_config config with Ok c -> c | Error e -> invalid_arg e
  in
  let layout =
    Layout.create ~spare_lines:config.endurance.spare_lines
      ~n_blocks:config.n_blocks ~line_exp:config.line_exp ()
  in
  let medium =
    Pmedia.Medium.create
      {
        Pmedia.Medium.rows = config.n_blocks;
        cols = Layout.block_dots;
        geometry = config.geometry;
        material = Physics.Constants.co_pt;
        defect_rate = config.defect_rate;
        seed = config.seed;
      }
  in
  let pconfig =
    {
      Probe.Pdevice.n_tips;
      spare_tips = (if config.ras then ras_spare_tips else 0);
      costs = config.costs;
    }
  in
  let n_lines = Layout.n_lines layout in
  let line_dots = Layout.blocks_per_line layout * Layout.block_dots in
  (* Manufacturing defect density per physical line, fed to the health
     ledger as permanently at-risk symbols.  The clean-row bitmap makes
     the common (defect-free) line a single query. *)
  let defects_of_phys =
    Array.init n_lines (fun l ->
        let start = l * line_dots in
        if Pmedia.Medium.run_defect_free medium ~start ~len:line_dots then 0
        else begin
          let n = ref 0 in
          for d = start to start + line_dots - 1 do
            if Pmedia.Medium.is_defect medium d then incr n
          done;
          !n
        end)
  in
  let health = Health.create ~n_lines in
  Array.iteri (fun l n -> Health.set_defects health ~line:l n) defects_of_phys;
  {
    config;
    layout;
    pdevice = Probe.Pdevice.create ~config:pconfig medium;
    generations = Array.make config.n_blocks 0;
    heated = Array.make n_lines false;
    phys_line = Array.init n_lines (fun l -> l);
    log_of_phys = Array.init n_lines (fun l -> l);
    spare_pool =
      List.init config.endurance.spare_lines (fun i ->
          Layout.usable_lines layout + i);
    retired = Array.make n_lines false;
    health;
    defects_of_phys;
    dstate = Healthy;
    migrations = [];
    scratch = None;
    bytes_copied = 0;
    reads = 0;
    writes = 0;
    heats = 0;
    verifies = 0;
    retries = 0;
    retry_successes = 0;
    repulses = 0;
    remapped_tips = 0;
    scrub_rewrites = 0;
    torn_completions = 0;
    line_retirements = 0;
    reattest_failures = 0;
    mutation_listeners = [];
    fault_listeners = [];
  }

(* CoW device snapshot off a golden image.  The probe device clones
   copy-on-write ({!Probe.Pdevice.clone}); every mutable SERO-layer
   array deep-copies; immutable lists (spare pool, migration log — both
   only ever replaced wholesale) are shared.  Listener lists are
   deliberately {e not} inherited: a cache or campaign observer attached
   to the parent must never see (or mask) the clone's mutations, and
   clones can never share or launder tamper evidence through a common
   observer.  A parent's live injector is likewise never inherited
   (its PRNG cursor and ledger are the parent's history); [?plan] arms
   the clone with a {e fresh} injector of its own instead. *)
let clone ?plan t =
  let c =
    {
    config = t.config;
    layout = t.layout;
    pdevice = Probe.Pdevice.clone t.pdevice;
    generations = Array.copy t.generations;
    heated = Array.copy t.heated;
    phys_line = Array.copy t.phys_line;
    log_of_phys = Array.copy t.log_of_phys;
    spare_pool = t.spare_pool;
    retired = Array.copy t.retired;
    health = Health.copy t.health;
    defects_of_phys = t.defects_of_phys (* immutable after create *);
    dstate = t.dstate;
    migrations = t.migrations;
    scratch = None;
    bytes_copied = t.bytes_copied;
    reads = t.reads;
    writes = t.writes;
    heats = t.heats;
    verifies = t.verifies;
    retries = t.retries;
    retry_successes = t.retry_successes;
    repulses = t.repulses;
    remapped_tips = t.remapped_tips;
    scrub_rewrites = t.scrub_rewrites;
    torn_completions = t.torn_completions;
    line_retirements = t.line_retirements;
      reattest_failures = t.reattest_failures;
      mutation_listeners = [];
      fault_listeners = [];
    }
  in
  (match plan with
  | Some p -> Probe.Pdevice.install_fault c.pdevice (Fault.Injector.create p)
  | None -> ());
  c

let scratch t =
  match t.scratch with
  | Some s -> s
  | None ->
      let s = scratch_acquire () in
      t.scratch <- Some s;
      s

let park t =
  match t.scratch with
  | Some s ->
      t.scratch <- None;
      scratch_release s
  | None -> ()

let config t = t.config
let layout t = t.layout
let pdevice t = t.pdevice
let health t = t.health
let device_state t = t.dstate
let migrations t = t.migrations
let spares_left t = List.length t.spare_pool
let spare_pool t = t.spare_pool
let phys_of_line t ~line = t.phys_line.(line)
let bytes_copied t = t.bytes_copied

(* {1 Grown-defect address translation}

   Honest firmware addresses dots through the remap table, so a retired
   line's logical blocks transparently read from their new physical
   home; frames keep their logical PBAs, which is what lets a migrated
   line reproduce its burned hash.  The raw attacker surface below
   bypasses this (the attacker addresses the physical medium). *)

let phys_block t pba =
  let bpl = Layout.blocks_per_line t.layout in
  let line = pba / bpl in
  let p = Array.unsafe_get t.phys_line line in
  if p = line then pba else (p * bpl) + (pba - (line * bpl))

let block_start t pba = Layout.block_first_dot t.layout (phys_block t pba)

let wo_start t ~line =
  Layout.wo_first_dot t.layout ~line:t.phys_line.(line)

(* Whether every line touched by [pba .. pba+n-1] is identity-mapped:
   the precondition for the bulk packed span (physical contiguity). *)
let span_identity t ~pba ~n =
  let bpl = Layout.blocks_per_line t.layout in
  let first = pba / bpl and last = (pba + n - 1) / bpl in
  let ok = ref true in
  for l = first to last do
    if t.phys_line.(l) <> l then ok := false
  done;
  !ok

let quarantined t ~line =
  Layout.is_spare_line t.layout line && t.retired.(t.phys_line.(line))

let migration_from t ~phys =
  List.find_opt (fun m -> m.m_from = phys) t.migrations

let add_mutation_listener t f =
  t.mutation_listeners <- f :: t.mutation_listeners

let notify_mutation t ~pba ~n =
  List.iter (fun f -> f ~pba ~n) t.mutation_listeners

let on_fault_install t f = t.fault_listeners <- f :: t.fault_listeners
let fault_installed t = Probe.Pdevice.fault t.pdevice <> None

let install_fault t inj =
  (* Listeners run first, before the injector arms: a cache flushing
     write-behind data here still writes through a healthy device, so
     the medium a fault plan perturbs is the same one an uncached
     device would present. *)
  List.iter (fun f -> f ()) t.fault_listeners;
  Probe.Pdevice.install_fault t.pdevice inj

let clear_fault t = Probe.Pdevice.clear_fault t.pdevice

(* Remap every logical tip whose serving unit is broken onto the next
   healthy spare; returns how many remaps happened. *)
let service_failed_tips t =
  if not t.config.ras then 0
  else begin
    let tips = Probe.Pdevice.tips t.pdevice in
    let n = ref 0 in
    for i = 0 to Probe.Tips.n_tips tips - 1 do
      if Probe.Tips.tip_failed tips i && Probe.Tips.remap_tip tips i then begin
        incr n;
        t.remapped_tips <- t.remapped_tips + 1;
        Health.note_tip_remap t.health
      end
    done;
    !n
  end

(* {1 Magnetic sector ops} *)

type write_error = Reserved_hash_block | In_heated_line | Read_only_device

type read_error =
  | Blank
  | Unreadable of Codec.Sector.error
  | Wrong_location of int

let pp_write_error ppf = function
  | Reserved_hash_block ->
      Format.pp_print_string ppf "reserved hash block"
  | In_heated_line -> Format.pp_print_string ppf "line is read-only (heated)"
  | Read_only_device ->
      Format.pp_print_string ppf
        "device is read-only (endurance spares exhausted)"

let pp_read_error ppf = function
  | Blank -> Format.pp_print_string ppf "blank"
  | Unreadable e -> Format.fprintf ppf "unreadable (%a)" Codec.Sector.pp_error e
  | Wrong_location pba -> Format.fprintf ppf "frame belongs at PBA %d" pba

let frame_kind pba t =
  if Layout.is_hash_block t.layout pba then Codec.Sector.Hash_meta
  else Codec.Sector.Data

(* Write a block image at a physical first dot, straight from the
   encoded image bytes. *)
let write_image_at t ~start image =
  ignore
    (Probe.Pdevice.write_run_packed t.pdevice ~start ~len:Layout.block_dots
       ~src:image)

let unsafe_write_block t ~pba payload =
  t.writes <- t.writes + 1;
  t.generations.(pba) <- t.generations.(pba) + 1;
  let image =
    Codec.Sector.encode ~pba ~kind:(frame_kind pba t)
      ~generation:t.generations.(pba) payload
  in
  write_image_at t ~start:(block_start t pba) (Bytes.unsafe_of_string image);
  notify_mutation t ~pba ~n:1

let unsafe_write_raw t ~pba image =
  if String.length image <> Codec.Sector.physical_bytes then
    invalid_arg "Device.unsafe_write_raw: wrong image size";
  t.writes <- t.writes + 1;
  write_image_at t ~start:(block_start t pba) (Bytes.unsafe_of_string image);
  notify_mutation t ~pba ~n:1

(* Read the raw image of [pba] into [sc_image]. *)
let read_image_into_scratch t ~pba =
  t.reads <- t.reads + 1;
  ignore
    (Probe.Pdevice.read_run_packed t.pdevice ~start:(block_start t pba)
       ~len:Layout.block_dots ~dst:(scratch t).sc_image)

let read_raw_view t ~pba =
  read_image_into_scratch t ~pba;
  (scratch t).sc_image

let unsafe_read_raw t ~pba =
  read_image_into_scratch t ~pba;
  let image = (scratch t).sc_image in
  t.bytes_copied <- t.bytes_copied + Bytes.length image;
  Bytes.sub_string image 0 (Bytes.length image)

let write_block t ~pba payload =
  if t.dstate = Read_only then Error Read_only_device
  else if Layout.is_hash_block t.layout pba then Error Reserved_hash_block
  else if t.heated.(t.phys_line.(Layout.line_of_block t.layout pba)) then
    Error In_heated_line
  else begin
    unsafe_write_block t ~pba payload;
    Ok ()
  end

let all_zero_sub buf off len =
  let ok = ref true in
  for i = off to off + len - 1 do
    if Bytes.unsafe_get buf i <> '\x00' then ok := false
  done;
  !ok

(* Every sector decode feeds the health ledger — pure observation, so a
   health-enabled device still returns bit-identical results.  Decodes
   straight out of the caller's buffer (scratch image or span). *)
let decode_image_sub t ~pba buf ~off =
  let line = Layout.line_of_block t.layout pba in
  match Codec.Sector.decode_sub buf ~off with
  | Error e ->
      if all_zero_sub buf off Codec.Sector.physical_bytes then Error Blank
      else begin
        Health.note_unreadable t.health ~line;
        Error (Unreadable e)
      end
  | Ok d ->
      Health.note_decode t.health ~line
        ~corrected:d.Codec.Sector.corrected_symbols;
      if d.Codec.Sector.pba <> pba then Error (Wrong_location d.Codec.Sector.pba)
      else Ok d.Codec.Sector.payload

let read_block_once t ~pba =
  read_image_into_scratch t ~pba;
  decode_image_sub t ~pba (scratch t).sc_image ~off:0

(* Bounded read retry: transient flips decorrelate between attempts, so
   a re-read often lands within the RS budget.  A persistent failure may
   be a dead tip — remap to a spare (if configured) before retrying. *)
let ras_reread t ~pba first =
  ignore (service_failed_tips t);
  let line = Layout.line_of_block t.layout pba in
  let rec retry n last =
    if n >= read_retries then last
    else begin
      t.retries <- t.retries + 1;
      match read_block_once t ~pba with
      | Ok _ as ok ->
          t.retry_successes <- t.retry_successes + 1;
          Health.note_retry t.health ~line ~won:true;
          ok
      | Error Blank as b -> b
      | Error _ as e ->
          Health.note_retry t.health ~line ~won:false;
          retry (n + 1) e
    end
  in
  retry 0 first

let read_block t ~pba =
  match read_block_once t ~pba with
  | (Ok _ | Error Blank) as r -> r
  | Error _ as first ->
      if not t.config.ras then first else ras_reread t ~pba first

(* Coalesced sector reads: [n] consecutive blocks in one sled pass.
   When the span is on the lean packed dispatch (healthy tips, no
   faults, defect-free, and block boundaries aligned with scan rows so
   the per-offset charges land exactly as n single reads would), the
   span is read in one [read_run_packed] and sliced into frames;
   otherwise each block goes through the ordinary [read_block].  Either
   way, results, counters, ledger charges and PRNG draws match the
   sequential loop — the only divergence is {e when} RAS retries of a
   failing non-blank frame are issued (after the span instead of
   mid-pass), which can reorder retry seeks. *)
let read_blocks t ~pba ~n =
  if n <= 0 then invalid_arg "Device.read_blocks: n must be positive";
  if pba < 0 || pba + n > t.config.n_blocks then
    invalid_arg "Device.read_blocks: PBA range out of bounds";
  let bytes_per_block = Layout.block_dots / 8 in
  let len = n * Layout.block_dots in
  (* The span scratch is reused across calls (grown on demand, never
     shrunk) and is not live across a nested device call: the only
     device re-entry below, [ras_reread], reads through [sc_image]. *)
  let sc = scratch t in
  if n > 1 && Bytes.length sc.sc_span < n * bytes_per_block then
    sc.sc_span <- Bytes.create (n * bytes_per_block);
  let start = Layout.block_first_dot t.layout pba in
  if
    n > 1
    && Layout.block_dots mod n_tips = 0
    && span_identity t ~pba ~n
    && Probe.Pdevice.packed_read_lean t.pdevice ~start ~len
  then begin
    ignore (Probe.Pdevice.read_run_packed t.pdevice ~start ~len ~dst:sc.sc_span);
    t.reads <- t.reads + n;
    Array.init n (fun k ->
        let pba = pba + k in
        match decode_image_sub t ~pba sc.sc_span ~off:(k * bytes_per_block) with
        | (Ok _ | Error Blank) as r -> r
        | Error _ as first ->
            if not t.config.ras then first else ras_reread t ~pba first)
  end
  else Array.init n (fun k -> read_block t ~pba:(pba + k))

(* {1 The write-once area} *)

let wo_magic = 0x534C

(* Logical layout of the 256 Manchester-encoded bytes: 32-byte hash,
   then magic, line, data-block count and timestamp; the remainder is
   zero-filled so that {e every} cell of a burned area is non-blank and
   nothing can be burned in later without creating HH evidence. *)
let wo_payload ~hash ~line ~n_data ~timestamp =
  let w = Codec.Binio.W.create ~capacity:Layout.wo_area_bytes () in
  Codec.Binio.W.raw w (Hash.Sha256.to_raw hash);
  Codec.Binio.W.u16 w wo_magic;
  Codec.Binio.W.u32 w line;
  Codec.Binio.W.u16 w n_data;
  Codec.Binio.W.f64 w timestamp;
  let body = Codec.Binio.W.contents w in
  body ^ String.make (Layout.wo_area_bytes - String.length body) '\x00'

type burned_meta = {
  line : int;
  n_data_blocks : int;
  timestamp : float;
  hash : Hash.Sha256.t;
}

type torn = { burned_cells : int; partial_payload : string }

let parse_wo_payload payload =
  let r = Codec.Binio.R.of_string payload in
  match
    let hash = Hash.Sha256.of_raw (Codec.Binio.R.raw r 32) in
    let magic = Codec.Binio.R.u16 r in
    let line = Codec.Binio.R.u32 r in
    let n_data = Codec.Binio.R.u16 r in
    let timestamp = Codec.Binio.R.f64 r in
    (hash, magic, line, n_data, timestamp)
  with
  | exception Codec.Binio.R.Truncated -> None
  | hash, magic, line, n_data, timestamp ->
      if magic <> wo_magic then None
      else Some { line; n_data_blocks = n_data; timestamp; hash }

(* Electrically read a write-once area whose first dot is [start].

   The paper's erb sequence misreads a heated dot as unheated with
   probability 1/4 per invert/verify round (its two verification reads
   of a heated dot are random and can both agree by luck), so a naive
   single pass over 4096 dots regularly turns one heated dot of a
   legitimately burned area into a phantom blank cell.  The device
   therefore reads adaptively: a cheap first pass, then heavy re-probing
   of only the cells that decoded as blank.  After 2 + 24 rounds the
   residual miss probability per dot is 4^-26. *)
let escalation_cycles = 24

let read_wo_area t ~start =
  let sc = scratch t in
  let heated_dots = sc.sc_wo in
  Probe.Pdevice.erb_run_into t.pdevice ~start ~len:Layout.wo_area_dots
    ~dst:heated_dots;
  let decode () =
    Codec.Manchester.decode
      ~heated:(fun i -> heated_dots.(i))
      ~n_bytes:Layout.wo_area_bytes
  in
  let first = decode () in
  let n_cells = 8 * Layout.wo_area_bytes in
  let all_blank = first.Codec.Manchester.blank = n_cells in
  let decoded =
    if all_blank || first.Codec.Manchester.blank = 0 then first
    else begin
      (* Suspicious blanks inside a burned area: re-probe those cells'
         dots hard before believing them.  Re-probing a cell only
         touches its own two dots, so scanning for blanks while
         re-probing visits the same cells, in the same order, as the
         first decode found them. *)
      let probe = sc.sc_probe in
      for cell = 0 to n_cells - 1 do
        let d = 2 * cell in
        if not (heated_dots.(d) || heated_dots.(d + 1)) then begin
          Probe.Pdevice.erb_run_into ~cycles:escalation_cycles t.pdevice
            ~start:(start + d) ~len:2 ~dst:probe;
          heated_dots.(d) <- probe.(0);
          heated_dots.(d + 1) <- probe.(1)
        end
      done;
      decode ()
    end
  in
  let { Codec.Manchester.payload; blank; tampered } = decoded in
  if all_blank then `Not_heated
  else if tampered > 0 then `Tampered [ Tamper.Invalid_cells tampered ]
  else if blank > 0 then
    (* Burned and blank cells mixed, but no HH evidence anywhere: the
       signature of an interrupted or underpowered burn (cells are
       written low-to-high, so a power cut leaves a burned prefix;
       weak pulses leave isolated holes).  Verification still treats
       this as [Partially_burned] evidence; [heat_line] can complete
       it. *)
    `Torn { burned_cells = n_cells - blank; partial_payload = payload }
  else
    match parse_wo_payload payload with
    | None -> `Tampered [ Tamper.Meta_corrupt ]
    | Some meta -> `Burned meta

let read_hash_block t ~line = read_wo_area t ~start:(wo_start t ~line)

(* {1 Hashing} *)

let hash_prefix = "SERO-line-v1"

(* Big-endian, matching what {!Codec.Binio.W} would lay out — the hash
   preimage is unchanged; only the per-block writer allocation is
   gone. *)
let set_be32 b off v =
  Bytes.unsafe_set b off (Char.unsafe_chr ((v lsr 24) land 0xFF));
  Bytes.unsafe_set b (off + 1) (Char.unsafe_chr ((v lsr 16) land 0xFF));
  Bytes.unsafe_set b (off + 2) (Char.unsafe_chr ((v lsr 8) land 0xFF));
  Bytes.unsafe_set b (off + 3) (Char.unsafe_chr (v land 0xFF))

let line_hash_of_payloads ~line payloads =
  let ctx = Hash.Sha256.init () in
  Hash.Sha256.feed_string ctx hash_prefix;
  let b = Bytes.create 8 in
  set_be32 b 0 line;
  Hash.Sha256.feed_bytes ctx b 0 4;
  List.iter
    (fun (pba, payload) ->
      set_be32 b 0 (pba lsr 32);
      set_be32 b 4 pba;
      Hash.Sha256.feed_bytes ctx b 0 8;
      Hash.Sha256.feed_string ctx payload)
    payloads;
  Hash.Sha256.finalize ctx

(* Read the data blocks of a region, partitioning failures. *)
let read_region t ~data_pbas =
  List.fold_left
    (fun (ok, unreadable, relocated) pba ->
      match read_block t ~pba with
      | Ok payload -> ((pba, payload) :: ok, unreadable, relocated)
      | Error (Blank | Unreadable _) -> (ok, pba :: unreadable, relocated)
      | Error (Wrong_location _) -> (ok, unreadable, pba :: relocated))
    ([], [], []) data_pbas
  |> fun (ok, u, r) -> (List.rev ok, List.rev u, List.rev r)

(* Same partitioning over a whole line's data blocks without building
   the PBA list.  A line's data blocks are physically contiguous, so
   the whole line goes through one coalesced span read — one sled pass
   and one packed kernel call when the fast path holds, block-by-block
   otherwise. *)
let read_line t ~line =
  let first = Layout.first_data_block t.layout line in
  let n = Layout.data_blocks_per_line t.layout in
  let results = read_blocks t ~pba:first ~n in
  let ok = ref [] and unreadable = ref [] and relocated = ref [] in
  for k = n - 1 downto 0 do
    let pba = first + k in
    match results.(k) with
    | Ok payload -> ok := (pba, payload) :: !ok
    | Error (Blank | Unreadable _) -> unreadable := pba :: !unreadable
    | Error (Wrong_location _) -> relocated := pba :: !relocated
  done;
  (!ok, !unreadable, !relocated)

(* {1 Heat and verify} *)

type heat_error = Unreadable_data of int list | Already_heated | Burn_verify_failed

let pp_heat_error ppf = function
  | Unreadable_data pbas ->
      Format.fprintf ppf "unreadable data blocks: %a"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
           Format.pp_print_int)
        pbas
  | Already_heated -> Format.pp_print_string ppf "line already heated"
  | Burn_verify_failed -> Format.pp_print_string ppf "burn verification failed"

(* Only an ewb heats a dot, and every ewb goes through [heat_run] (or an
   image load, see [restore_endurance]).  A physical line is heated when
   its write-once area holds at least half a burn's heated dots (one per
   cell); a remap thus moves the bit with the medium.  Ewb collateral
   reaches one row (one block) either side of the run. *)
let recount_heated t ~start ~len =
  let medium = Probe.Pdevice.medium t.pdevice in
  let cols = Pmedia.Medium.cols medium in
  let line_dots = Layout.blocks_per_line t.layout * Layout.block_dots in
  let lo = max 0 (start - cols) in
  let hi = min (Pmedia.Medium.size medium) (start + len + cols) - 1 in
  for p = lo / line_dots to hi / line_dots do
    let heated_dots =
      Pmedia.Medium.count_heated_run medium
        ~start:(Layout.wo_first_dot t.layout ~line:p)
        ~len:Layout.wo_area_dots
    in
    t.heated.(p) <- 4 * heated_dots >= Layout.wo_area_dots
  done

(* A power cut mid-run leaves heated dots too: recount either way. *)
let heat_run t ~start pattern =
  Fun.protect
    ~finally:(fun () -> recount_heated t ~start ~len:(Array.length pattern))
    (fun () -> Probe.Pdevice.heat_run t.pdevice ~start pattern)

let burn_wo_area t ~start ~payload =
  heat_run t ~start (Codec.Manchester.encode payload)

(* Burn [payload] into [line]'s write-once area and read it back; with
   RAS, re-pulse while the readback still looks like an incomplete burn
   (blank or torn) rather than evidence.  Re-burning is idempotent: ewb
   on an already-heated dot is a no-op, so each attempt only fills the
   missing cells.  [true] once the area reads back as a burn of [hash]. *)
let burn_and_verify t ~line ~hash payload =
  let start = wo_start t ~line in
  let attempts = 1 + if t.config.ras then max_repulses else 0 in
  let rec go n =
    burn_wo_area t ~start ~payload;
    match read_hash_block t ~line with
    | `Burned meta when Hash.Sha256.equal meta.hash hash -> true
    | (`Not_heated | `Torn _) when n < attempts ->
        t.repulses <- t.repulses + 1;
        go (n + 1)
    | `Not_heated | `Torn _ | `Burned _ | `Tampered _ -> false
  in
  go 1

let heat_line_inner t ~line ~timestamp =
  t.heats <- t.heats + 1;
  let payloads, unreadable, relocated = read_line t ~line in
  if unreadable <> [] || relocated <> [] then
    Error (Unreadable_data (unreadable @ relocated))
  else begin
    let hash = line_hash_of_payloads ~line payloads in
    let burn payload =
      if burn_and_verify t ~line ~hash payload then Ok hash
      else Error Burn_verify_failed
    in
    match read_hash_block t ~line with
    | `Burned meta when Hash.Sha256.equal meta.hash hash ->
        (* Idempotent re-heat: the burn pattern is already present. *)
        Ok hash
    | `Burned _ | `Tampered _ -> Error Already_heated
    | `Torn partial ->
        (* Torn-burn completion.  If the burned prefix covers the
           metadata, keep the original timestamp; the recomputed
           pattern must agree with every already-burned cell or the
           completion itself creates HH evidence and fails verify —
           data changed under a torn line stays detectable. *)
        let timestamp =
          match parse_wo_payload partial.partial_payload with
          | Some meta when meta.line = line -> meta.timestamp
          | Some _ | None -> timestamp
        in
        let payload =
          wo_payload ~hash ~line ~n_data:(List.length payloads) ~timestamp
        in
        Result.map
          (fun h ->
            t.torn_completions <- t.torn_completions + 1;
            h)
          (burn payload)
    | `Not_heated ->
        burn (wo_payload ~hash ~line ~n_data:(List.length payloads) ~timestamp)
  end

let heat_line t ~line ?(timestamp = 0.) () =
  let r = heat_line_inner t ~line ~timestamp in
  (* A successful heat (fresh burn, torn completion, or idempotent
     re-heat) freezes the line and burns its write-once area: anything
     cached for those blocks must now be re-read from the medium. *)
  (match r with
  | Ok _ ->
      notify_mutation t
        ~pba:(Layout.hash_block_of_line t.layout line)
        ~n:(Layout.blocks_per_line t.layout)
  | Error _ -> ());
  r

let verify_payloads ~hash ~region_id (payloads, unreadable, relocated) =
  let evidence = ref [] in
  if relocated <> [] then evidence := [ Tamper.Address_mismatch relocated ];
  if unreadable <> [] then
    evidence := Tamper.Data_unreadable unreadable :: !evidence;
  if !evidence <> [] then Tamper.Tampered !evidence
  else begin
    let computed = line_hash_of_payloads ~line:region_id payloads in
    if Hash.Sha256.equal computed hash then Tamper.Intact
    else Tamper.Tampered [ Tamper.Hash_mismatch ]
  end

let verify_data_against t ~hash ~region_id ~data_pbas =
  verify_payloads ~hash ~region_id (read_region t ~data_pbas)

(* A quarantined carcass is judged against its migration link, never
   against its (decaying, superseded) data: the burn must still carry
   the hash that was re-attested at the line's new home.  An attacker
   altering either copy of the evidence chain therefore still shows. *)
let verify_carcass t ~line =
  match migration_from t ~phys:t.phys_line.(line) with
  | None -> Tamper.Tampered [ Tamper.Meta_corrupt ]
  | Some m -> (
      match (read_hash_block t ~line, m.m_hash) with
      | `Not_heated, None -> Tamper.Not_heated
      | `Burned meta, Some h
        when meta.line = m.m_line && Hash.Sha256.equal meta.hash h ->
          Tamper.Intact
      | `Torn _, _ -> Tamper.Tampered [ Tamper.Partially_burned ]
      | `Tampered evs, _ -> Tamper.Tampered evs
      | (`Not_heated | `Burned _), _ ->
          Tamper.Tampered [ Tamper.Meta_corrupt ])

(* The verdict on any write-once readback but a clean burn, which each
   caller judges itself (a match arm, not a closure: verify is hot). *)
let unburned_verdict = function
  | `Not_heated -> Tamper.Not_heated
  | `Tampered evs -> Tamper.Tampered evs
  | `Torn _ ->
      (* Until completed, a torn burn is indistinguishable from an
         interrupted forgery: report it. *)
      Tamper.Tampered [ Tamper.Partially_burned ]

let verify_line t ~line =
  t.verifies <- t.verifies + 1;
  if quarantined t ~line then verify_carcass t ~line
  else
    match read_hash_block t ~line with
    | (`Not_heated | `Tampered _ | `Torn _) as r -> unburned_verdict r
    | `Burned meta ->
        if meta.line <> line then Tamper.Tampered [ Tamper.Meta_corrupt ]
        else verify_payloads ~hash:meta.hash ~region_id:line (read_line t ~line)

let verify_region t ~hash_pba ~data_pbas =
  t.verifies <- t.verifies + 1;
  let aligned = Layout.is_hash_block t.layout hash_pba in
  if t.config.strict_hash_locations && not aligned then
    (* The device insists hashes live at known physical addresses; a
       claimed hash anywhere else is itself evidence (Section 5.1). *)
    Tamper.Tampered [ Tamper.Address_mismatch [ hash_pba ] ]
  else
    match read_wo_area t ~start:(block_start t hash_pba) with
    | (`Not_heated | `Tampered _ | `Torn _) as r -> unburned_verdict r
    | `Burned meta ->
        verify_data_against t ~hash:meta.hash ~region_id:meta.line ~data_pbas

let is_line_heated t ~line = t.heated.(t.phys_line.(line))

(* {1 Whole-device operations} *)

type scan_entry = { scanned_line : int; verdict : Tamper.verdict }

let scan ?(deep = false) t =
  List.init (Layout.n_lines t.layout) (fun line ->
      let verdict =
        if quarantined t ~line then verify_carcass t ~line
        else
          match read_hash_block t ~line with
          | (`Not_heated | `Tampered _ | `Torn _) as r -> unburned_verdict r
          | `Burned _ -> if deep then verify_line t ~line else Tamper.Intact
      in
      { scanned_line = line; verdict })

type block_class =
  | Healthy
  | Heated_block
  | Torn_block
  | Bad_block
  | Retired_block

let pp_block_class ppf c =
  Format.pp_print_string ppf
    (match c with
    | Healthy -> "healthy"
    | Heated_block -> "heated"
    | Torn_block -> "torn"
    | Bad_block -> "bad"
    | Retired_block -> "retired")

let classify_block t ~pba =
  (* The spare region is owned by the endurance layer: pristine spares
     and retired carcasses alike must not be reported as bad blocks by
     fsck or scrub inventories. *)
  if Layout.is_spare_line t.layout (Layout.line_of_block t.layout pba) then
    Retired_block
  else
    match read_block t ~pba with
  | Ok _ | Error Blank -> Healthy
  | Error (Unreadable _ | Wrong_location _) -> (
      (* A hash block with a half-burned write-once area is a torn
         burn — recoverable by re-running heat_line — not a heated or
         bad block. *)
      let torn_hash_area () =
        if not (Layout.is_hash_block t.layout pba) then None
        else
          match read_hash_block t ~line:(Layout.line_of_block t.layout pba) with
          | `Torn _ -> Some Torn_block
          | `Burned _ -> Some Heated_block
          | `Not_heated | `Tampered _ -> None
      in
      match torn_hash_area () with
      | Some c -> c
      | None ->
          (* Probe a sample of the block's dots electrically: heated dots
             answer the erb protocol as heated, defective-but-magnetic
             dots do not. *)
          let start = block_start t pba in
          let sample = 128 in
          let heated = Probe.Pdevice.erb_run t.pdevice ~start ~len:sample in
          let n =
            Array.fold_left (fun acc h -> if h then acc + 1 else acc) 0 heated
          in
          if 4 * n >= sample then Heated_block else Bad_block)

type stats = {
  n_lines : int;
  heated_lines : int;
  ro_fraction : float;
  wmrm_data_blocks_left : int;
  heated_runs : int;
  elapsed : float;
  energy : float;
  reads : int;
  writes : int;
  heats : int;
  verifies : int;
  collateral_damage : int;
  retries : int;
  retry_successes : int;
  repulses : int;
  remapped_tips : int;
  scrub_rewrites : int;
  torn_completions : int;
  line_retirements : int;
  reattest_failures : int;
  spare_lines_left : int;
  state : device_state;
}

let stats t =
  let n_lines = Layout.n_lines t.layout in
  let heated_lines = Array.fold_left (fun a b -> if b then a + 1 else a) 0 t.heated in
  let runs = ref 0 in
  for i = 0 to n_lines - 1 do
    if is_line_heated t ~line:i && (i = 0 || not (is_line_heated t ~line:(i - 1)))
    then incr runs
  done;
  let counters = Pmedia.Bitops.counters (Probe.Pdevice.bitops t.pdevice) in
  {
    n_lines;
    heated_lines;
    ro_fraction = float_of_int heated_lines /. float_of_int n_lines;
    wmrm_data_blocks_left =
      (n_lines - heated_lines) * Layout.data_blocks_per_line t.layout;
    heated_runs = !runs;
    elapsed = Probe.Pdevice.elapsed t.pdevice;
    energy = Probe.Pdevice.energy t.pdevice;
    reads = t.reads;
    writes = t.writes;
    heats = t.heats;
    verifies = t.verifies;
    collateral_damage = counters.Pmedia.Bitops.collateral;
    retries = t.retries;
    retry_successes = t.retry_successes;
    repulses = t.repulses;
    remapped_tips = t.remapped_tips;
    scrub_rewrites = t.scrub_rewrites;
    torn_completions = t.torn_completions;
    line_retirements = t.line_retirements;
    reattest_failures = t.reattest_failures;
    spare_lines_left = List.length t.spare_pool;
    state = t.dstate;
  }

let is_fully_ro t = Array.for_all (fun h -> h) t.heated

(* Scrub-initiated rewrite of a decaying (but still correctable) sector:
   same payload, fresh frame, so the accumulated symbol errors reset. *)
let scrub_rewrite_block (t : t) ~pba payload =
  t.scrub_rewrites <- t.scrub_rewrites + 1;
  unsafe_write_block t ~pba payload

let pp_stats ppf s =
  Format.fprintf ppf
    "lines=%d heated=%d (%.1f%% RO, %d runs) wmrm-data-blocks=%d@ \
     ops: %d reads, %d writes, %d heats, %d verifies@ \
     simulated: %.3f s, %.3g J, %d collateral dots@ \
     ras: %d retries (%d won), %d re-pulses, %d remapped tips, %d scrub \
     rewrites, %d torn completions@ \
     endurance: %a, %d retirements (%d re-attest failures), %d spares left"
    s.n_lines s.heated_lines (100. *. s.ro_fraction) s.heated_runs
    s.wmrm_data_blocks_left s.reads s.writes s.heats s.verifies s.elapsed
    s.energy s.collateral_damage s.retries s.retry_successes s.repulses
    s.remapped_tips s.scrub_rewrites s.torn_completions pp_device_state
    s.state s.line_retirements s.reattest_failures s.spare_lines_left

(* {1 Endurance lifecycle: evacuate-and-re-attest migration} *)

type migrate_error =
  | No_spare
  | Line_quarantined
  | Source_unreadable of int list
  | Reattest_failed

let pp_migrate_error ppf = function
  | No_spare -> Format.pp_print_string ppf "no spare line left"
  | Line_quarantined ->
      Format.pp_print_string ppf "line is quarantined (already a carcass)"
  | Source_unreadable pbas ->
      Format.fprintf ppf "source blocks unreadable: %a"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
           Format.pp_print_int)
        pbas
  | Reattest_failed ->
      Format.pp_print_string ppf
        "re-attestation failed (evidence would not survive the move)"

(* Write a frame carrying the {e logical} [pba] at an explicit physical
   block — the copy primitive of migration.  Bumps the generation like
   any rewrite of the block. *)
let write_frame_at_phys (t : t) ~pba ~phys_pba payload =
  t.writes <- t.writes + 1;
  t.generations.(pba) <- t.generations.(pba) + 1;
  let image =
    Codec.Sector.encode ~pba ~kind:(frame_kind pba t)
      ~generation:t.generations.(pba) payload
  in
  write_image_at t
    ~start:(Layout.block_first_dot t.layout phys_pba)
    (Bytes.unsafe_of_string image)

let blank_block_at_phys (t : t) ~phys_pba =
  t.writes <- t.writes + 1;
  write_image_at t
    ~start:(Layout.block_first_dot t.layout phys_pba)
    zero_image

let update_state t =
  if t.config.endurance.health_enabled && t.spare_pool = [] then begin
    if t.dstate = Healthy && t.line_retirements > 0 then t.dstate <- Degraded;
    (* A critically weak line (its observed error level already consumes
       the whole RS budget) with nowhere to go: stop taking writes so
       what is still readable stays readable. *)
    let critical = ref false in
    for l = 0 to Layout.usable_lines t.layout - 1 do
      if Health.margin t.health ~line:l <= 0. then critical := true
    done;
    if !critical then t.dstate <- Read_only
  end

(* Relocate logical line [line] onto a fresh spare.

   Crash-ordering (the simulation keeps device state across a power
   cut, modelling a remap table persisted before the burn):
   1. read every data payload through the current mapping;
   2. pre-image the spare: each data slot gets its frame (logical PBA,
      bumped generation) or an explicit blank — a cut here leaves the
      mapping untouched, the old line still serves;
   3. swap the remap entries (the commit point) and quarantine the
      carcass;
   4. for a heated line, re-burn the {e original} hash/metadata at the
      new home — a cut mid-burn leaves a torn area over complete,
      matching data, which {!heat_line} (via [Fs.recover]) completes to
      the identical hash and timestamp.

   A heated line whose data no longer matches its burned hash, or whose
   write-once area is torn/tampered, is {e not} migrated: moving it
   would launder the tamper evidence ([Reattest_failed]). *)
let evacuate_line t ~line ?(timestamp = 0.) () =
  if line < 0 || line >= Layout.usable_lines t.layout then
    invalid_arg "Device.evacuate_line: not a usable line";
  if quarantined t ~line || t.retired.(t.phys_line.(line)) then
    Error Line_quarantined
  else
    match t.spare_pool with
    | [] ->
        update_state t;
        Error No_spare
    | spare :: rest -> (
        (* Like [read_line], but a blank block is a legal empty slot to
           carry across, not a loss. *)
        let payloads = ref [] and bad = ref [] in
        Layout.iter_data_blocks t.layout line (fun pba ->
            match read_block t ~pba with
            | Ok payload -> payloads := (pba, payload) :: !payloads
            | Error Blank -> ()
            | Error (Unreadable _ | Wrong_location _) -> bad := pba :: !bad);
        let payloads = List.rev !payloads and bad = List.rev !bad in
        if bad <> [] then Error (Source_unreadable bad)
        else
          let wo = read_hash_block t ~line in
          let proceed meta_opt =
            let bpl = Layout.blocks_per_line t.layout in
            (* 2: pre-image every data slot of the spare. *)
            Layout.iter_data_blocks t.layout line (fun pba ->
                let phys_pba = (spare * bpl) + (pba mod bpl) in
                match List.assoc_opt pba payloads with
                | Some payload -> write_frame_at_phys t ~pba ~phys_pba payload
                | None -> blank_block_at_phys t ~phys_pba);
            (* 3: commit — swap the permutation entries. *)
            let old_phys = t.phys_line.(line) in
            let spare_logical = t.log_of_phys.(spare) in
            t.phys_line.(line) <- spare;
            t.log_of_phys.(spare) <- line;
            t.phys_line.(spare_logical) <- old_phys;
            t.log_of_phys.(old_phys) <- spare_logical;
            t.spare_pool <- rest;
            t.retired.(old_phys) <- true;
            t.line_retirements <- t.line_retirements + 1;
            let m =
              {
                m_line = line;
                m_from = old_phys;
                m_to = spare;
                m_hash =
                  Option.map (fun (m : burned_meta) -> m.hash) meta_opt;
                m_timestamp = timestamp;
              }
            in
            t.migrations <- t.migrations @ [ m ];
            (* The line reads from fresh medium now: forget its error
               history, keep the new home's manufacturing defects. *)
            Health.reset_line t.health ~line
              ~defect_dots:t.defects_of_phys.(spare);
            let finish r =
              update_state t;
              notify_mutation t
                ~pba:(Layout.hash_block_of_line t.layout line)
                ~n:bpl;
              notify_mutation t
                ~pba:(Layout.hash_block_of_line t.layout spare_logical)
                ~n:bpl;
              r
            in
            match meta_opt with
            | None -> finish (Ok m)
            | Some (meta : burned_meta) ->
                (* 4: re-attest — burn the original hash and metadata at
                   the new write-once area and verify the burn. *)
                let payload =
                  wo_payload ~hash:meta.hash ~line
                    ~n_data:meta.n_data_blocks ~timestamp:meta.timestamp
                in
                if burn_and_verify t ~line ~hash:meta.hash payload then
                  finish (Ok m)
                else begin
                  t.reattest_failures <- t.reattest_failures + 1;
                  finish (Error Reattest_failed)
                end
          in
          match wo with
          | `Not_heated -> proceed None
          | `Burned meta ->
              (* The evidence chain must survive the move: the data just
                 read has to reproduce the burned hash before the copy
                 is allowed to supersede it. *)
              let computed = line_hash_of_payloads ~line payloads in
              if
                meta.line = line && Hash.Sha256.equal computed meta.hash
              then proceed (Some meta)
              else begin
                t.reattest_failures <- t.reattest_failures + 1;
                Error Reattest_failed
              end
          | `Torn _ | `Tampered _ ->
              t.reattest_failures <- t.reattest_failures + 1;
              Error Reattest_failed)

let line_margin t ~line = Health.margin t.health ~line

let line_due t ~line =
  t.config.endurance.health_enabled
  && line < Layout.usable_lines t.layout
  && (not (t.retired.(t.phys_line.(line))))
  && Health.margin t.health ~line <= t.config.endurance.retire_margin

let next_due t =
  if not t.config.endurance.health_enabled then None
  else
    match
      Health.weakest ~limit:(Layout.usable_lines t.layout) t.health
    with
    | Some (line, margin)
      when margin <= t.config.endurance.retire_margin
           && not t.retired.(t.phys_line.(line)) ->
        Some line
    | _ -> None

(* One maintenance sweep: evacuate every due line, weakest first, while
   spares last.  A line whose evacuation fails (tamper-evident source,
   unreadable blocks) is skipped rather than blocking the rest.
   Returns the performed migrations in order. *)
let maintenance t ?(timestamp = 0.) () =
  let ms =
    if not t.config.endurance.health_enabled then []
    else begin
      let due =
        Health.lines_at_or_below
          ~limit:(Layout.usable_lines t.layout)
          t.health t.config.endurance.retire_margin
        |> List.filter (fun line -> not t.retired.(t.phys_line.(line)))
        |> List.sort (fun a b ->
               compare
                 (Health.margin t.health ~line:a, a)
                 (Health.margin t.health ~line:b, b))
      in
      List.filter_map
        (fun line ->
          match evacuate_line t ~line ~timestamp () with
          | Ok m -> Some m
          | Error _ -> None)
        due
    end
  in
  update_state t;
  ms

(* {1 Raw attacker surface} *)

(* The splicing attacker of Section 5.1 knows the WO format and can
   compute hashes; forging a plausible burned area anywhere is within
   the threat model.  Only the physical-address discipline defeats it. *)
let unsafe_forge_burn t ~hash_pba ~data_pbas ~claim_line =
  let payloads =
    List.filter_map
      (fun pba ->
        match read_block t ~pba with
        | Ok payload -> Some (pba, payload)
        | Error _ -> None)
      data_pbas
  in
  let hash = line_hash_of_payloads ~line:claim_line payloads in
  let payload =
    wo_payload ~hash ~line:claim_line ~n_data:(List.length payloads)
      ~timestamp:0.
  in
  burn_wo_area t ~start:(Layout.block_first_dot t.layout hash_pba) ~payload;
  notify_mutation t ~pba:hash_pba ~n:1

let unsafe_heat_dots t ~dot ~n =
  heat_run t ~start:dot (Array.make n true);
  let first = dot / Layout.block_dots in
  let last = min (t.config.n_blocks - 1) ((dot + n - 1) / Layout.block_dots) in
  notify_mutation t ~pba:first ~n:(last - first + 1)

let unsafe_magnetic_wipe t =
  let medium = Probe.Pdevice.medium t.pdevice in
  let n = Pmedia.Medium.size medium in
  for i = 0 to n - 1 do
    match Pmedia.Medium.get medium i with
    | Pmedia.Dot.Heated -> () (* no perpendicular axis left to erase *)
    | Pmedia.Dot.Magnetised _ ->
        Pmedia.Medium.set medium i (Pmedia.Dot.Magnetised Pmedia.Dot.Down)
  done;
  notify_mutation t ~pba:0 ~n:t.config.n_blocks

(* {1 Image persistence hooks} *)

let restore_endurance t ~phys_line ~spare_pool ~migrations ~state =
  let n_lines = Layout.n_lines t.layout in
  if Array.length phys_line <> n_lines then
    invalid_arg "Device.restore_endurance: remap table arity mismatch";
  Array.blit phys_line 0 t.phys_line 0 n_lines;
  Array.iteri (fun l p -> t.log_of_phys.(p) <- l) t.phys_line;
  Array.fill t.retired 0 n_lines false;
  List.iter (fun m -> t.retired.(m.m_from) <- true) migrations;
  t.spare_pool <- spare_pool;
  t.migrations <- migrations;
  t.line_retirements <- List.length migrations;
  t.dstate <- state;
  recount_heated t ~start:0
    ~len:(Pmedia.Medium.size (Probe.Pdevice.medium t.pdevice))
