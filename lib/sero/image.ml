let magic = "SEROIMG5"

let write_float = Codec.Binio.W.f64
let read_float = Codec.Binio.R.f64

let dstate_code = function
  | Device.Healthy -> 0
  | Device.Degraded -> 1
  | Device.Read_only -> 2

let dstate_of_code = function
  | 0 -> Device.Healthy
  | 1 -> Device.Degraded
  | 2 -> Device.Read_only
  | _ -> failwith "bad device state"

let write_endurance w (dev : Device.t) =
  let cfg = Device.config dev in
  let lay = Device.layout dev in
  let e = cfg.Device.endurance in
  Codec.Binio.W.u8 w (if e.Device.health_enabled then 1 else 0);
  write_float w e.Device.retire_margin;
  Codec.Binio.W.u16 w e.Device.spare_lines;
  Codec.Binio.W.u8 w (dstate_code (Device.device_state dev));
  let n_lines = Layout.n_lines lay in
  for l = 0 to n_lines - 1 do
    Codec.Binio.W.u32 w (Device.phys_of_line dev ~line:l)
  done;
  let pool = Device.spare_pool dev in
  Codec.Binio.W.u16 w (List.length pool);
  List.iter (Codec.Binio.W.u32 w) pool;
  let health = Device.health dev in
  for l = 0 to n_lines - 1 do
    let h = Health.line health ~line:l in
    write_float w h.Health.ewma_corrected;
    Codec.Binio.W.u32 w h.Health.reads;
    Codec.Binio.W.u32 w h.Health.retries;
    Codec.Binio.W.u32 w h.Health.retry_wins;
    Codec.Binio.W.u32 w h.Health.unreadable;
    Codec.Binio.W.u32 w h.Health.defect_dots
  done;
  Codec.Binio.W.u32 w (Health.tip_remaps health);
  let migrations = Device.migrations dev in
  Codec.Binio.W.u16 w (List.length migrations);
  List.iter
    (fun (m : Device.migration) ->
      Codec.Binio.W.u32 w m.Device.m_line;
      Codec.Binio.W.u32 w m.Device.m_from;
      Codec.Binio.W.u32 w m.Device.m_to;
      (* The heated flag and the has-hash byte: one fact, stored twice. *)
      let flag = if Option.is_some m.Device.m_hash then 1 else 0 in
      Codec.Binio.W.u8 w flag;
      Codec.Binio.W.u8 w flag;
      Codec.Binio.W.raw w
        (match m.Device.m_hash with
        | None -> String.make 32 '\x00'
        | Some h -> Hash.Sha256.to_raw h);
      write_float w m.Device.m_timestamp)
    migrations

let read_endurance_config r =
  let health_enabled = Codec.Binio.R.u8 r = 1 in
  let retire_margin = read_float r in
  let spare_lines = Codec.Binio.R.u16 r in
  { Device.health_enabled; spare_lines; retire_margin }

(* The device must already exist (the remap table length is the line
   count, known only from the geometry fields read before it).  Returns
   what {!Device.restore_endurance} takes once the medium is loaded. *)
let read_endurance_state r (dev : Device.t) =
  let lay = Device.layout dev in
  let n_lines = Layout.n_lines lay in
  let state = dstate_of_code (Codec.Binio.R.u8 r) in
  let phys_line = Array.init n_lines (fun _ -> Codec.Binio.R.u32 r) in
  let n_pool = Codec.Binio.R.u16 r in
  let spare_pool = List.init n_pool (fun _ -> Codec.Binio.R.u32 r) in
  let health = Device.health dev in
  for l = 0 to n_lines - 1 do
    let ewma = read_float r in
    let reads = Codec.Binio.R.u32 r in
    let retries = Codec.Binio.R.u32 r in
    let retry_wins = Codec.Binio.R.u32 r in
    let unreadable = Codec.Binio.R.u32 r in
    let defect_dots = Codec.Binio.R.u32 r in
    Health.restore_line health ~line:l ~ewma ~reads ~retries ~retry_wins
      ~unreadable ~defect_dots
  done;
  Health.set_tip_remaps health (Codec.Binio.R.u32 r);
  let n_migrations = Codec.Binio.R.u16 r in
  let migrations =
    List.init n_migrations (fun _ ->
        let m_line = Codec.Binio.R.u32 r in
        let m_from = Codec.Binio.R.u32 r in
        let m_to = Codec.Binio.R.u32 r in
        let heated = Codec.Binio.R.u8 r = 1 in
        let has_hash = Codec.Binio.R.u8 r = 1 in
        if heated <> has_hash then
          failwith "migration heated flag disagrees with its hash";
        let raw_hash = Codec.Binio.R.raw r 32 in
        let m_hash =
          if has_hash then Some (Hash.Sha256.of_raw raw_hash) else None
        in
        let m_timestamp = read_float r in
        { Device.m_line; m_from; m_to; m_hash; m_timestamp })
  in
  (phys_line, spare_pool, migrations, state)

let save (dev : Device.t) path =
  let cfg = Device.config dev in
  let medium = Probe.Pdevice.medium (Device.pdevice dev) in
  let w = Codec.Binio.W.create ~capacity:4096 () in
  Codec.Binio.W.raw w magic;
  Codec.Binio.W.u32 w cfg.Device.n_blocks;
  Codec.Binio.W.u8 w cfg.Device.line_exp;
  Codec.Binio.W.u32 w cfg.Device.seed;
  write_float w cfg.Device.defect_rate;
  (* Geometry *)
  write_float w cfg.Device.geometry.Physics.Constants.diameter;
  write_float w cfg.Device.geometry.Physics.Constants.thickness;
  write_float w cfg.Device.geometry.Physics.Constants.pitch;
  Codec.Binio.W.u8 w (if cfg.Device.strict_hash_locations then 1 else 0);
  Codec.Binio.W.u8 w (if cfg.Device.ras then 1 else 0);
  (* Endurance lifecycle: config, remap table, spare pool, health
     ledger, grown-defect list. *)
  write_endurance w dev;
  (* Dot states: 2 bits per dot, packed as the oracle sees them.  The
     medium's packed store already holds exactly this encoding (codes
     0/1/2, reserved code 3 unrepresentable), so the states section is
     streamed straight out of the store in chunks — O(chunk) memory
     however large the device — and the file stays byte-identical to
     the per-dot writer this replaces.  [u32 n] then [u32 length ^
     bytes] reproduce what [W.str] would have framed. *)
  let n = Pmedia.Medium.size medium in
  Codec.Binio.W.u32 w n;
  let packed_len = Pmedia.Medium.packed_length medium in
  Codec.Binio.W.u32 w packed_len;
  let header = Codec.Binio.W.contents w in
  (* The trailing CRC covers header and states; chain it across the
     chunks. *)
  let crc = ref (Codec.Crc32.string header) in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc header;
      let chunk = Bytes.create (min packed_len 65536) in
      let pos = ref 0 in
      while !pos < packed_len do
        let len = min (Bytes.length chunk) (packed_len - !pos) in
        Pmedia.Medium.blit_packed medium ~pos:!pos ~dst:chunk ~dst_off:0 ~len;
        crc := Codec.Crc32.bytes ~crc:!crc chunk 0 len;
        output_bytes oc (Bytes.sub chunk 0 len);
        pos := !pos + len
      done;
      let tail = Codec.Binio.W.create () in
      Codec.Binio.W.u32 tail (Int32.to_int !crc land 0xFFFFFFFF);
      output_string oc (Codec.Binio.W.contents tail))

(* Streaming loader: two passes over the file, O(chunk) memory for the
   states section however large the device.  Pass 1 pipes the body
   through the CRC so a corrupt file reports "image checksum mismatch"
   before any parse error, exactly like the whole-file loader this
   replaces.  Pass 2 parses the header region — everything up to the
   packed states, whose size is pinned by the block count sitting at
   fixed byte offset 8, right after the 8-byte magic — then streams the
   states straight into the medium's packed store. *)

let chunk_size = 65536

let crc_of_channel ic ~len =
  let chunk = Bytes.create (min chunk_size (max len 1)) in
  let crc = ref 0l in
  let pos = ref 0 in
  while !pos < len do
    let k = min (Bytes.length chunk) (len - !pos) in
    really_input ic chunk 0 k;
    crc := Codec.Crc32.bytes ~crc:!crc chunk 0 k;
    pos := !pos + k
  done;
  Int32.to_int !crc land 0xFFFFFFFF

let be32_at ic ~pos =
  seek_in ic pos;
  let s = really_input_string ic 4 in
  Codec.Binio.R.u32 (Codec.Binio.R.of_string s)

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let file_len = in_channel_length ic in
        if file_len < 12 then Error "image too short"
        else begin
          let body_len = file_len - 4 in
          let crc = crc_of_channel ic ~len:body_len in
          let stored_crc = be32_at ic ~pos:body_len in
          if crc <> stored_crc then Error "image checksum mismatch"
          else begin
            let n_blocks_hint = be32_at ic ~pos:8 in
            let packed_len = ((n_blocks_hint * Layout.block_dots) + 3) / 4 in
            let header_len = body_len - packed_len in
            if header_len < 12 then Error "image truncated"
            else begin
              seek_in ic 0;
              let r =
                Codec.Binio.R.of_string (really_input_string ic header_len)
              in
              match
            let m = Codec.Binio.R.raw r (String.length magic) in
            if not (String.equal m magic) then failwith "bad magic";
            let n_blocks = Codec.Binio.R.u32 r in
            let line_exp = Codec.Binio.R.u8 r in
            let seed = Codec.Binio.R.u32 r in
            let defect_rate = read_float r in
            let diameter = read_float r in
            let thickness = read_float r in
            let pitch = read_float r in
            let strict = Codec.Binio.R.u8 r = 1 in
            let ras = Codec.Binio.R.u8 r = 1 in
            let endurance = read_endurance_config r in
            let config =
              {
                Device.n_blocks;
                line_exp;
                seed;
                defect_rate;
                geometry = { Physics.Constants.diameter; thickness; pitch };
                costs = Probe.Timing.default_costs;
                strict_hash_locations = strict;
                ras;
                endurance;
              }
            in
            let config =
              match Device.validate_config config with
              | Ok c -> c
              | Error e -> failwith e
            in
            let dev = Device.create config in
            let phys_line, spare_pool, migrations, state =
              read_endurance_state r dev
            in
            let n = Codec.Binio.R.u32 r in
            let plen = Codec.Binio.R.u32 r in
            let medium = Probe.Pdevice.medium (Device.pdevice dev) in
            (* The dot-count field is u32 and redundant with the header's
               n_blocks (which sized the medium); on multi-GB media it
               wraps, so compare modulo 2^32. *)
            if Pmedia.Medium.size medium land 0xFFFFFFFF <> n then
              failwith "size mismatch";
            if plen <> packed_len then failwith "size mismatch";
            (* The channel sits right after the header region: stream
               the states section into the store chunk by chunk. *)
            let chunk = Bytes.create (min chunk_size (max packed_len 1)) in
            let pos = ref 0 in
            while !pos < packed_len do
              let k = min (Bytes.length chunk) (packed_len - !pos) in
              really_input ic chunk 0 k;
              Pmedia.Medium.load_packed medium ~pos:!pos ~src:chunk
                ~src_off:0 ~len:k;
              pos := !pos + k
            done;
            Pmedia.Medium.recount_heated medium;
            Device.restore_endurance dev ~phys_line ~spare_pool ~migrations
              ~state;
            dev
          with
          | exception Failure e -> Error e
          | exception Codec.Binio.R.Truncated -> Error "image truncated"
          | dev -> Ok dev
            end
          end
        end)
  with
  | exception Sys_error e -> Error e
  | result -> result
