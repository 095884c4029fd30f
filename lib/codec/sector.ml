let payload_bytes = 512
let header_bytes = 16
let crc_bytes = 4
let framed_bytes = header_bytes + payload_bytes + crc_bytes (* 532 *)
let rs_code = Rs.make ~nparity:24
let physical_bytes = Rs.encoded_length rs_code framed_bytes (* 604 *)
let physical_bits = 8 * physical_bytes
let overhead_fraction = 1. -. (float_of_int payload_bytes /. float_of_int physical_bytes)
let magic = 0x5E20 (* "SERO" sector magic *)

type kind = Data | Inode | Summary | Checkpoint | Hash_meta

let kind_to_int = function
  | Data -> 0
  | Inode -> 1
  | Summary -> 2
  | Checkpoint -> 3
  | Hash_meta -> 4

let kind_of_int = function
  | 0 -> Some Data
  | 1 -> Some Inode
  | 2 -> Some Summary
  | 3 -> Some Checkpoint
  | 4 -> Some Hash_meta
  | _ -> None

let encode ~pba ~kind ~generation payload =
  if String.length payload > payload_bytes then
    invalid_arg "Sector.encode: payload longer than 512 bytes";
  let w = Binio.W.create ~capacity:framed_bytes () in
  Binio.W.u16 w magic;
  Binio.W.u8 w (kind_to_int kind);
  Binio.W.u8 w 0 (* reserved *);
  Binio.W.u64 w pba;
  Binio.W.u32 w generation;
  Binio.W.raw w payload;
  if String.length payload < payload_bytes then
    Binio.W.raw w (String.make (payload_bytes - String.length payload) '\x00');
  let framed_no_crc = Binio.W.contents w in
  let crc = Crc32.string framed_no_crc in
  Binio.W.u32 w (Int32.to_int crc land 0xFFFFFFFF);
  Rs.encode_blocks rs_code (Binio.W.contents w)

type decoded = {
  pba : int;
  kind : kind;
  generation : int;
  payload : string;
  corrected_symbols : int;
}

type error = Uncorrectable | Bad_crc | Bad_header

let pp_error ppf e =
  Format.pp_print_string ppf
    (match e with
    | Uncorrectable -> "uncorrectable"
    | Bad_crc -> "bad-crc"
    | Bad_header -> "bad-header")

(* Parse an assembled [framed_bytes] frame — header, payload, CRC —
   reporting [corrected] repaired symbols on success.  The CRC runs
   over [framed] in place. *)
let parse_frame framed ~corrected =
  let r = Binio.R.of_string (Bytes.unsafe_to_string framed) in
  match
    let m = Binio.R.u16 r in
    let kind_code = Binio.R.u8 r in
    let _reserved = Binio.R.u8 r in
    let pba = Binio.R.u64 r in
    let generation = Binio.R.u32 r in
    let payload = Binio.R.raw r payload_bytes in
    let crc = Binio.R.u32 r in
    (m, kind_code, pba, generation, payload, crc)
  with
  | exception Binio.R.Truncated -> Error Bad_header
  | m, kind_code, pba, generation, payload, crc -> (
      if m <> magic then Error Bad_header
      else
        match kind_of_int kind_code with
        | None -> Error Bad_header
        | Some kind ->
            let expect =
              Int32.to_int (Crc32.bytes framed 0 (framed_bytes - crc_bytes))
              land 0xFFFFFFFF
            in
            if crc <> expect then Error Bad_crc
            else
              Ok { pba; kind; generation; payload; corrected_symbols = corrected })

(* Fast accept for the overwhelmingly common healthy sector: every RS
   slice passes the cheap {!Rs.probably_clean} test, so the framed bytes
   are assembled without running the full decoder and handed to
   {!parse_frame}.  Any [Error] there sends the caller to the full
   slice-by-slice decode, so every error path (and the ~2^-32 residual
   of a corruption that fools the quick syndromes) keeps the slow
   path's exact semantics; a wrong accept additionally needs a CRC32
   collision. *)
let all_slices_clean coded base =
  let m = Rs.max_data rs_code and npar = Rs.nparity rs_code in
  let clean = ref true in
  let off = ref base and remaining = ref framed_bytes in
  while !remaining > 0 && !clean do
    let take = min m !remaining in
    if not (Rs.probably_clean rs_code coded ~off:!off ~len:(take + npar)) then
      clean := false
    else begin
      off := !off + take + npar;
      remaining := !remaining - take
    end
  done;
  !clean

let assemble_clean coded base =
  let m = Rs.max_data rs_code and npar = Rs.nparity rs_code in
  let framed = Bytes.create framed_bytes in
  let off = ref base and pos = ref 0 and remaining = ref framed_bytes in
  while !remaining > 0 do
    let take = min m !remaining in
    Bytes.blit coded !off framed !pos take;
    off := !off + take + npar;
    pos := !pos + take;
    remaining := !remaining - take
  done;
  framed

(* Count corrections by decoding slice-by-slice ourselves.  Each slice
   is copied out before {!Rs.decode} corrects it in place, so [coded]
   itself — possibly a caller's shared span buffer — is never
   mutated. *)
let decode_slow_sub coded base =
  let m = Rs.max_data rs_code and npar = Rs.nparity rs_code in
  let framed = Bytes.create framed_bytes in
  let corrected = ref 0 and failed = ref false in
  let off = ref base and pos = ref 0 and remaining = ref framed_bytes in
  while !remaining > 0 && not !failed do
    let take = min m !remaining in
    let cw = Bytes.sub coded !off (take + npar) in
    (match Rs.decode rs_code cw with
    | Rs.Ok_clean -> ()
    | Rs.Corrected n -> corrected := !corrected + n
    | Rs.Uncorrectable -> failed := true);
    Bytes.blit cw 0 framed !pos take;
    off := !off + take + npar;
    pos := !pos + take;
    remaining := !remaining - take
  done;
  if !failed then Error Uncorrectable
  else parse_frame framed ~corrected:!corrected

let decode_sub buf ~off =
  if off < 0 || off + physical_bytes > Bytes.length buf then Error Bad_header
  else if all_slices_clean buf off then
    match parse_frame (assemble_clean buf off) ~corrected:0 with
    | Ok _ as ok -> ok
    | Error _ -> decode_slow_sub buf off
  else decode_slow_sub buf off

let decode image =
  if String.length image <> physical_bytes then Error Bad_header
  else decode_sub (Bytes.unsafe_of_string image) ~off:0
