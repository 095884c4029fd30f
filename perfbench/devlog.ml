(* The device-level op stream a workload issued, and the three bottom
   rungs of the layer ladder that replay it:

   - [device]: the ops straight into {!Sero.Device} on a fresh copy of
     the post-warm-up stack;
   - [codec]: only their sector codec and hashing work
     ({!Codec.Sector}, {!Hash.Sha256}, {!Codec.Manchester});
   - [pmedia]: only their dot runs through {!Probe.Pdevice}.

   device self time = R(device) - R(codec) - R(pmedia). *)

type op =
  | Read of { dev : int; pba : int; n : int }  (** [n > 1]: coalesced span. *)
  | Write of { dev : int; pba : int; payload : string }
  | Heat of { dev : int; line : int }
  | Verify of { dev : int; line : int }
  | Hash_read of { dev : int; line : int }  (** Electrical read only. *)

type t = op Util.Vbuf.t

let create () : t = Util.Vbuf.create ()
let add (t : t) op = Util.Vbuf.add t op
let ops (t : t) = Util.Vbuf.contents t

let dev_of = function
  | Read { dev; _ } | Write { dev; _ } | Heat { dev; _ } | Verify { dev; _ }
  | Hash_read { dev; _ } ->
      dev

(* {1 Device rung} *)

let replay_device (devs : Sero.Device.t array) ops =
  Array.iteri
    (fun i op ->
      let d = devs.(dev_of op) in
      Span.call "device" ~tenant:0 ~seq:i (fun () ->
          match op with
          | Read { pba; n = 1; _ } -> ignore (Sero.Device.read_block d ~pba)
          | Read { pba; n; _ } -> ignore (Sero.Device.read_blocks d ~pba ~n)
          | Write { pba; payload; _ } ->
              ignore (Sero.Device.write_block d ~pba payload)
          | Heat { line; _ } -> ignore (Sero.Device.heat_line d ~line ())
          | Verify { line; _ } -> ignore (Sero.Device.verify_line d ~line)
          | Hash_read { line; _ } ->
              ignore (Sero.Device.read_hash_block d ~line)))
    ops

(* {1 Codec rung}

   Inputs are prepared untimed: the frame images a read decodes, the
   payloads a write encodes, the line bytes a heat or verify hashes. *)

type codec_input = {
  c_ops : codec_op array;
  mutable encodes : int;
  mutable decodes : int;
  mutable hashed_bytes : int;
}

and codec_op =
  | C_decode of string array
  | C_encode of int * string
  | C_hash of string array * string
      (** Data frames decoded, then the line bytes hashed and the digest
          Manchester-encoded (heat) or compared (verify). *)

let frame ~pba payload =
  Codec.Sector.encode ~pba ~kind:Codec.Sector.Data ~generation:1 payload

(* [content dev pba] is the payload the benchmark believes [pba] holds
   (the oracle's model, or a same-sized filler where the model does not
   track the block — the codec's cost does not depend on the bytes). *)
let codec_input ~(lay : Sero.Layout.t) ~content ops =
  let c = { c_ops = [||]; encodes = 0; decodes = 0; hashed_bytes = 0 } in
  let line_frames dev line =
    Array.of_list
      (List.map
         (fun pba -> frame ~pba (content dev pba))
         (Sero.Layout.data_blocks_of_line lay line))
  in
  let conv = function
    | Read { dev; pba; n } ->
        c.decodes <- c.decodes + n;
        C_decode (Array.init n (fun k -> frame ~pba:(pba + k) (content dev (pba + k))))
    | Write { pba; payload; _ } ->
        c.encodes <- c.encodes + 1;
        C_encode (pba, payload)
    | Heat { dev; line } | Verify { dev; line } ->
        let fr = line_frames dev line in
        c.decodes <- c.decodes + Array.length fr;
        let bytes =
          String.concat ""
            (List.map (content dev) (Sero.Layout.data_blocks_of_line lay line))
        in
        c.hashed_bytes <- c.hashed_bytes + String.length bytes;
        C_hash (fr, bytes)
    | Hash_read _ -> C_decode [||]
  in
  let c_ops = Array.map conv ops in
  { c with c_ops }

type codec_times = { enc_ns : int; dec_ns : int; sha_ns : int; total_ns : int }

let replay_codec c =
  let enc = ref 0 and dec = ref 0 and sha = ref 0 in
  let t_start = Util.now_ns () in
  Array.iteri
    (fun i op ->
      Span.call "codec" ~tenant:0 ~seq:i (fun () ->
          match op with
          | C_decode frames ->
              let t0 = Util.now_ns () in
              Array.iter (fun f -> ignore (Codec.Sector.decode f)) frames;
              dec := !dec + (Util.now_ns () - t0)
          | C_encode (pba, payload) ->
              let t0 = Util.now_ns () in
              ignore (frame ~pba payload);
              enc := !enc + (Util.now_ns () - t0)
          | C_hash (frames, bytes) ->
              let t0 = Util.now_ns () in
              Array.iter (fun f -> ignore (Codec.Sector.decode f)) frames;
              let t1 = Util.now_ns () in
              let h = Hash.Sha256.digest_string bytes in
              ignore (Codec.Manchester.encode (Hash.Sha256.to_raw h));
              let t2 = Util.now_ns () in
              dec := !dec + (t1 - t0);
              sha := !sha + (t2 - t1)))
    c.c_ops;
  { enc_ns = !enc; dec_ns = !dec; sha_ns = !sha; total_ns = Util.now_ns () - t_start }

(* {1 Pmedia rung}

   The dot runs the device would drive: a sector read or write is one
   packed run over the block's dots; a heat reads the data blocks,
   checks the write-once area with erb, pulses it with ewb and reads it
   back; a verify reads the data blocks and the write-once area. *)

let replay_pmedia (devs : Sero.Device.t array) ~(lay : Sero.Layout.t) ops =
  let bd = Sero.Layout.block_dots in
  let buf = Bytes.create (16 * (bd / 8)) in
  let bools = Array.make (16 * bd) false in
  let pattern =
    Array.init Sero.Layout.wo_area_dots (fun i -> i land 3 = 1)
  in
  let read pd ~pba ~n =
    let start = pba * bd and len = n * bd in
    if not (Probe.Pdevice.read_run_packed pd ~start ~len ~dst:buf) then
      Probe.Pdevice.read_run_into pd ~start ~len ~dst:bools
  in
  let wo_len = Sero.Layout.wo_area_dots in
  Array.iteri
    (fun i op ->
      let pd = Sero.Device.pdevice devs.(dev_of op) in
      Span.call "pmedia" ~tenant:0 ~seq:i (fun () ->
          match op with
          | Read { pba; n; _ } -> read pd ~pba ~n
          | Write { pba; _ } ->
              let start = pba * bd in
              if not (Probe.Pdevice.write_run_packed pd ~start ~len:bd ~src:buf)
              then Probe.Pdevice.write_run pd ~start (Array.sub bools 0 bd)
          | Heat { line; _ } ->
              List.iter (fun pba -> read pd ~pba ~n:1)
                (Sero.Layout.data_blocks_of_line lay line);
              let s = Sero.Layout.wo_first_dot lay ~line in
              ignore (Probe.Pdevice.erb_run pd ~start:s ~len:wo_len);
              Probe.Pdevice.heat_run pd ~start:s pattern;
              ignore (Probe.Pdevice.erb_run pd ~start:s ~len:wo_len)
          | Verify { line; _ } ->
              List.iter (fun pba -> read pd ~pba ~n:1)
                (Sero.Layout.data_blocks_of_line lay line);
              let s = Sero.Layout.wo_first_dot lay ~line in
              ignore (Probe.Pdevice.erb_run pd ~start:s ~len:wo_len)
          | Hash_read { line; _ } ->
              let s = Sero.Layout.wo_first_dot lay ~line in
              ignore (Probe.Pdevice.erb_run pd ~start:s ~len:wo_len)))
    ops

(* {1 Counters}  Device and medium counters summed over a set of devices,
   and their per-op deltas over a timed region. *)

type snap = {
  s_dev : Sero.Device.stats array;
  s_bits : (int * int * int * int) array;
  s_copied : int array;
}

let snapshot devs =
  {
    s_dev = Array.map Sero.Device.stats devs;
    s_bits =
      Array.map
        (fun d ->
          let c = Pmedia.Bitops.counters (Probe.Pdevice.bitops (Sero.Device.pdevice d)) in
          Pmedia.Bitops.(c.mrb, c.mwb, c.ewb, c.erb))
        devs;
    s_copied = Array.map Sero.Device.bytes_copied devs;
  }

let counts ~ops a b =
  let sum f = ref 0 |> fun r -> Array.iteri (fun i x -> r := !r + f x b.s_dev.(i)) a.s_dev; !r in
  let dstat g = sum (fun x y -> g y - g x) in
  let bits g =
    let r = ref 0 in
    Array.iteri (fun i x -> r := !r + g b.s_bits.(i) - g x) a.s_bits;
    !r
  in
  let copied = ref 0 in
  Array.iteri (fun i x -> copied := !copied + b.s_copied.(i) - x) a.s_copied;
  let per x = float_of_int x /. float_of_int ops in
  let busy = ref 0. in
  Array.iteri
    (fun i x -> busy := !busy +. b.s_dev.(i).Sero.Device.elapsed -. x.Sero.Device.elapsed)
    a.s_dev;
  Sero.Device.
    [
      ("device.reads_per_op", per (dstat (fun s -> s.reads)));
      ("device.writes_per_op", per (dstat (fun s -> s.writes)));
      ("device.heats", float_of_int (dstat (fun s -> s.heats)));
      ("device.verifies_per_op", per (dstat (fun s -> s.verifies)));
      ("device.retries", float_of_int (dstat (fun s -> s.retries)));
      ("device.bytes_copied_per_op", per !copied);
      ("device.sim_busy_s", !busy);
      ("pmedia.mrb_per_op", per (bits (fun (x, _, _, _) -> x)));
      ("pmedia.mwb_per_op", per (bits (fun (_, x, _, _) -> x)));
      ("pmedia.ewb_per_op", per (bits (fun (_, _, x, _) -> x)));
      ("pmedia.erb_per_op", per (bits (fun (_, _, _, x) -> x)));
    ]
