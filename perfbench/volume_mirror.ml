(* Workload [volume-mirror]: one synchronous stream of host frames through
   Proto -> Server -> Sarray.Volume (default config: 4 slots mirrored in
   pairs, 1 spare, 32-block member caches with read-ahead 8) over
   1024-block members.  Queue depth is 1. *)

open Util
module P = Host.Proto
module V = Sarray.Volume
module A = Sarray.Amap

let member_blocks = 1024
let theta = 0.99
let warmup_ops = 3_000
let timed_ops = 10_000
let mix = [ (`Read, 70); (`Write, 25); (`Audit, 5) ]
let tamper_probes = 8

type st = {
  v : V.t;
  srv : Host.Server.t;
  map : A.t;
  content : string array;  (** vba -> last acknowledged payload *)
  heated : bool array;  (** volume line -> heated *)
  heated_lines : int array;
  zp : zipf;
  kinds : [ `Read | `Write | `Audit ] deck;
  rng : Sim.Prng.t;
  pool : string;
  tl : tally;
  mutable seq : int;
  mutable count : int;
  mutable pend : (P.command * int * float) option;
  mutable lat_wall : Fbuf.t;
  mutable lat_sim : Fbuf.t;
  mutable actions : P.frame Vbuf.t option;
  (* Member traffic the volume issues, reconstructed from its read order
     and verify-on-first-read rule (see [track]). *)
  verified : (int * int, unit) Hashtbl.t;
  mutable devlog : Devlog.t option;
  tracking : bool;  (** Keep [verified] up to date (recording pass only). *)
  mutable mangle : P.response -> P.response;  (** Self-test hook. *)
  mutable tamper_bytes : string;  (** What the last tamper probe wrote. *)
}

let sim_now v =
  let t = ref 0. in
  for dev = 0 to V.n_devices v - 1 do
    t := !t +. Sim.Des.now (Sero.Queue.des (V.queue v ~dev))
  done;
  !t

let build ~seed ~cached =
  let cfg = V.default_config ~member_blocks ~seed:(1000 + seed) () in
  let cfg = if cached then cfg else { cfg with V.cache_capacity = None } in
  let v = V.create cfg in
  let map = V.map v in
  let rng = Sim.Prng.create seed in
  let pool = pool_of rng in
  let nb = A.n_blocks map and nl = A.logical_lines map in
  let content =
    Array.init nb (fun vba ->
        let p = make_payload pool ~stamp1:(-1) ~stamp2:vba in
        (match V.write_block v ~vba p with
        | Ok () -> ()
        | Error _ -> fail "volume-mirror prefill: write %d refused" vba);
        p)
  in
  V.flush v;
  let order = Array.init nl Fun.id in
  Sim.Prng.shuffle rng order;
  let heated = Array.make nl false in
  let heated_lines = Array.sub order 0 (nl / 4) in
  Array.iter
    (fun line ->
      (match V.heat_line v ~line () with
      | Ok _ -> ()
      | Error _ -> fail "volume-mirror prefill: heat %d refused" line);
      heated.(line) <- true)
    heated_lines;
  let srv = Host.Server.create (Host.Server.Volume v) in
  {
    v; srv; map; content; heated; heated_lines;
    zp = zipf rng ~n:nb ~theta;
    kinds = deck (Sim.Prng.split rng) mix;
    rng;
    pool;
    tl = tally ();
    seq = 0;
    count = 0;
    pend = None;
    lat_wall = Fbuf.create 16;
    lat_sim = Fbuf.create 16;
    actions = None;
    verified = Hashtbl.create 256;
    devlog = None;
    tracking = not cached;
    mangle = Fun.id;
    tamper_bytes = "";
  }

let gen st =
  let read () = P.Array_read { vba = zipf_sample st.zp st.rng } in
  match draw st.kinds with
  | `Read -> read ()
  | `Write -> (
      let rec cold tries =
        let vba = zipf_sample st.zp st.rng in
        if not st.heated.(A.line_of_vba st.map vba) then Some vba
        else if tries > 0 then cold (tries - 1)
        else None
      in
      match cold 4 with
      | Some vba ->
          st.count <- st.count + 1;
          P.Write { pba = vba; payload = make_payload st.pool ~stamp1:0 ~stamp2:st.count }
      | None -> read ())
  | `Audit -> P.Audit_line { line = Sim.Prng.int st.rng (A.logical_lines st.map) }

(* {2 Member traffic}  Mirrors [Volume.read_block]'s replica walk, its
   per-(device, line) read-time verdict cache (dropped by any mutation of
   the line), the write fan-out and [Quorum.attest_line]'s examination. *)
let track st cmd =
  let v = st.v and map = st.map in
  let log op = match st.devlog with Some l -> Devlog.add l op | None -> () in
  match cmd with
  | P.Array_read { vba } ->
      let line = A.line_of_vba map vba in
      let local = A.local_line map line in
      (match V.serving_slots v ~line with
      | slot :: _ ->
          let dev = V.dev_of_slot v ~slot in
          if not (Hashtbl.mem st.verified (dev, local)) then begin
            log (Devlog.Hash_read { dev; line = local });
            if st.heated.(line) then log (Devlog.Verify { dev; line = local });
            Hashtbl.replace st.verified (dev, local) ()
          end;
          log (Devlog.Read { dev; pba = A.member_pba map ~vba; n = 1 })
      | [] -> ())
  | P.Write { pba = vba; payload } ->
      let line = A.line_of_vba map vba in
      let local = A.local_line map line in
      List.iter
        (fun slot ->
          let dev = V.dev_of_slot v ~slot in
          Hashtbl.remove st.verified (dev, local);
          log (Devlog.Write { dev; pba = A.member_pba map ~vba; payload }))
        (A.slots_of_line map line)
  | P.Audit_line { line } ->
      let local = A.local_line map line in
      List.iter
        (fun slot ->
          let dev = V.dev_of_slot v ~slot in
          log (Devlog.Hash_read { dev; line = local });
          if st.heated.(line) then log (Devlog.Verify { dev; line = local }))
        (List.sort compare (V.serving_slots v ~line))
  | _ -> ()

let judge st cmd (r : P.response) =
  let status = match r.P.r_phases with [ a; e ] when a = P.st_ok -> e | _ -> -1 in
  let msg fmt = Printf.ksprintf (fun s -> lazy s) fmt in
  match cmd with
  | P.Array_read { vba } ->
      check st.tl
        (status = P.st_ok && String.equal r.P.r_payload st.content.(vba))
        (msg "array read vba %d: %s or wrong payload" vba (P.status_name status))
  | P.Write { pba = vba; payload } ->
      check st.tl (status = P.st_ok) (msg "write vba %d: %s" vba (P.status_name status));
      if status = P.st_ok then st.content.(vba) <- payload
  | P.Audit_line { line } ->
      let expect = if st.heated.(line) then P.st_ok else P.st_not_heated in
      check st.tl (status = expect)
        (msg "audit line %d: got %s" line (P.status_name status))
  | _ -> check st.tl false (lazy "unexpected command")

let on_response st (r : P.response) =
  let wire = P.encode_response r in
  let r, _ = P.decode_response wire in
  let r = st.mangle r in
  match st.pend with
  | None -> fail "volume-mirror: response with nothing outstanding"
  | Some (cmd, t0, sim0) ->
      st.pend <- None;
      Fbuf.add st.lat_wall (float_of_int (now_ns () - t0));
      Fbuf.add st.lat_sim (sim_now st.v -. sim0);
      judge st cmd r

let send st cmd =
  let f = { P.tenant = 0; seq = st.seq; cmd } in
  st.seq <- st.seq + 1;
  (match st.actions with Some a -> Vbuf.add a f | None -> ());
  if st.tracking then track st cmd;
  st.pend <- Some (cmd, now_ns (), sim_now st.v);
  let wire = P.encode_frame f in
  let f, _ = P.decode_frame wire in
  Host.Server.submit_frame st.srv f

let run_ops st n =
  for _ = 1 to n do
    send st (gen st)
  done

let prepare ~seed ~cached =
  let st = build ~seed ~cached in
  Host.Server.set_on_response st.srv (Some (on_response st));
  run_ops st warmup_ops;
  st

(* Tamper one replica of a seeded sample of heated lines.  Reads must
   keep serving the acknowledged bytes (verify-on-first-read skips the
   bad replica) and the quorum must convict exactly that device. *)
let probe st ~seed =
  let rng = Sim.Prng.create (seed + 77) in
  V.flush st.v;
  let cands = Array.copy st.heated_lines in
  Sim.Prng.shuffle rng cands;
  let n = min tamper_probes (Array.length cands) in
  let detected = ref 0 in
  for i = 0 to n - 1 do
    let line = cands.(i) in
    let vba = A.vba_of st.map ~line ~offset:(Sim.Prng.int rng (A.data_blocks_per_line st.map)) in
    let slots = A.slots_of_line st.map line in
    let slot = List.nth slots (Sim.Prng.int rng (List.length slots)) in
    let dev = V.dev_of_slot st.v ~slot in
    st.tamper_bytes <- make_payload (pool_of rng) ~stamp1:(-2) ~stamp2:i;
    Sero.Device.unsafe_write_block (V.device st.v ~dev) ~pba:(A.member_pba st.map ~vba)
      st.tamper_bytes;
    let before = st.tl.failed in
    send st (P.Array_read { vba });
    let _, charges, _, _ = Sarray.Quorum.attest_line_raw st.v ~line in
    let named =
      List.exists
        (fun c -> c.Sarray.Quorum.c_dev = dev && c.Sarray.Quorum.c_charge = Sarray.Trust.Conviction)
        charges
    in
    check st.tl named (lazy (Printf.sprintf "quorum did not convict device %d on line %d" dev line));
    if st.tl.failed = before then incr detected
  done;
  (n, !detected)

let energy v =
  let e = ref 0. in
  for dev = 0 to V.n_devices v - 1 do
    e := !e +. (Sero.Device.stats (V.device v ~dev)).Sero.Device.energy
  done;
  !e

let repeat ~seed =
  timed_repeat
    {
      prepare = (fun () -> prepare ~seed ~cached:true);
      run =
        (fun st ~lat_wall ~lat_sim ->
          st.lat_wall <- lat_wall;
          st.lat_sim <- lat_sim;
          run_ops st timed_ops);
      sim_now = (fun st -> sim_now st.v);
      energy = (fun st -> energy st.v);
      probe = probe ~seed;
      digest =
        (fun st ->
          Hash.Sha256.to_hex
            (Hash.Sha256.digest_string (Host.Server.format_replay (Host.Server.responses st.srv))));
      oracle_of = (fun st -> st.tl);
    }

(* {1 The layer ladder}

   R0 frames -> R1 Server -> R2 Volume direct (cached members) -> R2u the
   same on an uncached twin -> R3u the member traffic through the
   volume's member entry points -> device.  bcache's figure is net: the
   cached rung minus the uncached one. *)

let fresh ~seed ~cached =
  let st = prepare ~seed ~cached in
  Host.Server.set_on_response st.srv None;
  st

let member_sum v f =
  let s = ref 0 in
  for dev = 0 to V.n_devices v - 1 do
    s := !s + f (Sero.Device.stats (V.device v ~dev))
  done;
  !s

let ladder ~seed =
  (* Recording pass A, on the cached volume: the frame stream and the
     per-layer counts. *)
  let st = prepare ~seed ~cached:true in
  let acts = Vbuf.create () in
  st.actions <- Some acts;
  let members = Array.init (V.n_devices st.v) (fun dev -> V.device st.v ~dev) in
  let c0 = Devlog.snapshot members in
  let vs0 = V.stats st.v in
  let rd0 = member_sum st.v (fun s -> s.Sero.Device.reads) in
  let g0 = Gc.quick_stat () in
  let n_resp0 = List.length (Host.Server.responses st.srv) in
  run_ops st timed_ops;
  let g1 = Gc.quick_stat () in
  let device_counts = Devlog.counts ~ops:timed_ops c0 (Devlog.snapshot members) in
  let vs1 = V.stats st.v in
  let rd1 = member_sum st.v (fun s -> s.Sero.Device.reads) in
  let resps = List.filteri (fun i _ -> i >= n_resp0) (Host.Server.responses st.srv) in
  let frames = Vbuf.contents acts in
  let ref_digest = Hash.Sha256.to_hex (Hash.Sha256.digest_string (Host.Server.format_replay resps)) in
  let wire =
    Array.fold_left (fun a f -> a + String.length (P.encode_frame f)) 0 frames
    + List.fold_left (fun a r -> a + String.length (P.encode_response r)) 0 resps
  in
  if st.tl.failed > 0 then fail "volume-mirror recording pass: %d oracle failures" st.tl.failed;
  (* Recording pass B, on the uncached twin: the member traffic. *)
  let stb = prepare ~seed ~cached:false in
  let content0 = Array.copy stb.content in
  let dl = Devlog.create () in
  stb.devlog <- Some dl;
  Array.iter (fun (f : P.frame) -> send stb f.P.cmd) frames;
  let dev_ops = Devlog.ops dl in
  let n = float_of_int timed_ops in
  let mismatches = ref [] in
  let check name replay =
    if Hash.Sha256.to_hex (Hash.Sha256.digest_string replay) <> ref_digest then
      mismatches := name :: !mismatches
  in
  let replay_frames ~wire_codec () =
    let st = fresh ~seed ~cached:true in
    let got = ref [] in
    Host.Server.set_on_response st.srv
      (Some
         (fun r ->
           if wire_codec then begin
             let w = Span.call "proto.encode_response" ~tenant:0 ~seq:r.P.r_seq (fun () -> P.encode_response r) in
             let r, _ = Span.call "proto.decode_response" ~tenant:0 ~seq:r.P.r_seq (fun () -> P.decode_response w) in
             got := r :: !got
           end
           else got := r :: !got));
    let thunk () =
      Array.iter
        (fun (f : P.frame) ->
          let f =
            if wire_codec then begin
              let w = Span.call "proto.encode_frame" ~tenant:0 ~seq:f.P.seq (fun () -> P.encode_frame f) in
              fst (Span.call "proto.decode_frame" ~tenant:0 ~seq:f.P.seq (fun () -> P.decode_frame w))
            end
            else f
          in
          Span.call "server.submit_frame" ~tenant:0 ~seq:f.P.seq (fun () -> Host.Server.submit_frame st.srv f))
        frames
    in
    (thunk, fun () -> check (if wire_codec then "R0 frames" else "R1 server") (Host.Server.format_replay (List.rev !got)))
  in
  let replay_volume ~cached () =
    let st = fresh ~seed ~cached in
    let v = st.v in
    let thunk () =
      Array.iter
        (fun (f : P.frame) ->
          Span.call "volume" ~tenant:0 ~seq:f.P.seq (fun () ->
              match f.P.cmd with
              | P.Array_read { vba } -> ignore (V.read_block v ~vba)
              | P.Write { pba; payload } -> ignore (V.write_block v ~vba:pba payload)
              | P.Audit_line { line } -> ignore (Sarray.Quorum.attest_line v ~line)
              | _ -> ()))
        frames
    in
    (thunk, fun () -> V.flush v)
  in
  let replay_members () =
    let st = fresh ~seed ~cached:false in
    let v = st.v in
    let thunk () =
      Array.iteri
        (fun i op ->
          Span.call "member" ~tenant:0 ~seq:i (fun () ->
              match op with
              | Devlog.Read { dev; pba; _ } ->
                  ignore (V.entry_read v ~dev ~prio:Sero.Queue.Foreground ~pba)
              | Devlog.Write { dev; pba; payload } ->
                  ignore (V.entry_write_span v ~dev ~prio:Sero.Queue.Foreground ~pba [| payload |])
              | Devlog.Verify { dev; line } -> ignore (V.entry_verify v ~dev ~line)
              | Devlog.Hash_read { dev; line } ->
                  ignore (Sero.Device.read_hash_block (V.device v ~dev) ~line)
              | Devlog.Heat _ -> ()))
        dev_ops
    in
    (thunk, fun () -> ())
  in
  let devs () =
    let st = fresh ~seed ~cached:false in
    Array.init (V.n_devices st.v) (fun dev -> V.device st.v ~dev)
  in
  let lay = Sero.Device.layout (V.device st.v ~dev:0) in
  (* What the model says a member block holds, at the recording's start. *)
  let content dev pba =
    let bpl = Sero.Layout.blocks_per_line lay in
    match V.slot_of_dev stb.v ~dev with
    | Some slot when pba mod bpl > 0 ->
        let line = A.line_of_local st.map ~slot ~local:(pba / bpl) in
        content0.(A.vba_of st.map ~line ~offset:((pba mod bpl) - 1))
    | _ -> String.make 512 'z'
  in
  let codec = Devlog.codec_input ~lay ~content dev_ops in
  let res =
    Ladder.run ~ops:timed_ops
      ~upper:
        [
          Ladder.rung "R0 frames" ~layer:"proto" (replay_frames ~wire_codec:true);
          Ladder.rung "R1 server" ~layer:"server" (replay_frames ~wire_codec:false);
          Ladder.rung "R2 volume" ~layer:"bcache" (replay_volume ~cached:true);
          Ladder.rung "R2u volume uncached" ~layer:"volume" (replay_volume ~cached:false);
          Ladder.rung "R3u members" ~layer:"queue" replay_members;
        ]
      ~device:(fun () ->
        let d = devs () in
        ((fun () -> Devlog.replay_device d dev_ops), fun () -> ()))
      ~codec
      ~pmedia:(fun () ->
        let d = devs () in
        ((fun () -> Devlog.replay_pmedia d ~lay dev_ops), fun () -> ()))
      ~r0_untraced:(replay_frames ~wire_codec:true)
  in
  let counts =
    [
      ("proto.wire_bytes_per_op", float_of_int wire /. n);
      ("server.rejected", float_of_int (Host.Slo.rejected (Host.Server.slo st.srv ~tenant:0)));
      ("volume.member_reads_per_read", float_of_int (rd1 - rd0) /. float_of_int (max 1 (vs1.V.reads - vs0.V.reads)));
      ("volume.degraded_reads", float_of_int (vs1.V.degraded_reads - vs0.V.degraded_reads));
      ("volume.read_rejects", float_of_int (vs1.V.read_rejects - vs0.V.read_rejects));
      ("gc.minor_collections", float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections));
      ("gc.major_collections", float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
    ]
  in
  {
    res with
    Ladder.metrics = res.Ladder.metrics @ counts @ device_counts;
    identical = res.Ladder.identical && !mismatches = [];
    notes = res.Ladder.notes @ List.map (Printf.sprintf "%s responses differ from the recording") !mismatches;
  }

let self_test () =
  let st = prepare ~seed:2 ~cached:true in
  let armed = ref true in
  st.mangle <-
    (fun r ->
      if !armed && r.P.r_op = P.opcode_of_command (P.Array_read { vba = 0 }) then begin
        armed := false;
        { r with P.r_payload = String.make (String.length r.P.r_payload) 'x' }
      end
      else r);
  let f0 = st.tl.failed in
  run_ops st 200;
  let caught_read = st.tl.failed > f0 in
  (* A volume that skipped verify-on-first-read would serve the tampered
     replica's bytes. *)
  let st = prepare ~seed:2 ~cached:true in
  st.mangle <- (fun r -> { r with P.r_payload = st.tamper_bytes });
  let n, detected = probe st ~seed:2 in
  [
    ("volume-mirror oracle catches a corrupted read payload", caught_read);
    ("volume-mirror oracle catches tampered bytes served", n > 0 && detected < n);
  ]
