(* Workload [lfs-snapshot]: the paper's Section 1 database — the
   Workload.Dbwork stream (Zipf page updates with interleaved snapshot
   chunks, each snapshot frozen with Lfs.Fs.heat) plus two Zipf page
   reads per update and an Fs.verify of each snapshot right after its
   freeze, on Lfs.Fs (clustering on) over a 1024-block Bcache over a
   Queue over one 8192-block device.  One writer; Proto and Server are
   absent. *)

open Util

let n_blocks = 8192
let line_exp = 3
let cache_blocks = 1024
let snapshots = 12
let tamper_probes = 8
let page = 512

type op =
  | Update of { table : int; page : int }
  | Read of { table : int; page : int }
  | Snap_begin of int
  | Snap_chunk of { snap : int; seq : int; pages : int }
  | Freeze of int
  | Verify of int

type mode = Cached | Queued | Direct

let dbcfg ~seed = { Workload.Dbwork.default_config with Workload.Dbwork.snapshots; seed }

(* The op stream: Dbwork's, with two page reads after every update and a
   verify after every freeze.  Returns (warm-up prefix, timed ops): the
   first snapshot cycle warms the caches. *)
let stream ~seed =
  let cfg = dbcfg ~seed in
  let rng = Sim.Prng.create (seed + 5) in
  let zp = Workload.Zipf.create ~n:cfg.Workload.Dbwork.pages_per_table ~theta:cfg.Workload.Dbwork.zipf_theta in
  let read () =
    Read { table = Sim.Prng.int rng cfg.Workload.Dbwork.tables; page = Workload.Zipf.sample zp rng }
  in
  let ops =
    List.concat_map
      (function
        | Workload.Dbwork.Update { table; page } -> [ Update { table; page }; read (); read () ]
        | Workload.Dbwork.Snap_begin { snap } -> [ Snap_begin snap ]
        | Workload.Dbwork.Snap_chunk { snap; seq; pages } -> [ Snap_chunk { snap; seq; pages } ]
        | Workload.Dbwork.Snap_freeze { snap } -> [ Freeze snap; Verify snap ])
      (Workload.Dbwork.generate cfg)
  in
  let rec split acc = function
    | (Verify 0 as v) :: rest -> (List.rev (v :: acc), rest)
    | x :: rest -> split (x :: acc) rest
    | [] -> (List.rev acc, [])
  in
  let w, t = split [] ops in
  (Array.of_list w, Array.of_list t)

type st = {
  dev : Sero.Device.t;
  fs : Lfs.Fs.t;
  des : Sim.Des.t option;
  q : Sero.Queue.t option;
  bc : Sero.Bcache.t option;
  tables : string array array;  (** the model: table -> page -> payload *)
  snap_lines : (int, int list) Hashtbl.t;  (** frozen snapshot -> heated lines *)
  pool : string;
  tl : tally;
  out : Buffer.t;  (** one outcome record per op, for the determinism digest *)
  mutable count : int;
  mutable corrupt_next_read : bool;  (** Self-test hooks. *)
  mutable skip_next_detection : bool;
}

let table_path t = Printf.sprintf "/table-%d" t
let snap_path s = Printf.sprintf "/snap-%d" s

let ok_exn what = function Ok v -> v | Error e -> fail "lfs-snapshot %s: %s" what e

let build ~seed ~mode =
  let cfg = Sero.Device.default_config ~n_blocks ~line_exp () in
  let dev = Sero.Device.create { cfg with Sero.Device.seed = 1000 + seed } in
  let fs = Lfs.Fs.format dev in
  let des, q, bc =
    match mode with
    | Direct -> (None, None, None)
    | Queued | Cached ->
        let des = Sim.Des.create () in
        let q = Sero.Queue.create des dev in
        Lfs.Fs.attach_queue fs q;
        let bc =
          if mode = Cached then begin
            let bc = Sero.Bcache.create ~capacity:cache_blocks q in
            Lfs.Fs.attach_cache fs bc;
            Some bc
          end
          else None
        in
        (Some des, Some q, bc)
  in
  let rng = Sim.Prng.create seed in
  let pool = pool_of rng in
  let dc = dbcfg ~seed in
  let ppt = dc.Workload.Dbwork.pages_per_table in
  let tables =
    Array.init dc.Workload.Dbwork.tables (fun t ->
        let pages = Array.init ppt (fun p -> make_payload pool ~stamp1:(-1 - t) ~stamp2:p) in
        ok_exn "create table" (Lfs.Fs.create fs ~heat_group:0 (table_path t));
        ok_exn "init table"
          (Lfs.Fs.write_file fs (table_path t) ~offset:0 (String.concat "" (Array.to_list pages)));
        pages)
  in
  {
    dev; fs; des; q; bc; tables;
    snap_lines = Hashtbl.create 16;
    pool;
    tl = tally ();
    out = Buffer.create 4096;
    count = 0;
    corrupt_next_read = false;
    skip_next_detection = false;
  }

let fresh_payload st =
  st.count <- st.count + 1;
  make_payload st.pool ~stamp1:7 ~stamp2:st.count

let exec st op =
  let msg fmt = Printf.ksprintf (fun s -> lazy s) fmt in
  let note c = Buffer.add_char st.out c in
  match op with
  | Update { table; page = p } -> (
      let payload = fresh_payload st in
      match Lfs.Fs.write_file st.fs (table_path table) ~offset:(p * page) payload with
      | Ok () ->
          st.tables.(table).(p) <- payload;
          check st.tl true (lazy "");
          note 'u'
      | Error e ->
          check st.tl false (msg "update %d/%d refused: %s" table p e);
          note 'U')
  | Read { table; page = p } -> (
      match Lfs.Fs.read_range st.fs (table_path table) ~offset:(p * page) ~len:page with
      | Ok got ->
          let got =
            if st.corrupt_next_read then begin
              st.corrupt_next_read <- false;
              String.mapi (fun i c -> if i = 100 then Char.chr (Char.code c lxor 1) else c) got
            end
            else got
          in
          check st.tl (String.equal got st.tables.(table).(p)) (msg "read %d/%d: stale payload" table p);
          note 'r'
      | Error e ->
          check st.tl false (msg "read %d/%d: %s" table p e);
          note 'R')
  | Snap_begin s ->
      let r = Lfs.Fs.create st.fs ~heat_group:(1 + s) (snap_path s) in
      check st.tl (r = Ok ()) (msg "snapshot %d create" s);
      note 'b'
  | Snap_chunk { snap; seq; pages } ->
      let data = String.concat "" (List.init pages (fun _ -> fresh_payload st)) in
      let chunk = Workload.Dbwork.default_config.Workload.Dbwork.chunk_pages in
      let r = Lfs.Fs.write_file st.fs (snap_path snap) ~offset:(seq * chunk * page) data in
      check st.tl (r = Ok ()) (msg "snapshot %d chunk %d" snap seq);
      note 'c'
  | Freeze s -> (
      match Lfs.Fs.heat st.fs (snap_path s) with
      | Ok h ->
          Hashtbl.replace st.snap_lines s h.Lfs.Heat.lines;
          check st.tl true (lazy "");
          Buffer.add_string st.out (Printf.sprintf "f%d:%s;" s (String.concat "," (List.map string_of_int h.Lfs.Heat.lines)))
      | Error e ->
          check st.tl false (msg "freeze %d: %s" s e);
          note 'F')
  | Verify s -> (
      match Lfs.Fs.verify st.fs (snap_path s) with
      | Ok vs ->
          let intact = List.for_all (fun (_, v) -> v = Sero.Tamper.Intact) vs in
          check st.tl (intact && vs <> []) (msg "verify snapshot %d: not intact" s);
          note (if intact then 'v' else 'V')
      | Error e ->
          check st.tl false (msg "verify %d: %s" s e);
          note 'E')

let sim_now st =
  match st.des with
  | Some d -> Sim.Des.now d
  | None -> Probe.Pdevice.elapsed (Sero.Device.pdevice st.dev)

let prepare ~seed ~mode =
  let st = build ~seed ~mode in
  let warm, timed = stream ~seed in
  Array.iter (exec st) warm;
  Lfs.Fs.sync st.fs;
  (st, timed)

(* Tamper a seeded sample of lines of the frozen snapshots; Fs.verify of
   the snapshot must name each one Tampered. *)
let probe st ~seed =
  Lfs.Fs.sync st.fs;
  let rng = Sim.Prng.create (seed + 77) in
  let lay = Sero.Device.layout st.dev in
  let cands =
    Hashtbl.fold (fun s lines acc -> List.map (fun l -> (s, l)) lines @ acc) st.snap_lines []
    |> List.sort compare |> Array.of_list
  in
  Sim.Prng.shuffle rng cands;
  let n = min tamper_probes (Array.length cands) in
  let detected = ref 0 in
  for i = 0 to n - 1 do
    let s, line = cands.(i) in
    let pba = Sero.Layout.first_data_block lay line + Sim.Prng.int rng (Sero.Layout.data_blocks_per_line lay) in
    Sero.Device.unsafe_write_block st.dev ~pba (make_payload (pool_of rng) ~stamp1:(-2) ~stamp2:i);
    let caught =
      match Lfs.Fs.verify st.fs (snap_path s) with
      | Ok vs -> (
          match List.assoc_opt line vs with
          | Some (Sero.Tamper.Tampered _) ->
              if st.skip_next_detection then (st.skip_next_detection <- false; false) else true
          | _ -> false)
      | Error _ -> false
    in
    check st.tl caught (lazy (Printf.sprintf "tamper of line %d (snapshot %d) not detected" line s));
    if caught then incr detected
  done;
  (n, !detected)

let energy st = (Sero.Device.stats st.dev).Sero.Device.energy

let repeat ~seed =
  timed_repeat
    {
      prepare = (fun () -> prepare ~seed ~mode:Cached);
      run =
        (fun (st, timed) ~lat_wall ~lat_sim ->
          Array.iter
            (fun op ->
              let t0 = now_ns () and s0 = sim_now st in
              exec st op;
              Fbuf.add lat_wall (float_of_int (now_ns () - t0));
              Fbuf.add lat_sim (sim_now st -. s0))
            timed);
      sim_now = (fun (st, _) -> sim_now st);
      energy = (fun (st, _) -> energy st);
      probe = (fun (st, _) -> probe st ~seed);
      digest = (fun (st, _) -> digest_of_buffer st.out);
      oracle_of = (fun (st, _) -> st.tl);
    }

(* {1 The layer ladder}

   R0 Fs over Bcache over Queue -> R0u Fs over Queue -> R1 Fs direct on
   the device -> the device calls R1 issued.  Those are captured with a
   mutation listener (writes and heats, with their PBAs), the verify
   results (lines) and the read counter; the LFS reads' PBAs are not
   visible from outside, so reads replay over the PBAs most recently
   written. *)

let record_devlog ~seed =
  let st, timed = prepare ~seed ~mode:Direct in
  let lay = Sero.Device.layout st.dev in
  let dl = Devlog.create () in
  let bpl = Sero.Layout.blocks_per_line lay in
  let recent = Array.make 64 (-1) and nrecent = ref 0 in
  Sero.Device.add_mutation_listener st.dev (fun ~pba ~n ->
      if n = 1 then begin
        Devlog.add dl (Devlog.Write { dev = 0; pba; payload = String.make 512 'w' });
        recent.(!nrecent land 63) <- pba;
        incr nrecent
      end
      else if n = bpl then Devlog.add dl (Devlog.Heat { dev = 0; line = Sero.Layout.line_of_block lay pba }));
  Array.iter
    (fun op ->
      let s0 = Sero.Device.stats st.dev in
      exec st op;
      let s1 = Sero.Device.stats st.dev in
      (match op with
      | Verify s ->
          List.iter (fun line -> Devlog.add dl (Devlog.Verify { dev = 0; line }))
            (try Hashtbl.find st.snap_lines s with Not_found -> [])
      | _ -> ());
      let internal = Sero.Layout.data_blocks_per_line lay * (s1.Sero.Device.heats - s0.Sero.Device.heats + s1.Sero.Device.verifies - s0.Sero.Device.verifies) in
      let reads = s1.Sero.Device.reads - s0.Sero.Device.reads - internal in
      for k = 1 to reads do
        let pba = recent.((!nrecent + 64 - k) land 63) in
        if pba >= 0 then Devlog.add dl (Devlog.Read { dev = 0; pba; n = 1 })
      done)
    timed;
  Devlog.ops dl

let ladder ~seed =
  (* Counting pass on the workload's own stack. *)
  let st, timed = prepare ~seed ~mode:Cached in
  Buffer.clear st.out;
  let n = Array.length timed in
  let bc = Option.get st.bc and q = Option.get st.q in
  let b0 = Sero.Bcache.stats bc in
  let m = (Lfs.Fs.stats st.fs).Lfs.Fs.metrics in
  let ub0 = m.Lfs.State.user_bytes_written and fw0 = m.Lfs.State.fs_block_writes in
  let cc0 = m.Lfs.State.cleaner_copies and hr0 = m.Lfs.State.heat_relocations in
  let c0 = Devlog.snapshot [| st.dev |] in
  let sw0 = Sim.Des.sched_work (Option.get st.des) in
  let svc0 = Sim.Stats.total (Sero.Queue.service q) in
  let co0 = Sero.Queue.coalesced_requests q and rr0 = Sero.Queue.retried_reads q in
  let g0 = Gc.quick_stat () in
  Array.iter (exec st) timed;
  let g1 = Gc.quick_stat () in
  let c1 = Devlog.snapshot [| st.dev |] in
  let b1 = Sero.Bcache.stats bc in
  let fst1 = Lfs.Fs.stats st.fs in
  let m = fst1.Lfs.Fs.metrics in
  if st.tl.failed > 0 then fail "lfs-snapshot counting pass: %d oracle failures" st.tl.failed;
  let ref_digest = digest_of_buffer st.out in
  let nf = float_of_int n in
  let pct a b = 100. *. float_of_int a /. float_of_int (max 1 b) in
  let d f = f b1 - f b0 in
  let open Sero.Bcache in
  let reads_delta = c1.Devlog.s_dev.(0).Sero.Device.reads - c0.Devlog.s_dev.(0).Sero.Device.reads in
  let wait = Sero.Queue.wait q Sero.Queue.Foreground in
  let counts =
    [
      ("bcache.hit_pct", pct (d (fun s -> s.hits)) (d (fun s -> s.hits + s.misses)));
      ("bcache.read_ahead_useful_pct", pct (d (fun s -> s.read_ahead_hits)) (d (fun s -> s.read_aheads)));
      ("bcache.evictions_per_op", float_of_int (d (fun s -> s.evictions)) /. nf);
      ( "bcache.blocks_per_flush_span",
        float_of_int (d (fun s -> s.flushed_blocks)) /. float_of_int (max 1 (d (fun s -> s.flushed_spans))) );
      ("bcache.write_absorbed_pct", pct (d (fun s -> s.write_absorbed)) (d (fun s -> s.flushed_blocks + s.write_absorbed)));
      ( "lfs.write_amp",
        float_of_int ((m.Lfs.State.fs_block_writes - fw0) * page)
        /. float_of_int (max 1 (m.Lfs.State.user_bytes_written - ub0)) );
      ("lfs.cleaner_copies_per_op", float_of_int (m.Lfs.State.cleaner_copies - cc0) /. nf);
      ("lfs.heat_relocations", float_of_int (m.Lfs.State.heat_relocations - hr0));
      ("lfs.partially_heated_segments", float_of_int fst1.Lfs.Fs.partially_heated_segments);
      ("queue.sched_work_per_op", float_of_int (Sim.Des.sched_work (Option.get st.des) - sw0) /. nf);
      ("queue.sim_wait_p50_ms", 1e3 *. Sim.Stats.p50 wait);
      ("queue.sim_wait_p99_ms", 1e3 *. Sim.Stats.p99 wait);
      ("queue.sim_service_ms_per_op", 1e3 *. (Sim.Stats.total (Sero.Queue.service q) -. svc0) /. nf);
      ("queue.coalesced_pct", pct (Sero.Queue.coalesced_requests q - co0) reads_delta);
      ("queue.retried_reads", float_of_int (Sero.Queue.retried_reads q - rr0));
      ("gc.minor_collections", float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections));
      ("gc.major_collections", float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
    ]
    @ Devlog.counts ~ops:n c0 c1
  in
  let dev_ops = record_devlog ~seed in
  let mismatches = ref [] in
  let replay mode name () =
    let st, timed = prepare ~seed ~mode in
    Buffer.clear st.out;
    let thunk () =
      Array.iteri (fun i op -> Span.call "lfs" ~tenant:0 ~seq:i (fun () -> exec st op)) timed
    in
    (thunk, fun () -> if digest_of_buffer st.out <> ref_digest then mismatches := name :: !mismatches)
  in
  let devs () = [| (fst (prepare ~seed ~mode:Direct)).dev |] in
  let lay = Sero.Layout.create ~n_blocks ~line_exp () in
  let codec = Devlog.codec_input ~lay ~content:(fun _ _ -> String.make 512 'w') dev_ops in
  let res =
    Ladder.run ~ops:n
      ~upper:
        [
          Ladder.rung "R0 fs+bcache+queue" ~layer:"bcache" (replay Cached "R0");
          Ladder.rung "R0u fs+queue" ~layer:"queue" (replay Queued "R0u");
          Ladder.rung "R1 fs direct" ~layer:"lfs" (replay Direct "R1");
        ]
      ~device:(fun () ->
        let d = devs () in
        ((fun () -> Devlog.replay_device d dev_ops), fun () -> ()))
      ~codec
      ~pmedia:(fun () ->
        let d = devs () in
        ((fun () -> Devlog.replay_pmedia d ~lay dev_ops), fun () -> ()))
      ~r0_untraced:(replay Cached "R0 untraced")
  in
  {
    res with
    Ladder.metrics = res.Ladder.metrics @ counts;
    identical = res.Ladder.identical && !mismatches = [];
    notes = res.Ladder.notes @ List.map (Printf.sprintf "%s outcomes differ from the counting pass") !mismatches;
  }

let self_test () =
  let st, timed = prepare ~seed:2 ~mode:Cached in
  st.corrupt_next_read <- true;
  let f0 = st.tl.failed in
  Array.iteri (fun i op -> if i < 300 then exec st op) timed;
  let caught_read = st.tl.failed > f0 in
  st.skip_next_detection <- true;
  let n, detected = probe st ~seed:2 in
  [
    ("lfs-snapshot oracle catches a corrupted read payload", caught_read);
    ("lfs-snapshot oracle catches a skipped tamper detection", n > 0 && detected < n);
  ]
