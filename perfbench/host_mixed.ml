(* Workload [host-mixed]: 4 tenants x 2 closed-loop streams of host frames
   through Proto -> Server (fair-share arbiter) -> Queue -> Device over one
   4096-block device.  Bcache, Volume and LFS are bypassed. *)

open Util
module P = Host.Proto

let n_blocks = 4096
let line_exp = 3
let tenants = 4
let streams_per_tenant = 2
let theta = 0.9
let heat_cap = 0.6
let warmup_ops = 2_000
let timed_ops = 20_000

(* Per 1000 commands.  Heats run at 0.4%: at 1% the 60% heated-line cap
   would stop them part-way through the timed region. *)
let mix = [ (`Read, 706); (`Write, 250); (`Verify, 20); (`Audit, 20); (`Heat, 4) ]
let tamper_probes = 8

type model = {
  lay : Sero.Layout.t;
  content : string array;  (** pba -> last acknowledged payload *)
  heated : bool array;  (** line -> heat completed *)
  pending : bool array;  (** line -> heat submitted, not completed *)
  wr_inflight : int array;  (** line -> writes submitted, not completed *)
  heated_lines : int Vbuf.t;
  mutable committed : int;  (** heated + pending lines *)
  heat_order : int array;
  mutable cursor : int;
  tampered : (int, unit) Hashtbl.t;
}

type stream = { tenant : int; rng : Sim.Prng.t; pool : string; mutable count : int; sid : int }

type pend = { p_stream : int; p_cmd : P.command; p_t0 : int; p_sim0 : float }

type action = Submit of P.frame | Step

type st = {
  dev : Sero.Device.t;
  des : Sim.Des.t;
  q : Sero.Queue.t;
  srv : Host.Server.t;
  m : model;
  zp : zipf;
  kinds : [ `Read | `Write | `Verify | `Audit | `Heat ] deck;
  streams : stream array;
  next_seq : int array;
  pend : (int, pend) Hashtbl.t;
  ready : int Stdlib.Queue.t;
  tl : tally;
  mutable completed : int;
  (* Recorders, switched per phase. *)
  mutable lat_wall : Fbuf.t;
  mutable lat_sim : Fbuf.t;
  mutable actions : action Vbuf.t option;
  mutable devlog : Devlog.t option;
  mutable last_read : (int * float * int) option;  (** tenant, completion time, index *)
  mutable corrupt_next_read : bool;  (** Self-test: corrupt one read payload. *)
  mutable skip_next_detection : bool;  (** Self-test: report one tamper as OK. *)
}

let usable_lines m = Sero.Layout.usable_lines m.lay

let build ~seed =
  let cfg = Sero.Device.default_config ~n_blocks ~line_exp () in
  let dev = Sero.Device.create { cfg with Sero.Device.seed = 1000 + seed } in
  let lay = Sero.Device.layout dev in
  let rng = Sim.Prng.create seed in
  let pool = pool_of rng in
  let nl = Sero.Layout.usable_lines lay in
  let content = Array.make n_blocks "" in
  let data = Vbuf.create () in
  for line = 0 to nl - 1 do
    List.iter
      (fun pba ->
        let p = make_payload pool ~stamp1:(-1) ~stamp2:pba in
        (match Sero.Device.write_block dev ~pba p with
        | Ok () -> ()
        | Error _ -> fail "host-mixed prefill: write %d refused" pba);
        content.(pba) <- p;
        Vbuf.add data pba)
      (Sero.Layout.data_blocks_of_line lay line)
  done;
  let order = Array.init nl Fun.id in
  Sim.Prng.shuffle rng order;
  let m =
    {
      lay;
      content;
      heated = Array.make nl false;
      pending = Array.make nl false;
      wr_inflight = Array.make nl 0;
      heated_lines = Vbuf.create ();
      committed = 0;
      heat_order = order;
      cursor = nl / 4;
      tampered = Hashtbl.create 16;
    }
  in
  for i = 0 to (nl / 4) - 1 do
    let line = order.(i) in
    (match Sero.Device.heat_line dev ~line () with
    | Ok _ -> ()
    | Error _ -> fail "host-mixed prefill: heat %d refused" line);
    m.heated.(line) <- true;
    Vbuf.add m.heated_lines line;
    m.committed <- m.committed + 1
  done;
  let des = Sim.Des.create () in
  let q = Sero.Queue.create des dev in
  let srv = Host.Server.create (Host.Server.Device q) in
  Host.Server.set_policy srv (Host.Arbiter.Fair_share (fun _ -> 1.));
  let data = Vbuf.contents data in
  let zp = zipf rng ~n:(Array.length data) ~theta in
  let zp = { zp with perm = Array.map (fun i -> data.(i)) zp.perm } in
  let streams =
    Array.init (tenants * streams_per_tenant) (fun sid ->
        let r = Sim.Prng.stream ~seed sid in
        { tenant = sid / streams_per_tenant; rng = r; pool = pool_of r; count = 0; sid })
  in
  {
    dev; des; q; srv; m; zp; streams;
    kinds = deck (Sim.Prng.split rng) mix;
    next_seq = Array.make tenants 0;
    pend = Hashtbl.create 64;
    ready = Stdlib.Queue.create ();
    tl = tally ();
    completed = 0;
    lat_wall = Fbuf.create 16;
    lat_sim = Fbuf.create 16;
    actions = None;
    devlog = None;
    last_read = None;
    corrupt_next_read = false;
    skip_next_detection = false;
  }

(* {1 The op mix} *)

let rec cold_pba st s tries =
  let pba = zipf_sample st.zp s.rng in
  let line = Sero.Layout.line_of_block st.m.lay pba in
  if not (st.m.heated.(line) || st.m.pending.(line)) then Some pba
  else if tries > 0 then cold_pba st s (tries - 1)
  else None

let next_heat_line st =
  let m = st.m in
  let nl = usable_lines m in
  if float_of_int (m.committed + 1) > heat_cap *. float_of_int nl then None
  else begin
    let rec scan k =
      if k >= nl then None
      else
        let line = m.heat_order.((m.cursor + k) mod nl) in
        if (not m.heated.(line)) && (not m.pending.(line)) && m.wr_inflight.(line) = 0
        then begin
          m.cursor <- (m.cursor + k + 1) mod nl;
          Some line
        end
        else scan (k + 1)
    in
    scan 0
  end

let gen st s =
  let m = st.m in
  let read () = P.Read { pba = zipf_sample st.zp s.rng } in
  match draw st.kinds with
  | `Read -> read ()
  | `Write -> (
      match cold_pba st s 4 with
      | Some pba ->
          s.count <- s.count + 1;
          P.Write { pba; payload = make_payload s.pool ~stamp1:s.sid ~stamp2:s.count }
      | None -> read ())
  | `Verify ->
      if m.heated_lines.n = 0 then read ()
      else P.Verify { line = m.heated_lines.a.(Sim.Prng.int s.rng m.heated_lines.n) }
  | `Audit -> P.Audit_line { line = Sim.Prng.int s.rng (usable_lines m) }
  | `Heat -> (
      match next_heat_line st with
      | Some line -> P.Heat { line; timestamp = Some 1.0 }
      | None -> read ())

(* Book-keeping at submit: the model learns what is in flight so the
   generator never races a write against a heat of the same line. *)
let note_submit st cmd =
  let m = st.m in
  match cmd with
  | P.Write { pba; _ } ->
      let l = Sero.Layout.line_of_block m.lay pba in
      m.wr_inflight.(l) <- m.wr_inflight.(l) + 1
  | P.Heat { line; _ } ->
      m.pending.(line) <- true;
      m.committed <- m.committed + 1
  | _ -> ()

let status_of (r : P.response) =
  match r.P.r_phases with [ a; e ] when a = P.st_ok -> e | [ a ] -> a | _ -> -1

let log_dev st op = match st.devlog with Some l -> Devlog.add l op | None -> ()

(* Log device ops in completion (= service) order; reads that complete
   at the same instant, for one tenant, on consecutive PBAs were one
   coalesced span. *)
let log_read st ~tenant ~pba =
  match st.devlog with
  | None -> ()
  | Some l -> (
      let now = Sim.Des.now st.des in
      let merged =
        match st.last_read with
        | Some (t, at, i) when t = tenant && at = now -> (
            match l.Vbuf.a.(i) with
            | Devlog.Read r when r.pba + r.n = pba && r.n < 8 ->
                l.Vbuf.a.(i) <- Devlog.Read { r with n = r.n + 1 };
                true
            | _ -> false)
        | _ -> false
      in
      if not merged then begin
        Devlog.add l (Devlog.Read { dev = 0; pba; n = 1 });
        st.last_read <- Some (tenant, now, l.Vbuf.n - 1)
      end)

(* The oracle: judge a response against the shadow model, then update
   the model.  Runs in completion order, which is the queue's service
   order, so the model sees exactly the state each command saw. *)
let judge st (p : pend) (r : P.response) =
  let m = st.m in
  let status = status_of r in
  let ok cond what = check st.tl cond what in
  let lazy_msg fmt = Printf.ksprintf (fun s -> lazy s) fmt in
  (match p.p_cmd with
  | P.Read { pba } ->
      log_read st ~tenant:r.P.r_tenant ~pba;
      ok (status = P.st_ok && String.equal r.P.r_payload m.content.(pba))
        (lazy_msg "read pba %d: status %s or stale payload" pba (P.status_name status))
  | P.Write { pba; payload } ->
      log_dev st (Devlog.Write { dev = 0; pba; payload });
      let l = Sero.Layout.line_of_block m.lay pba in
      m.wr_inflight.(l) <- m.wr_inflight.(l) - 1;
      ok (status = P.st_ok) (lazy_msg "write pba %d: %s" pba (P.status_name status));
      if status = P.st_ok then m.content.(pba) <- payload
  | P.Heat { line; _ } ->
      log_dev st (Devlog.Heat { dev = 0; line });
      m.pending.(line) <- false;
      ok (status = P.st_ok && String.length r.P.r_payload = 32)
        (lazy_msg "heat line %d: %s" line (P.status_name status));
      if status = P.st_ok then begin
        m.heated.(line) <- true;
        Vbuf.add m.heated_lines line
      end
  | P.Verify { line } | P.Audit_line { line } ->
      log_dev st (Devlog.Verify { dev = 0; line });
      let expect =
        if Hashtbl.mem m.tampered line then P.st_tampered
        else if m.heated.(line) then P.st_ok
        else P.st_not_heated
      in
      ok (status = expect)
        (lazy_msg "%s line %d: got %s, expected %s" (P.command_name p.p_cmd) line
           (P.status_name status) (P.status_name expect))
  | P.Audit | P.Array_read _ -> ok false (lazy "unexpected command"))

let self_test_mangle st (r : P.response) =
  if st.corrupt_next_read && r.P.r_op = P.opcode_of_command (P.Read { pba = 0 }) then begin
    st.corrupt_next_read <- false;
    let b = Bytes.of_string r.P.r_payload in
    Bytes.set b 100 (Char.chr (Char.code (Bytes.get b 100) lxor 1));
    { r with P.r_payload = Bytes.to_string b }
  end
  else if st.skip_next_detection && List.mem P.st_tampered r.P.r_phases then begin
    st.skip_next_detection <- false;
    { r with P.r_phases = [ P.st_ok; P.st_ok ] }
  end
  else r

let on_response st (r : P.response) =
  let wire = P.encode_response r in
  let r, _ = P.decode_response wire in
  let r = self_test_mangle st r in
  let key = (r.P.r_tenant lsl 32) lor r.P.r_seq in
  let p = Hashtbl.find st.pend key in
  Hashtbl.remove st.pend key;
  Fbuf.add st.lat_wall (float_of_int (now_ns () - p.p_t0));
  Fbuf.add st.lat_sim (Sim.Des.now st.des -. p.p_sim0);
  judge st p r;
  st.completed <- st.completed + 1;
  if p.p_stream >= 0 then Stdlib.Queue.push p.p_stream st.ready

let send st ~stream ~tenant cmd =
  let seq = st.next_seq.(tenant) in
  st.next_seq.(tenant) <- seq + 1;
  note_submit st cmd;
  let f = { P.tenant; seq; cmd } in
  (match st.actions with Some a -> Vbuf.add a (Submit f) | None -> ());
  Hashtbl.replace st.pend ((tenant lsl 32) lor seq)
    { p_stream = stream; p_cmd = cmd; p_t0 = now_ns (); p_sim0 = Sim.Des.now st.des };
  let wire = P.encode_frame f in
  let f, _ = P.decode_frame wire in
  Host.Server.submit_frame st.srv f

(* Closed loop: every stream keeps one command outstanding; the next is
   generated when its response arrives.  Returns after [n] completions
   with every stream idle. *)
let run_ops st n =
  let target = st.completed + n in
  let submitted = ref st.completed in
  Array.iter (fun s -> Stdlib.Queue.push s.sid st.ready) st.streams;
  while st.completed < target do
    while (not (Stdlib.Queue.is_empty st.ready)) && !submitted < target do
      let s = st.streams.(Stdlib.Queue.pop st.ready) in
      incr submitted;
      send st ~stream:s.sid ~tenant:s.tenant (gen st s)
    done;
    if st.completed < target then begin
      (match st.actions with Some a -> Vbuf.add a Step | None -> ());
      if not (Sim.Des.step st.des) then fail "host-mixed: DES idle with commands outstanding"
    end
  done;
  Stdlib.Queue.clear st.ready

let prepare ~seed =
  let st = build ~seed in
  Host.Server.set_on_response st.srv (Some (on_response st));
  run_ops st warmup_ops;
  st

(* After the timed region: tamper a seeded sample of heated lines with
   raw magnetic writes; each must come back TAMPERED from Verify and
   from Audit_line. *)
let probe st ~seed =
  let m = st.m in
  let rng = Sim.Prng.create (seed + 77) in
  let cands = Vbuf.contents m.heated_lines in
  Sim.Prng.shuffle rng cands;
  let n = min tamper_probes (Array.length cands) in
  let detected = ref 0 in
  for i = 0 to n - 1 do
    let line = cands.(i) in
    let pba = Sero.Layout.first_data_block m.lay line + Sim.Prng.int rng 7 in
    Sero.Device.unsafe_write_block st.dev ~pba (make_payload (pool_of rng) ~stamp1:(-2) ~stamp2:i);
    Hashtbl.replace m.tampered line ();
    let before = st.tl.failed in
    send st ~stream:(-1) ~tenant:0 (P.Verify { line });
    send st ~stream:(-1) ~tenant:0 (P.Audit_line { line });
    Host.Server.drain st.srv;
    if st.tl.failed = before then incr detected
  done;
  (n, !detected)

let energy st = (Sero.Device.stats st.dev).Sero.Device.energy

let repeat ~seed =
  timed_repeat
    {
      prepare = (fun () -> prepare ~seed);
      run =
        (fun st ~lat_wall ~lat_sim ->
          st.lat_wall <- lat_wall;
          st.lat_sim <- lat_sim;
          run_ops st timed_ops);
      sim_now = (fun st -> Sim.Des.now st.des);
      energy;
      probe = probe ~seed;
      digest =
        (fun st ->
          Hash.Sha256.to_hex
            (Hash.Sha256.digest_string (Host.Server.format_replay (Host.Server.responses st.srv))));
      oracle_of = (fun st -> st.tl);
    }

(* {1 The layer ladder}

   A recording pass runs the live closed loop once and keeps its action
   log (submits and DES steps, in order) and the device ops in service
   order.  Every rung then rebuilds the same post-warm-up stack and
   replays that log one layer lower. *)

type recording = {
  actions : action array;
  dev_ops : Devlog.op array;
  ref_digest : string;  (** format_replay of the recorded responses *)
  counts : (string * float) list;
  content0 : string array;  (** payloads at the start of the timed region *)
}

let record ~seed =
  let st = prepare ~seed in
  let content0 = Array.copy st.m.content in
  let acts = Vbuf.create () and dl = Devlog.create () in
  st.actions <- Some acts;
  st.devlog <- Some dl;
  let n_resp0 = List.length (Host.Server.responses st.srv) in
  let c0 = Devlog.snapshot [| st.dev |] in
  let sw0 = Sim.Des.sched_work st.des and g0 = Gc.quick_stat () in
  let wait_fg = Sero.Queue.wait st.q Sero.Queue.Foreground in
  let svc0 = Sim.Stats.total (Sero.Queue.service st.q) in
  let co0 = Sero.Queue.coalesced_requests st.q in
  let rr0 = Sero.Queue.retried_reads st.q in
  run_ops st timed_ops;
  let c1 = Devlog.snapshot [| st.dev |] in
  let sw1 = Sim.Des.sched_work st.des and g1 = Gc.quick_stat () in
  let s0 = c0.Devlog.s_dev.(0) and s1 = c1.Devlog.s_dev.(0) in
  let resps =
    List.filteri (fun i _ -> i >= n_resp0) (Host.Server.responses st.srv)
  in
  let acts = Vbuf.contents acts in
  let wire_bytes =
    Array.fold_left
      (fun a -> function Submit f -> a + String.length (P.encode_frame f) | Step -> a)
      0 acts
    + List.fold_left (fun a r -> a + String.length (P.encode_response r)) 0 resps
  in
  let n = float_of_int timed_ops in
  let per x = float_of_int x /. n in
  let tenant_p99 =
    List.map
      (fun tenant -> (Host.Server.report st.srv ~tenant).Host.Slo.rep_p99_ms)
      (List.init tenants Fun.id)
  in
  let spread =
    List.fold_left Float.max 0. tenant_p99 /. List.fold_left Float.min infinity tenant_p99
  in
  let counts =
    [
      ("proto.wire_bytes_per_op", float_of_int wire_bytes /. n);
      ( "server.rejected",
        float_of_int
          (List.fold_left
             (fun a tenant -> a + Host.Slo.rejected (Host.Server.slo st.srv ~tenant))
             0 (List.init tenants Fun.id)) );
      ("server.tenant_p99_spread", spread);
      ("queue.sched_work_per_op", per (sw1 - sw0));
      (* Wait quantiles cover warm-up and timed region alike. *)
      ("queue.sim_wait_p50_ms", 1e3 *. Sim.Stats.p50 wait_fg);
      ("queue.sim_wait_p99_ms", 1e3 *. Sim.Stats.p99 wait_fg);
      ( "queue.sim_service_ms_per_op",
        1e3 *. (Sim.Stats.total (Sero.Queue.service st.q) -. svc0) /. n );
      ( "queue.coalesced_pct",
        100. *. float_of_int (Sero.Queue.coalesced_requests st.q - co0)
        /. float_of_int (max 1 (s1.Sero.Device.reads - s0.Sero.Device.reads)) );
      ("queue.retried_reads", float_of_int (Sero.Queue.retried_reads st.q - rr0));
      ("gc.minor_collections", float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections));
      ("gc.major_collections", float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
    ]
    @ Devlog.counts ~ops:timed_ops c0 c1
  in
  if st.tl.failed > 0 then
    fail "host-mixed recording pass: %d oracle failures" st.tl.failed;
  {
    actions = acts;
    dev_ops = Devlog.ops dl;
    ref_digest = Hash.Sha256.to_hex (Hash.Sha256.digest_string (Host.Server.format_replay resps));
    counts;
    content0;
  }

(* A stack rebuilt to the recording's starting point, with the live
   closed loop's response hook removed. *)
let fresh ~seed =
  let st = prepare ~seed in
  Host.Server.set_on_response st.srv None;
  st

(* R0: frames on the wire both ways. *)
let rung_frames ~seed rc check =
  let st = fresh ~seed in
  let got = ref [] in
  Host.Server.set_on_response st.srv
    (Some
       (fun r ->
         let wire = Span.call "proto.encode_response" ~tenant:r.P.r_tenant ~seq:r.P.r_seq (fun () -> P.encode_response r) in
         let r, _ = Span.call "proto.decode_response" ~tenant:r.P.r_tenant ~seq:r.P.r_seq (fun () -> P.decode_response wire) in
         got := r :: !got));
  let thunk () =
    Array.iter
      (function
        | Submit f ->
            let wire = Span.call "proto.encode_frame" ~tenant:f.P.tenant ~seq:f.P.seq (fun () -> P.encode_frame f) in
            let f, _ = Span.call "proto.decode_frame" ~tenant:f.P.tenant ~seq:f.P.seq (fun () -> P.decode_frame wire) in
            Span.call "server.submit_frame" ~tenant:f.P.tenant ~seq:f.P.seq (fun () ->
                Host.Server.submit_frame st.srv f)
        | Step -> ignore (Span.call "des.step" ~tenant:0 ~seq:0 (fun () -> Sim.Des.step st.des)))
      rc.actions
  in
  let after () = check "R0 frames" (Host.Server.format_replay (List.rev !got)) in
  (thunk, after)

(* R1: Server.submit_frame with decoded frames, no wire codec. *)
let rung_server ~seed rc check =
  let st = fresh ~seed in
  let got = ref [] in
  Host.Server.set_on_response st.srv (Some (fun r -> got := r :: !got));
  let thunk () =
    Array.iter
      (function
        | Submit f ->
            Span.call "server.submit_frame" ~tenant:f.P.tenant ~seq:f.P.seq (fun () ->
                Host.Server.submit_frame st.srv f)
        | Step -> ignore (Span.call "des.step" ~tenant:0 ~seq:0 (fun () -> Sim.Des.step st.des)))
      rc.actions
  in
  let after () = check "R1 server" (Host.Server.format_replay (List.rev !got)) in
  (thunk, after)

(* R2: Queue submits under the same arbiter, no server. *)
let rung_queue ~seed rc check =
  let st = fresh ~seed in
  let got = ref [] in
  let q = st.q and dev = st.dev in
  let respond (f : P.frame) status payload =
    got :=
      { P.r_tenant = f.P.tenant; r_seq = f.P.seq; r_op = P.opcode_of_command f.P.cmd;
        r_phases = [ P.st_ok; status ]; r_payload = payload }
      :: !got
  in
  let verdict = function
    | Sero.Tamper.Intact -> P.st_ok
    | Sero.Tamper.Not_heated -> P.st_not_heated
    | Sero.Tamper.Tampered _ -> P.st_tampered
  in
  let exec (f : P.frame) =
    let tenant = f.P.tenant in
    match f.P.cmd with
    | P.Read { pba } ->
        Sero.Queue.submit_read q ~tenant ~pba (function
          | Ok p -> respond f P.st_ok p
          | Error _ -> respond f P.st_read_error "")
    | P.Write { pba; payload } ->
        Sero.Queue.submit_write q ~tenant ~pba payload (function
          | Ok () -> respond f P.st_ok ""
          | Error _ -> respond f P.st_write_refused "")
    | P.Heat { line; timestamp } ->
        Sero.Queue.submit_heat_line q ~tenant ~line ?timestamp (function
          | Ok h -> respond f P.st_ok (Hash.Sha256.to_raw h)
          | Error _ -> respond f P.st_heat_refused "")
    | P.Verify { line } -> respond f (verdict (Sero.Device.verify_line dev ~line)) ""
    | P.Audit_line { line } ->
        Sero.Queue.submit_verify_line q ~tenant ~line (fun v -> respond f (verdict v) "")
    | P.Audit | P.Array_read _ -> ()
  in
  let thunk () =
    Array.iter
      (function
        | Submit f -> Span.call "queue.submit" ~tenant:f.P.tenant ~seq:f.P.seq (fun () -> exec f)
        | Step -> ignore (Span.call "des.step" ~tenant:0 ~seq:0 (fun () -> Sim.Des.step st.des)))
      rc.actions
  in
  let after () = check "R2 queue" (Host.Server.format_replay (List.rev !got)) in
  (thunk, after)

let ladder ~seed =
  let rc = record ~seed in
  let mismatches = ref [] in
  let check name replay =
    let d = Hash.Sha256.to_hex (Hash.Sha256.digest_string replay) in
    if d <> rc.ref_digest then mismatches := name :: !mismatches
  in
  let lay = Sero.Layout.create ~n_blocks ~line_exp () in
  let devs () = [| (fresh ~seed).dev |] in
  let content _ pba = if rc.content0.(pba) = "" then String.make 512 'z' else rc.content0.(pba) in
  let codec = Devlog.codec_input ~lay ~content rc.dev_ops in
  let rungs =
    [
      Ladder.rung "R0 frames" ~layer:"proto" (fun () -> rung_frames ~seed rc check);
      Ladder.rung "R1 server" ~layer:"server" (fun () -> rung_server ~seed rc check);
      Ladder.rung "R2 queue" ~layer:"queue" (fun () -> rung_queue ~seed rc check);
    ]
  in
  let device () =
    let d = devs () in
    ((fun () -> Devlog.replay_device d rc.dev_ops), fun () -> ())
  in
  let pmedia () =
    let d = devs () in
    ((fun () -> Devlog.replay_pmedia d ~lay rc.dev_ops), fun () -> ())
  in
  let res =
    Ladder.run ~ops:timed_ops ~upper:rungs ~device ~codec ~pmedia
      ~r0_untraced:(fun () -> rung_frames ~seed rc (fun _ _ -> ()))
  in
  {
    res with
    Ladder.metrics = res.Ladder.metrics @ rc.counts;
    identical = res.Ladder.identical && !mismatches = [];
    notes =
      res.Ladder.notes
      @ List.map (Printf.sprintf "%s responses differ from the recording") !mismatches;
  }

(* {1 Self-test}  The oracle must catch a corrupted read payload and a
   tamper detection the stack skipped. *)
let self_test () =
  let st = prepare ~seed:2 in
  st.corrupt_next_read <- true;
  let f0 = st.tl.failed in
  run_ops st 200;
  let caught_read = st.tl.failed > f0 in
  let st = prepare ~seed:2 in
  st.skip_next_detection <- true;
  let n, detected = probe st ~seed:2 in
  [
    ("host-mixed oracle catches a corrupted read payload", caught_read);
    ("host-mixed oracle catches a skipped tamper detection", n > 0 && detected < n);
  ]
