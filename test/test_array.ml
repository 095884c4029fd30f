(* The sharded SERO array: address-map bijectivity, degraded reads
   byte-identical to healthy ones, quorum outvoting of tampered and
   substituted replicas, typed volume states, crash-ordered rebuild
   onto a spare that reproduces the pre-failure burned hashes, and
   replayable multi-device fault plans. *)

let qtest = QCheck_alcotest.to_alcotest

let payload_of vba =
  String.init 200 (fun i -> Char.chr ((vba + (7 * i)) land 0xff))

let mk_volume ?(slots = 4) ?(replication = 2) ?(spares = 1)
    ?(member_blocks = 128) ?(seed = 42) ?cache_capacity () =
  Sarray.Volume.create
    (Sarray.Volume.default_config ~slots ~replication ~spares ~member_blocks
       ~seed ?cache_capacity ())

(* Write every data block of [lines] and heat them. *)
let fill_and_heat v lines =
  let m = Sarray.Volume.map v in
  List.iter
    (fun line ->
      for o = 0 to Sarray.Amap.data_blocks_per_line m - 1 do
        let vba = Sarray.Amap.vba_of m ~line ~offset:o in
        match Sarray.Volume.write_block v ~vba (payload_of vba) with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "fill write refused"
      done;
      match Sarray.Volume.heat_line v ~line () with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "heat refused")
    lines;
  Sarray.Volume.flush v

(* ------------------------------------------------------------------ *)
(* Address map *)

let amap_cases =
  [
    Alcotest.test_case "geometry validation" `Quick (fun () ->
        Alcotest.check_raises "replication must divide slots"
          (Invalid_argument "Amap.create: replication must divide slots")
          (fun () ->
            ignore
              (Sarray.Amap.create ~slots:4 ~replication:3 ~member_lines:8
                 ~blocks_per_line:8)));
    Alcotest.test_case "replicas share one local line and pba" `Quick
      (fun () ->
        let m =
          Sarray.Amap.create ~slots:6 ~replication:3 ~member_lines:10
            ~blocks_per_line:8
        in
        for line = 0 to Sarray.Amap.logical_lines m - 1 do
          let slots = Sarray.Amap.slots_of_line m line in
          Alcotest.(check int) "replication" 3 (List.length slots);
          List.iter
            (fun s ->
              Alcotest.(check int) "inverse placement" line
                (Sarray.Amap.line_of_local m ~slot:s
                   ~local:(Sarray.Amap.local_line m line)))
            slots
        done);
  ]

let amap_bijective =
  QCheck.Test.make ~name:"vba <-> (line, offset) is a bijection" ~count:200
    QCheck.(
      quad (int_range 1 4) (int_range 1 4) (int_range 1 32) (int_range 1 5))
    (fun (groups, repl, member_lines, exp) ->
      let m =
        Sarray.Amap.create ~slots:(groups * repl) ~replication:repl
          ~member_lines ~blocks_per_line:(1 lsl exp + 1)
      in
      let seen = Hashtbl.create 64 in
      let ok = ref true in
      for vba = 0 to Sarray.Amap.n_blocks m - 1 do
        let line = Sarray.Amap.line_of_vba m vba in
        let offset = Sarray.Amap.offset_of_vba m vba in
        if Sarray.Amap.vba_of m ~line ~offset <> vba then ok := false;
        (* Per (slot, pba) uniqueness: no two vbas may collide on any
           replica's medium. *)
        let pba = Sarray.Amap.member_pba m ~vba in
        List.iter
          (fun s ->
            if Hashtbl.mem seen (s, pba) then ok := false;
            Hashtbl.add seen (s, pba) ())
          (Sarray.Amap.slots_of_line m line)
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Twin-volume equivalence: reads after a member loss are byte-identical
   to the healthy twin's.  This is the degraded-mode contract: losing a
   replica degrades redundancy, never data. *)

let twin_equivalence =
  QCheck.Test.make ~name:"degraded reads byte-identical to healthy twin"
    ~count:12
    QCheck.(triple (int_range 0 3) (int_range 0 10000) small_nat)
    (fun (lost_slot, seed, heat_salt) ->
      let mk () = mk_volume ~slots:4 ~replication:2 ~seed () in
      let healthy = mk () and degraded = mk () in
      let m = Sarray.Volume.map healthy in
      let lines = List.init (Sarray.Amap.logical_lines m) Fun.id in
      let heated = List.filter (fun l -> (l + heat_salt) mod 3 = 0) lines in
      fill_and_heat healthy heated;
      fill_and_heat degraded heated;
      (* Unheated lines get sparse writes so blanks stay in play. *)
      List.iter
        (fun line ->
          if not (List.mem line heated) then
            let vba = Sarray.Amap.vba_of m ~line ~offset:0 in
            match Sarray.Volume.write_block degraded ~vba (payload_of vba) with
            | Ok () ->
                ignore (Sarray.Volume.write_block healthy ~vba (payload_of vba))
            | Error _ -> ())
        lines;
      Sarray.Volume.fail_slot degraded ~slot:lost_slot;
      Sarray.Volume.volume_state degraded = Sarray.Volume.Degraded
      && List.for_all
           (fun vba ->
             let a = Sarray.Volume.read_block healthy ~vba in
             let b = Sarray.Volume.read_block degraded ~vba in
             match (a, b) with
             | Ok x, Ok y -> String.equal x y
             | Error Sarray.Volume.Volume_blank, Error Sarray.Volume.Volume_blank
               ->
                 true
             | _ -> false)
           (List.init (Sarray.Amap.n_blocks m) Fun.id))

(* ------------------------------------------------------------------ *)
(* Quorum *)

(* Magnetic rewrite under a burned hash: the replica convicts itself;
   the quorum serves the twin's testimony and the trust ledger demotes
   the tampered member to Suspect. *)
let outvote_tampered () =
  let v = mk_volume ~slots:2 ~replication:2 () in
  let m = Sarray.Volume.map v in
  fill_and_heat v [ 0; 1; 2 ];
  let victim_slot = List.hd (Sarray.Amap.slots_of_line m 1) in
  let dev_ix = Sarray.Volume.dev_of_slot v ~slot:victim_slot in
  let d = Sarray.Volume.device v ~dev:dev_ix in
  let lay = Sero.Device.layout d in
  Sero.Device.unsafe_write_block d
    ~pba:(Sero.Layout.first_data_block lay (Sarray.Amap.local_line m 1))
    "evil payload";
  let report = Sarray.Quorum.verify_volume v in
  Alcotest.(check int) "all heated lines attested" 3 report.counts.attested;
  Alcotest.(check int) "one conviction" 1 report.counts.convicted_replicas;
  (match List.assoc 1 report.Sarray.Quorum.lines with
  | Sarray.Quorum.Attested { voters; against; _ } ->
      Alcotest.(check (list int)) "survivor votes" [ 1 ] voters;
      Alcotest.(check (list int)) "no divergence among voters" [] against
  | _ -> Alcotest.fail "line 1 should still attest from the survivor");
  Alcotest.check
    (Alcotest.of_pp Sarray.Trust.pp_entry)
    "tampered member is suspect"
    {
      Sarray.Trust.votes = 3;
      agreements = 2;
      divergences = 0;
      convictions = 1;
      unreadable = 0;
      status = Sarray.Trust.Suspect;
    }
    (Sarray.Trust.entry (Sarray.Volume.trust v) ~dev:dev_ix);
  (* Reads keep serving, and a full read of the tampered vba returns the
     survivor's bytes. *)
  let vba = Sarray.Amap.vba_of m ~line:1 ~offset:0 in
  match Sarray.Volume.read_block v ~vba with
  | Ok p ->
      Alcotest.(check string) "read falls to survivor" (payload_of vba)
        (String.sub p 0 (String.length (payload_of vba)))
  | Error _ -> Alcotest.fail "read should degrade, not fail"

(* Verify-on-first-read: tampered bytes are never served, even before
   any quorum has run and even when the tampered replica is the
   preferred one — and once the honest mirror is lost too, the read
   fails loudly instead of serving the tampered copy. *)
let read_verify_triage () =
  let v = mk_volume ~slots:2 ~replication:2 () in
  let m = Sarray.Volume.map v in
  fill_and_heat v [ 0; 1 ];
  (* Line 0's preferred slot is 0 (local 0 mod 2): tamper exactly that
     replica so the read order meets the tampered copy first. *)
  let dev_ix = Sarray.Volume.dev_of_slot v ~slot:0 in
  let d = Sarray.Volume.device v ~dev:dev_ix in
  let lay = Sero.Device.layout d in
  Sero.Device.unsafe_write_block d
    ~pba:(Sero.Layout.first_data_block lay (Sarray.Amap.local_line m 0))
    "evil payload";
  for o = 0 to Sarray.Amap.data_blocks_per_line m - 1 do
    let vba = Sarray.Amap.vba_of m ~line:0 ~offset:o in
    match Sarray.Volume.read_block v ~vba with
    | Ok p ->
        Alcotest.(check string) "honest bytes only" (payload_of vba)
          (String.sub p 0 (String.length (payload_of vba)))
    | Error _ -> Alcotest.fail "mirror should still serve"
  done;
  let s = Sarray.Volume.stats v in
  Alcotest.(check bool) "tampered replica was rejected at read time" true
    (s.Sarray.Volume.read_rejects >= 1);
  Alcotest.(check bool) "reads fell through to the mirror" true
    (s.Sarray.Volume.degraded_reads >= 1);
  (* Kill the honest mirror: the volume must fail the read loudly, not
     fall back to the tampered copy. *)
  Sarray.Volume.fail_slot v ~slot:1;
  let vba = Sarray.Amap.vba_of m ~line:0 ~offset:0 in
  match Sarray.Volume.read_block v ~vba with
  | Ok _ -> Alcotest.fail "tampered sole replica must not serve"
  | Error (Sarray.Volume.Replica_errors faults) ->
      Alcotest.(check bool) "flagged as a verify failure" true
        (List.exists
           (fun (_, f) -> f = Sarray.Volume.Failed_verify)
           faults)
  | Error _ -> Alcotest.fail "expected per-replica verify failure"

(* Substituted-media attack: a replica with internally consistent but
   different data+burn.  Locally Intact, only the cross-device hash
   vote catches it; with R=3 the majority outvotes it (Divergence), and
   its line is attested from the agreeing pair. *)
let heat_diverged ~v ~line ~rogue_slot =
  let m = Sarray.Volume.map v in
  let local = Sarray.Amap.local_line m line in
  (* Write honest data everywhere, then alter the rogue replica's copy
     before anything is burned. *)
  for o = 0 to Sarray.Amap.data_blocks_per_line m - 1 do
    let vba = Sarray.Amap.vba_of m ~line ~offset:o in
    match Sarray.Volume.write_block v ~vba (payload_of vba) with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "write refused"
  done;
  Sarray.Volume.flush v;
  let rogue = Sarray.Volume.dev_of_slot v ~slot:rogue_slot in
  let d = Sarray.Volume.device v ~dev:rogue in
  let lay = Sero.Device.layout d in
  (match
     Sero.Device.write_block d
       ~pba:(Sero.Layout.first_data_block lay local)
       "substituted history"
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "rogue write refused");
  (* Burn every replica directly with one timestamp: the rogue burn is
     valid over its own (different) data. *)
  List.iter
    (fun slot ->
      let dev = Sarray.Volume.dev_of_slot v ~slot in
      match
        Sero.Device.heat_line
          (Sarray.Volume.device v ~dev)
          ~line:local ~timestamp:1.0 ()
      with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "direct heat failed")
    (Sarray.Amap.slots_of_line m line)

let outvote_substituted () =
  let v = mk_volume ~slots:3 ~replication:3 ~member_blocks:64 () in
  heat_diverged ~v ~line:0 ~rogue_slot:1;
  let report = Sarray.Quorum.verify_volume v in
  Alcotest.(check int) "line attested by majority" 1 report.counts.attested;
  Alcotest.(check int) "rogue outvoted" 1 report.counts.outvoted_replicas;
  let rogue_dev = Sarray.Volume.dev_of_slot v ~slot:1 in
  Alcotest.(check bool) "rogue is suspect" true
    (Sarray.Trust.status (Sarray.Volume.trust v) ~dev:rogue_dev
    = Sarray.Trust.Suspect);
  match List.assoc 0 report.Sarray.Quorum.lines with
  | Sarray.Quorum.Attested { against; _ } ->
      Alcotest.(check (list int)) "slot 1 outvoted" [ 1 ] against
  | _ -> Alcotest.fail "line 0 should attest"

let tie_unattested () =
  let v = mk_volume ~slots:2 ~replication:2 ~member_blocks:64 () in
  heat_diverged ~v ~line:0 ~rogue_slot:1;
  let report = Sarray.Quorum.verify_volume v in
  Alcotest.(check int) "tie surfaces as unattested" 1 report.counts.unattested;
  match List.assoc 0 report.Sarray.Quorum.lines with
  | Sarray.Quorum.Tie_unattested vs ->
      Alcotest.(check int) "both voters listed" 2 (List.length vs)
  | _ -> Alcotest.fail "a 1-1 split must never be silently resolved"

let quorum_parallel_deterministic () =
  let run jobs =
    let v = mk_volume ~slots:4 ~replication:2 () in
    fill_and_heat v [ 0; 3; 5 ];
    let report = Sarray.Quorum.verify_volume ~jobs v in
    (report, Sarray.Volume.events v)
  in
  let r1, e1 = run 1 and r4, e4 = run 4 in
  Alcotest.(check bool) "reports identical for any jobs" true (r1 = r4);
  Alcotest.(check (list string)) "event logs identical" e1 e4

(* ------------------------------------------------------------------ *)
(* Volume states *)

let state_transitions () =
  let v = mk_volume ~slots:4 ~replication:2 ~spares:0 () in
  let check msg expect =
    Alcotest.check
      (Alcotest.of_pp Sarray.Volume.pp_volume_state)
      msg expect (Sarray.Volume.volume_state v)
  in
  check "fresh volume optimal" Sarray.Volume.Optimal;
  Sarray.Volume.fail_slot v ~slot:0;
  check "one loss degraded" Sarray.Volume.Degraded;
  Sarray.Volume.fail_slot v ~slot:2;
  check "losses in distinct groups still degraded" Sarray.Volume.Degraded;
  Sarray.Volume.fail_slot v ~slot:1;
  check "whole mirror group lost: critical" Sarray.Volume.Critical;
  (* Group 0 offline: its lines are unreadable, group 1's still serve. *)
  let m = Sarray.Volume.map v in
  let vba_g0 = Sarray.Amap.vba_of m ~line:0 ~offset:0 in
  (match Sarray.Volume.read_block v ~vba:vba_g0 with
  | Error Sarray.Volume.Volume_offline -> ()
  | _ -> Alcotest.fail "group 0 should be offline");
  Sarray.Volume.revive_dev v ~dev:(Sarray.Volume.dev_of_slot v ~slot:1);
  check "revival recovers to degraded" Sarray.Volume.Degraded

(* ------------------------------------------------------------------ *)
(* Rebuild *)

let burned_hashes dev n_lines =
  List.init n_lines (fun l ->
      match Sero.Device.read_hash_block dev ~line:l with
      | `Burned m -> Some m.Sero.Device.hash
      | _ -> None)

let rebuild_after_loss () =
  let v = mk_volume ~slots:2 ~replication:2 ~spares:1 () in
  let m = Sarray.Volume.map v in
  let heated = [ 0; 2; 4 ] in
  fill_and_heat v heated;
  let lost_dev = Sarray.Volume.dev_of_slot v ~slot:1 in
  let pre =
    burned_hashes (Sarray.Volume.device v ~dev:lost_dev) m.Sarray.Amap.member_lines
  in
  Sarray.Volume.fail_slot v ~slot:1;
  (match Sarray.Rebuild.rebuild_slot v ~slot:1 with
  | Error _ -> Alcotest.fail "rebuild should succeed"
  | Ok r ->
      Alcotest.(check int) "all lines scanned" m.Sarray.Amap.member_lines
        r.lines_scanned;
      Alcotest.(check int) "heated lines re-burned" (List.length heated)
        r.heated_rebuilt;
      Alcotest.(check (list (pair int string))) "no reattest failures" []
        r.reattest_failed);
  let new_dev = Sarray.Volume.dev_of_slot v ~slot:1 in
  Alcotest.(check bool) "slot served by the spare" true (new_dev <> lost_dev);
  let post =
    burned_hashes (Sarray.Volume.device v ~dev:new_dev) m.Sarray.Amap.member_lines
  in
  Alcotest.(check bool) "burned hashes identical to pre-failure" true
    (List.for_all2
       (fun a b ->
         match (a, b) with
         | Some x, Some y -> Hash.Sha256.equal x y
         | None, None -> true
         | _ -> false)
       pre post);
  Alcotest.check
    (Alcotest.of_pp Sarray.Volume.pp_volume_state)
    "volume optimal again" Sarray.Volume.Optimal
    (Sarray.Volume.volume_state v);
  let report = Sarray.Quorum.verify_volume v in
  Alcotest.(check int) "full verify: every heated line attested"
    (List.length heated) report.counts.attested;
  Alcotest.(check int) "full verify: nothing unattested" 0
    report.counts.unattested

let crash_mid_rebuild () =
  let v = mk_volume ~slots:2 ~replication:2 ~spares:1 ~cache_capacity:None () in
  let m = Sarray.Volume.map v in
  let heated = [ 0; 1; 2; 3 ] in
  fill_and_heat v heated;
  let lost_dev = Sarray.Volume.dev_of_slot v ~slot:0 in
  let survivor_dev = Sarray.Volume.dev_of_slot v ~slot:1 in
  let pre =
    burned_hashes (Sarray.Volume.device v ~dev:lost_dev) m.Sarray.Amap.member_lines
  in
  Sarray.Volume.fail_slot v ~slot:0;
  (* Arm a power cut on the spare so the crash lands mid-rebuild, after
     some lines are copied and burned but before the commit point. *)
  let spare = List.hd (Sarray.Volume.spare_pool v) in
  let spare_dev = Sarray.Volume.device v ~dev:spare in
  Sero.Device.install_fault spare_dev
    (Fault.Injector.create (Fault.Plan.make ~power_cut_after_ops:3000 ()));
  (match Sarray.Rebuild.rebuild_slot v ~slot:0 with
  | exception Fault.Injector.Power_cut -> ()
  | Ok _ -> Alcotest.fail "power cut should interrupt the rebuild"
  | Error _ -> Alcotest.fail "unexpected typed rebuild error");
  (* Crash ordering: the slot map is untouched, the volume is exactly as
     degraded as before. *)
  Alcotest.(check int) "no commit: slot still on the lost device" lost_dev
    (Sarray.Volume.dev_of_slot v ~slot:0);
  (* Reboot: fresh queues over the same media, same membership. *)
  Sero.Device.clear_fault spare_dev;
  let devices =
    Array.init (Sarray.Volume.n_devices v) (fun i ->
        Sarray.Volume.device v ~dev:i)
  in
  let v2 =
    Sarray.Volume.of_devices (Sarray.Volume.cfg v) ~devices
      ~slot_dev:[| lost_dev; survivor_dev |]
      ~spare_pool:[ spare ]
      ~states:(Sarray.Volume.member_states v)
  in
  (match Sarray.Rebuild.rebuild_slot v2 ~slot:0 with
  | Error _ -> Alcotest.fail "restarted rebuild should succeed"
  | Ok r ->
      Alcotest.(check (list (pair int string)))
        "idempotent restart: no reattest failures" [] r.reattest_failed);
  let new_dev = Sarray.Volume.dev_of_slot v2 ~slot:0 in
  let post =
    burned_hashes
      (Sarray.Volume.device v2 ~dev:new_dev)
      m.Sarray.Amap.member_lines
  in
  Alcotest.(check bool) "hashes survive the crashed rebuild" true
    (List.for_all2
       (fun a b ->
         match (a, b) with
         | Some x, Some y -> Hash.Sha256.equal x y
         | None, None -> true
         | _ -> false)
       pre post);
  let report = Sarray.Quorum.verify_volume v2 in
  Alcotest.(check int) "full verify after crash+rebuild: attested"
    (List.length heated) report.counts.attested;
  Alcotest.(check int) "nothing unattested" 0 report.counts.unattested;
  Alcotest.(check int) "nobody outvoted" 0 report.counts.outvoted_replicas

(* ------------------------------------------------------------------ *)
(* Array fault plans *)

let plan_replay () =
  let mk () =
    let v = mk_volume ~slots:2 ~replication:2 ~spares:1 () in
    fill_and_heat v [ 0; 1 ];
    let plan =
      Fault.Plan.array_make ~seed:7
        ~events:
          [
            { Fault.Plan.at_op = 30; event = Fault.Plan.Replica_tamper { member = 0; line = 1 } };
            { Fault.Plan.at_op = 40; event = Fault.Plan.Member_loss { member = 1 } };
          ]
        ()
    in
    Sarray.Volume.install_plan v plan;
    let m = Sarray.Volume.map v in
    for vba = 0 to 50 do
      ignore (Sarray.Volume.read_block v ~vba:(vba mod Sarray.Amap.n_blocks m))
    done;
    (v, Sarray.Volume.fault_ledger v)
  in
  let v, ledger = mk () in
  Alcotest.(check bool) "member loss fired" true
    ((Sarray.Volume.member_states v).(Sarray.Volume.dev_of_slot v ~slot:1)
    = Sarray.Volume.Lost);
  let report = Sarray.Quorum.verify_volume v in
  Alcotest.(check int) "tamper event detected" 1
    report.counts.convicted_replicas;
  (* With the mirror lost, the tampered line's only replica convicts
     itself: the loss is surfaced as unattested, never silently served. *)
  Alcotest.(check int) "healthy line still attested" 1 report.counts.attested;
  Alcotest.(check int) "tampered line surfaced unattested" 1
    report.counts.unattested;
  (* Replay: identical plan, identical op trace, identical ledger. *)
  let _, ledger' = mk () in
  Alcotest.(check string) "fault ledger replays byte-identically" ledger
    ledger';
  (* Per-member seeds differ. *)
  let p = Fault.Plan.array_make ~seed:7 () in
  Alcotest.(check bool) "member seeds are distinct" true
    (Fault.Plan.member_seed p ~member:0 <> Fault.Plan.member_seed p ~member:1)

(* ------------------------------------------------------------------ *)
(* Image round-trip *)

let image_roundtrip () =
  let dir = Filename.temp_file "sarray" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "vol.arr" in
  let v = mk_volume ~slots:2 ~replication:2 ~spares:1 () in
  fill_and_heat v [ 0; 2 ];
  (* Make the saved state interesting: a suspect member. *)
  let m = Sarray.Volume.map v in
  let d = Sarray.Volume.device v ~dev:(Sarray.Volume.dev_of_slot v ~slot:0) in
  Sero.Device.unsafe_write_block d
    ~pba:
      (Sero.Layout.first_data_block (Sero.Device.layout d)
         (Sarray.Amap.local_line m 0))
    "tamper before save";
  ignore (Sarray.Quorum.verify_volume v);
  Sarray.Aimage.save v path;
  match Sarray.Aimage.load path with
  | Error e -> Alcotest.fail e
  | Ok v2 ->
      Alcotest.(check bool) "trust ledger survives" true
        (Sarray.Trust.entry (Sarray.Volume.trust v)
           ~dev:(Sarray.Volume.dev_of_slot v ~slot:0)
        = Sarray.Trust.entry (Sarray.Volume.trust v2)
            ~dev:(Sarray.Volume.dev_of_slot v2 ~slot:0));
      let r = Sarray.Quorum.verify_volume v2 in
      Alcotest.(check int) "reloaded volume re-attests" 2 r.counts.attested;
      List.iter
        (fun vba ->
          match
            ( Sarray.Volume.read_block v ~vba,
              Sarray.Volume.read_block v2 ~vba )
          with
          | Ok a, Ok b -> Alcotest.(check string) "payload survives" a b
          | Error _, Error _ -> ()
          | _ -> Alcotest.fail "read disagreement after reload")
        (List.init (Sarray.Amap.n_blocks m) Fun.id)

let volume_cases =
  [
    Alcotest.test_case "quorum outvotes a tampered replica" `Quick
      outvote_tampered;
    Alcotest.test_case "tampered bytes never served (verify-on-read)" `Quick
      read_verify_triage;
    Alcotest.test_case "majority outvotes a substituted replica" `Quick
      outvote_substituted;
    Alcotest.test_case "a 1-1 split surfaces as Unattested" `Quick
      tie_unattested;
    Alcotest.test_case "verify_volume deterministic under -j" `Quick
      quorum_parallel_deterministic;
    Alcotest.test_case "volume state transitions" `Quick state_transitions;
    Alcotest.test_case "rebuild onto spare preserves burned hashes" `Quick
      rebuild_after_loss;
    Alcotest.test_case "crash mid-rebuild: restart is idempotent" `Quick
      crash_mid_rebuild;
    Alcotest.test_case "array fault plan fires and replays" `Quick plan_replay;
    Alcotest.test_case "array image round-trip" `Quick image_roundtrip;
  ]

let () =
  Alcotest.run "array"
    [
      ("amap", amap_cases @ [ qtest amap_bijective ]);
      ("volume", volume_cases @ [ qtest twin_equivalence ]);
    ]
