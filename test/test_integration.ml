(* Cross-library integration: full-stack scenarios and global
   invariants that single-module suites cannot see. *)

let ok what = function Ok v -> v | Error e -> Alcotest.failf "%s: %s" what e

(* {1 The whole paper narrative in one test} *)

let narrative =
  Alcotest.test_case "write / heat / tamper / detect / wipe / recover" `Quick
    (fun () ->
      let dev =
        Sero.Device.create (Sero.Device.default_config ~n_blocks:1024 ~line_exp:3 ())
      in
      let fs = Lfs.Fs.format dev in
      ok "mkdir" (Lfs.Fs.mkdir fs "/ledger");
      let body =
        String.concat "\n"
          (List.init 64 (fun i -> Printf.sprintf "entry %03d: amount %d" i (i * 17)))
      in
      ok "create" (Lfs.Fs.create fs ~heat_group:3 "/ledger/2007");
      ok "write" (Lfs.Fs.write_file fs "/ledger/2007" ~offset:0 body);
      let _ = ok "heat" (Lfs.Fs.heat fs "/ledger/2007") in
      Lfs.Fs.sync fs;
      (* Round-trip the whole device through an image file. *)
      let path = Filename.temp_file "sero" ".img" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Sero.Image.save dev path;
          let dev2 =
            match Sero.Image.load path with
            | Ok d -> d
            | Error e -> Alcotest.failf "image: %s" e
          in
          let fs2 = ok "mount" (Lfs.Fs.mount dev2) in
          Alcotest.(check string) "content survives the image" body
            (ok "read" (Lfs.Fs.read_file fs2 "/ledger/2007"));
          (* Tamper on the reloaded device; detection must hold there. *)
          let st = Lfs.Fs.state fs2 in
          let ino =
            match Lfs.Dirops.lookup st "/ledger/2007" with
            | Some (i, _) -> i
            | None -> Alcotest.fail "lost"
          in
          let line = List.hd (Lfs.Heat.file_lines st ~ino) in
          Sero.Device.unsafe_write_block dev2
            ~pba:
              (List.hd
                 (Sero.Layout.data_blocks_of_line (Sero.Device.layout dev2) line))
            "entry 000: amount 0";
          Alcotest.(check bool) "tamper detected" true
            (List.exists
               (fun (_, v) -> Sero.Tamper.is_tampered v)
               (ok "verify" (Lfs.Fs.verify fs2 "/ledger/2007")));
          (* Total wipe: evidence and recovery per Section 5.2. *)
          Sero.Device.unsafe_magnetic_wipe dev2;
          let report = Lfs.Fsck.run dev2 in
          Alcotest.(check bool) "wiped heated lines testify" true
            (report.Lfs.Fsck.heated_tampered <> [])))

(* {1 Global accounting invariant}

   After any sequence of FS operations, every segment's live counter
   must equal the number of owner slots the liveness oracle confirms.
   (This property would have caught two real bugs found during
   development: the mid-clean segment reallocation and the metadata
   double-accounting.) *)

let check_accounting st =
  let ok = ref true in
  Array.iteri
    (fun seg s ->
      match s.Lfs.State.state with
      | Lfs.Enc.Seg_heated | Lfs.Enc.Seg_free -> ()
      | Lfs.Enc.Seg_open | Lfs.Enc.Seg_closed ->
          if seg >= Lfs.State.first_data_segment st && s.Lfs.State.owners_valid
          then begin
            let live = ref 0 in
            Array.iteri
              (fun slot owner ->
                let pba = Lfs.State.pba_of_slot st ~seg ~slot in
                if Lfs.Cleaner.is_live st ~pba owner then incr live)
              s.Lfs.State.owners;
            if !live <> s.Lfs.State.live then begin
              Printf.eprintf "segment %d: counter=%d oracle=%d\n" seg
                s.Lfs.State.live !live;
              ok := false
            end
          end)
    st.Lfs.State.segs;
  !ok

type op =
  | Write of int * int * int (* file, offset-block, length-bytes *)
  | Delete of int
  | Heat of int
  | Sync

let arb_ops =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Write (f, o, l) -> Printf.sprintf "w%d@%d+%d" f o l
             | Delete f -> Printf.sprintf "d%d" f
             | Heat f -> Printf.sprintf "h%d" f
             | Sync -> "s")
           ops))
    QCheck.Gen.(
      list_size (1 -- 40)
        (frequency
           [
             ( 6,
               let* f = int_range 0 4 in
               let* o = int_range 0 10 in
               let* l = int_range 1 2000 in
               return (Write (f, o, l)) );
             (1, map (fun f -> Delete f) (int_range 0 4));
             (1, map (fun f -> Heat f) (int_range 0 4));
             (1, return Sync);
           ]))

let accounting_invariant =
  QCheck.Test.make ~name:"segment live counters match the liveness oracle"
    ~count:40 arb_ops
    (fun ops ->
      let dev =
        Sero.Device.create (Sero.Device.default_config ~n_blocks:1024 ~line_exp:3 ())
      in
      let fs = Lfs.Fs.format dev in
      let st = Lfs.Fs.state fs in
      let path f = Printf.sprintf "/f%d" f in
      List.iter
        (fun op ->
          (* Results are intentionally ignored: invalid ops (heating an
             empty file, writing a heated one) must be refused without
             corrupting the accounting. *)
          match op with
          | Write (f, o, l) ->
              if not (Lfs.Fs.exists fs (path f)) then
                ignore (Lfs.Fs.create fs ~heat_group:f (path f));
              ignore
                (Lfs.Fs.write_file fs (path f) ~offset:(512 * o)
                   (String.make l (Char.chr (65 + f))))
          | Delete f -> ignore (Lfs.Fs.unlink fs (path f))
          | Heat f -> ignore (Lfs.Fs.heat fs (path f))
          | Sync -> Lfs.Fs.sync fs)
        ops;
      check_accounting st)

(* {1 Cold-crash consistency}

   A mount sees only the last checkpoint: data written after it is
   gone, but everything reachable is consistent and heated lines are
   never lost (their ground truth is the medium). *)

let crash_consistency =
  Alcotest.test_case "mount after crash: checkpointed state, no corruption"
    `Quick (fun () ->
      let dev =
        Sero.Device.create (Sero.Device.default_config ~n_blocks:1024 ~line_exp:3 ())
      in
      let fs = Lfs.Fs.format dev in
      ok "create" (Lfs.Fs.create fs "/durable");
      ok "write" (Lfs.Fs.write_file fs "/durable" ~offset:0 "checkpointed");
      let _ = ok "heat" (Lfs.Fs.heat fs "/durable") in
      (* heat checkpoints; now crash mid-flight with unsynced work. *)
      ok "create2" (Lfs.Fs.create fs "/volatile");
      ok "write2" (Lfs.Fs.write_file fs "/volatile" ~offset:0 "never synced");
      (* No unmount: simulate the crash by just re-mounting the device. *)
      let fs2 = ok "mount" (Lfs.Fs.mount dev) in
      Alcotest.(check string) "durable file intact" "checkpointed"
        (ok "read" (Lfs.Fs.read_file fs2 "/durable"));
      Alcotest.(check bool) "heated state preserved" true
        (ok "heated" (Lfs.Fs.is_heated fs2 "/durable"));
      (* The unsynced file is either absent or fully consistent. *)
      (match Lfs.Fs.read_file fs2 "/volatile" with
      | Ok s -> Alcotest.(check string) "if present, consistent" "never synced" s
      | Error _ -> ());
      (* The FS keeps working after the crash. *)
      ok "post-crash create" (Lfs.Fs.create fs2 "/after");
      ok "post-crash write" (Lfs.Fs.write_file fs2 "/after" ~offset:0 "alive");
      Alcotest.(check string) "post-crash io" "alive"
        (ok "read" (Lfs.Fs.read_file fs2 "/after")))

(* {1 Mixed workloads share one device} *)

let shared_device =
  Alcotest.test_case "lfs + selfsec journal + verification coexist" `Quick
    (fun () ->
      let dev =
        Sero.Device.create (Sero.Device.default_config ~n_blocks:2048 ~line_exp:3 ())
      in
      let fs = Lfs.Fs.format dev in
      let s = ok "wrap" (Selfsec.wrap ~epoch_len:5 fs) in
      ok "create" (Selfsec.create s ~heat_group:1 "/contract");
      for i = 1 to 12 do
        ok "write" (Selfsec.write_file s "/contract" ~offset:0
             (Printf.sprintf "revision %d" i))
      done;
      (* Freeze the final revision as well as the journal epochs. *)
      let _ = ok "heat" (Lfs.Fs.heat fs "/contract") in
      let audit = ok "audit" (Selfsec.verify_history s) in
      Alcotest.(check bool) "journal sealed" true (audit.Selfsec.sealed_epochs >= 2);
      Alcotest.(check bool) "chain intact" true audit.Selfsec.chain_intact;
      Alcotest.(check bool) "contract heated" true
        (ok "is" (Lfs.Fs.is_heated fs "/contract"));
      (* The device-level scan sees both kinds of heated lines. *)
      let entries = Sero.Device.scan dev in
      let heated =
        List.length
          (List.filter
             (fun e ->
               match e.Sero.Device.verdict with
               | Sero.Tamper.Not_heated -> false
               | _ -> true)
             entries)
      in
      Alcotest.(check bool) "several heated lines on the device" true (heated >= 3))

let () =
  Alcotest.run "integration"
    [
      ("narrative", [ narrative ]);
      ("invariants", [ QCheck_alcotest.to_alcotest accounting_invariant ]);
      ("crash", [ crash_consistency ]);
      ("shared-device", [ shared_device ]);
    ]
