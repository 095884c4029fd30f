(* Fault injection and the RAS layer: ledger determinism, torn-burn
   detection and completion, tip sparing, read retry, scrubbing, and
   the invariant that recovery never changes a tamper verdict. *)

let qtest = QCheck_alcotest.to_alcotest

let make_dev ?(n_blocks = 128) ?(ras = false) () =
  let c = Sero.Device.default_config ~n_blocks ~line_exp:3 () in
  Sero.Device.create { c with Sero.Device.ras }

let fill_line dev line =
  List.iteri
    (fun i pba ->
      match
        Sero.Device.write_block dev ~pba (Printf.sprintf "line %d block %d" line i)
      with
      | Ok () -> ()
      | Error e -> Alcotest.failf "fill: %a" Sero.Device.pp_write_error e)
    (Sero.Layout.data_blocks_of_line (Sero.Device.layout dev) line)

let heat_ok dev line =
  match Sero.Device.heat_line dev ~line () with
  | Ok h -> h
  | Error e -> Alcotest.failf "heat: %a" Sero.Device.pp_heat_error e

let tear_line dev ~line ~cells =
  let inj =
    Fault.Injector.create (Fault.Plan.make ~power_cut_after_ewb:cells ())
  in
  Sero.Device.install_fault dev inj;
  (match Sero.Device.heat_line dev ~line () with
  | exception Fault.Injector.Power_cut -> ()
  | Ok _ -> Alcotest.fail "expected the power cut to interrupt the burn"
  | Error e -> Alcotest.failf "heat: %a" Sero.Device.pp_heat_error e);
  Sero.Device.clear_fault dev

let verdict = Alcotest.testable Sero.Tamper.pp_verdict Sero.Tamper.equal_verdict

(* {1 Plans and determinism} *)

let plan_cases =
  [
    Alcotest.test_case "plan validation" `Quick (fun () ->
        Alcotest.check_raises "ber > 1"
          (Invalid_argument "Fault.Plan.make: read_ber must be in [0, 1]")
          (fun () -> ignore (Fault.Plan.make ~read_ber:1.5 ()));
        Alcotest.check_raises "negative cut"
          (Invalid_argument "Fault.Plan.make: power_cut_after_ops < 0")
          (fun () -> ignore (Fault.Plan.make ~power_cut_after_ops:(-1) ())));
    Alcotest.test_case "identical runs produce identical ledgers" `Quick
      (fun () ->
        let run () =
          let dev = make_dev ~ras:true () in
          fill_line dev 2;
          let plan =
            Fault.Plan.make ~seed:99 ~read_ber:0.002 ~stuck_rate:0.001
              ~tip_deaths:[ { Fault.Plan.tip = 5; after_ops = 100 } ]
              ()
          in
          let inj = Fault.Injector.create plan in
          Sero.Device.install_fault dev inj;
          List.iter
            (fun pba -> ignore (Sero.Device.read_block dev ~pba))
            (Sero.Layout.data_blocks_of_line (Sero.Device.layout dev) 2);
          Fault.Injector.ledger_to_string inj
        in
        let a = run () and b = run () in
        Alcotest.(check bool) "ledger has events" true (String.length a > 0);
        Alcotest.(check string) "bit-identical ledgers" a b);
    Alcotest.test_case "power cut fires once then disarms" `Quick (fun () ->
        let dev = make_dev () in
        let inj =
          Fault.Injector.create (Fault.Plan.make ~power_cut_after_ops:5 ())
        in
        Sero.Device.install_fault dev inj;
        let cut =
          try
            for line = 0 to 3 do
              fill_line dev line
            done;
            false
          with Fault.Injector.Power_cut -> true
        in
        Alcotest.(check bool) "cut fired" true cut;
        Alcotest.(check bool) "recorded" true (Fault.Injector.cut_fired inj);
        (* The reboot: the same device keeps working, no second cut. *)
        fill_line dev 1);
  ]

(* {1 Torn burns} *)

let torn_cases =
  [
    Alcotest.test_case "power cut mid-burn leaves a recoverable torn line"
      `Quick (fun () ->
        let dev = make_dev ~ras:true () in
        let lay = Sero.Device.layout dev in
        fill_line dev 1;
        tear_line dev ~line:1 ~cells:700;
        (match Sero.Device.read_hash_block dev ~line:1 with
        | `Torn torn ->
            Alcotest.(check bool)
              "some cells burned" true
              (torn.Sero.Device.burned_cells > 0
              && torn.Sero.Device.burned_cells < 2048)
        | `Not_heated -> Alcotest.fail "torn area read as not heated"
        | `Burned _ -> Alcotest.fail "torn area read as fully burned"
        | `Tampered _ -> Alcotest.fail "torn area read as tampered");
        Alcotest.check
          (Alcotest.testable Sero.Device.pp_block_class ( = ))
          "classifies as torn" Sero.Device.Torn_block
          (Sero.Device.classify_block dev
             ~pba:(Sero.Layout.hash_block_of_line lay 1));
        (* Until completed, the verdict is tampered: a torn burn is
           indistinguishable from a sabotaged one without finishing it. *)
        Alcotest.check verdict "tampered before completion"
          (Sero.Tamper.Tampered [ Sero.Tamper.Partially_burned ])
          (Sero.Device.verify_line dev ~line:1);
        ignore (heat_ok dev 1);
        Alcotest.check verdict "intact after completion" Sero.Tamper.Intact
          (Sero.Device.verify_line dev ~line:1));
    Alcotest.test_case "completion after data tampering stays evidence" `Quick
      (fun () ->
        let dev = make_dev ~ras:true () in
        let lay = Sero.Device.layout dev in
        fill_line dev 1;
        tear_line dev ~line:1 ~cells:700;
        (* The adversary rewrites a data block while the burn is torn. *)
        Sero.Device.unsafe_write_block dev
          ~pba:(List.hd (Sero.Layout.data_blocks_of_line lay 1))
          "history, rewritten";
        (match Sero.Device.heat_line dev ~line:1 () with
        | Ok _ -> ()
        | Error _ -> ());
        Alcotest.(check bool)
          "verify still reports tampering" true
          (Sero.Tamper.is_tampered (Sero.Device.verify_line dev ~line:1)));
    Alcotest.test_case "weak pulses are re-pulsed under RAS" `Quick (fun () ->
        let dev = make_dev ~ras:true () in
        fill_line dev 1;
        let inj =
          Fault.Injector.create (Fault.Plan.make ~seed:3 ~weak_ewb_p:0.02 ())
        in
        Sero.Device.install_fault dev inj;
        ignore (heat_ok dev 1);
        Sero.Device.clear_fault dev;
        let s = Sero.Device.stats dev in
        Alcotest.(check bool)
          "re-pulses recorded" true
          (s.Sero.Device.repulses > 0);
        Alcotest.check verdict "line intact despite weak pulses"
          Sero.Tamper.Intact
          (Sero.Device.verify_line dev ~line:1));
  ]

(* {1 Tip sparing and read retry} *)

let ras_cases =
  [
    Alcotest.test_case "dead tip: fatal without sparing, spared with RAS"
      `Quick (fun () ->
        let read_all dev line =
          List.for_all
            (fun pba -> Result.is_ok (Sero.Device.read_block dev ~pba))
            (Sero.Layout.data_blocks_of_line (Sero.Device.layout dev) line)
        in
        let kill dev =
          let inj =
            Fault.Injector.create
              (Fault.Plan.make
                 ~tip_deaths:[ { Fault.Plan.tip = 7; after_ops = 0 } ]
                 ())
          in
          Sero.Device.install_fault dev inj
        in
        let plain = make_dev () in
        fill_line plain 2;
        kill plain;
        Alcotest.(check bool) "no RAS: reads fail" false (read_all plain 2);
        let ras = make_dev ~ras:true () in
        fill_line ras 2;
        kill ras;
        Alcotest.(check bool) "RAS: reads recover" true (read_all ras 2);
        let s = Sero.Device.stats ras in
        Alcotest.(check bool)
          "remap recorded" true
          (s.Sero.Device.remapped_tips >= 1));
    Alcotest.test_case "read retry rides out transient flips" `Quick (fun () ->
        let dev = make_dev ~ras:true () in
        fill_line dev 2;
        let inj =
          Fault.Injector.create (Fault.Plan.make ~seed:17 ~read_ber:0.004 ())
        in
        Sero.Device.install_fault dev inj;
        let failures = ref 0 in
        for _ = 1 to 5 do
          List.iter
            (fun pba ->
              if Result.is_error (Sero.Device.read_block dev ~pba) then
                incr failures)
            (Sero.Layout.data_blocks_of_line (Sero.Device.layout dev) 2)
        done;
        let s = Sero.Device.stats dev in
        Alcotest.(check bool)
          "retries happened and won" true
          (s.Sero.Device.retries > 0 && s.Sero.Device.retry_successes > 0);
        Alcotest.(check int) "every read recovered" 0 !failures);
    Alcotest.test_case "tips rounding: E17 boundary sizes still classify"
      `Quick (fun () ->
        (* A non-multiple dot count must not raise since the rounding
           rule replaced the Invalid_argument. *)
        let medium =
          Pmedia.Medium.create (Pmedia.Medium.default_config ~rows:30 ~cols:35)
        in
        let tips = Probe.Tips.create ~n_tips:16 medium in
        Alcotest.(check int)
          "field size rounds up" 1056 (16 * Probe.Tips.field_size tips));
  ]

(* {1 Scrub} *)

let scrub_cases =
  [
    Alcotest.test_case "scrub completes torn burns and reports them" `Quick
      (fun () ->
        let dev = make_dev ~ras:true () in
        fill_line dev 1;
        fill_line dev 3;
        tear_line dev ~line:1 ~cells:600;
        tear_line dev ~line:3 ~cells:1100;
        let r = Sero.Scrub.pass dev in
        Alcotest.(check (list int))
          "both torn lines completed" [ 1; 3 ]
          (List.sort compare r.Sero.Scrub.torn_completed);
        Alcotest.check verdict "line 1 intact" Sero.Tamper.Intact
          (Sero.Device.verify_line dev ~line:1);
        Alcotest.check verdict "line 3 intact" Sero.Tamper.Intact
          (Sero.Device.verify_line dev ~line:3));
    Alcotest.test_case "scrub rewrites sectors past the correction threshold"
      `Quick (fun () ->
        let dev = make_dev ~ras:true () in
        let lay = Sero.Device.layout dev in
        fill_line dev 2;
        (* Age one sector: flip enough dots to push RS corrections past
           the scrub threshold but stay within its 12-symbol budget. *)
        let pba = List.hd (Sero.Layout.data_blocks_of_line lay 2) in
        let med = Probe.Pdevice.medium (Sero.Device.pdevice dev) in
        let first = Sero.Layout.block_first_dot lay pba in
        for i = 0 to 7 do
          let dot = first + (i * 8) in
          match Pmedia.Medium.get med dot with
          | Pmedia.Dot.Magnetised d ->
              Pmedia.Medium.set med dot
                (Pmedia.Dot.Magnetised
                   (match d with
                   | Pmedia.Dot.Up -> Pmedia.Dot.Down
                   | Pmedia.Dot.Down -> Pmedia.Dot.Up))
          | Pmedia.Dot.Heated -> ()
        done;
        let r =
          Sero.Scrub.pass
            ~config:
              {
                Sero.Scrub.default_config with
                Sero.Scrub.correction_threshold = 2;
              }
            dev
        in
        Alcotest.(check bool) "rewrote the aged sector" true (r.Sero.Scrub.rewritten >= 1);
        let s = Sero.Device.stats dev in
        Alcotest.(check bool)
          "counter tracks rewrites" true
          (s.Sero.Device.scrub_rewrites >= 1);
        (* The refreshed sector decodes cleanly now. *)
        match Sero.Device.read_block dev ~pba with
        | Ok payload ->
            Alcotest.(check bool)
              "payload preserved" true
              (String.length payload > 0)
        | Error e -> Alcotest.failf "read: %a" Sero.Device.pp_read_error e);
  ]

(* {1 Recovery never weakens tamper evidence} *)

let verdict_invariance =
  QCheck.Test.make ~name:"retry+scrub never change a heated line's verdict"
    ~count:15
    QCheck.(pair (int_range 1 9) (int_bound 1000))
    (fun (line, seed) ->
      let dev = make_dev ~ras:true () in
      fill_line dev line;
      ignore (heat_ok dev line);
      (* Half the cases get real tampering before the recovery storm. *)
      let tampered = seed mod 2 = 0 in
      if tampered then
        Sero.Device.unsafe_write_block dev
          ~pba:
            (List.hd
               (Sero.Layout.data_blocks_of_line (Sero.Device.layout dev) line))
          "rewritten history";
      let before = Sero.Device.verify_line dev ~line in
      let inj =
        Fault.Injector.create (Fault.Plan.make ~seed ~read_ber:0.002 ())
      in
      Sero.Device.install_fault dev inj;
      List.iter
        (fun pba -> ignore (Sero.Device.read_block dev ~pba))
        (Sero.Layout.data_blocks_of_line (Sero.Device.layout dev) line);
      ignore (Sero.Scrub.pass dev);
      Sero.Device.clear_fault dev;
      let after = Sero.Device.verify_line dev ~line in
      Sero.Tamper.equal_verdict before after
      && Sero.Tamper.is_tampered before = tampered)

(* {1 LFS power-cut recovery} *)

let lfs_cases =
  [
    Alcotest.test_case "mount recovery completes a torn heat" `Quick (fun () ->
        let dev = make_dev ~n_blocks:256 ~ras:true () in
        let fs = Lfs.Fs.format dev in
        (match Lfs.Fs.create fs "/ledger" with
        | Ok () -> ()
        | Error e -> Alcotest.failf "create: %s" e);
        (match
           Lfs.Fs.write_file fs "/ledger" ~offset:0
             (String.concat "\n"
                (List.init 80 (fun i -> Printf.sprintf "entry %04d" i)))
         with
        | Ok () -> ()
        | Error e -> Alcotest.failf "write: %s" e);
        Lfs.Fs.sync fs;
        (* Power dies mid-burn: the heat's ewb stream is interrupted. *)
        let inj =
          Fault.Injector.create (Fault.Plan.make ~power_cut_after_ewb:900 ())
        in
        Sero.Device.install_fault dev inj;
        (match Lfs.Fs.heat fs "/ledger" with
        | exception Fault.Injector.Power_cut -> ()
        | Ok _ -> Alcotest.fail "expected a power cut during heat"
        | Error e -> Alcotest.failf "heat: %s" e);
        Sero.Device.clear_fault dev;
        (* Reboot: recover replays the checkpoint, completes torn burns
           and re-runs fsck before handing the FS back. *)
        match Lfs.Fs.recover dev with
        | Error e -> Alcotest.failf "recover: %s" e
        | Ok r ->
            Alcotest.(check bool)
              "a torn line was completed" true
              (r.Lfs.Fs.torn_completed <> []);
            List.iter
              (fun line ->
                Alcotest.check verdict "completed line intact"
                  Sero.Tamper.Intact
                  (Sero.Device.verify_line dev ~line))
              r.Lfs.Fs.torn_completed;
            match Lfs.Fs.read_file r.Lfs.Fs.fs "/ledger" with
            | Ok data ->
                Alcotest.(check bool)
                  "file data survives the crash" true
                  (String.length data > 0)
            | Error e -> Alcotest.failf "read after recover: %s" e);
    Alcotest.test_case "no stale cache survives a crash and recover" `Quick
      (fun () ->
        let dev = make_dev ~n_blocks:256 ~ras:true () in
        let q = Sero.Queue.create (Sim.Des.create ()) dev in
        let bc = Sero.Bcache.create ~capacity:64 ~read_ahead:8 q in
        let fs = Lfs.Fs.format dev in
        Lfs.Fs.attach_queue fs q;
        Lfs.Fs.attach_cache fs bc;
        let durable =
          String.concat "\n"
            (List.init 60 (fun i -> Printf.sprintf "entry %04d" i))
        in
        (match Lfs.Fs.create fs "/ledger" with
        | Ok () -> ()
        | Error e -> Alcotest.failf "create: %s" e);
        (match Lfs.Fs.write_file fs "/ledger" ~offset:0 durable with
        | Ok () -> ()
        | Error e -> Alcotest.failf "write: %s" e);
        Lfs.Fs.sync fs;
        (* Prime the block cache, then stage an update that only lives
           in the volatile caches (inode + buffered blocks). *)
        (match Lfs.Fs.read_file fs "/ledger" with
        | Ok d -> Alcotest.(check string) "primed read" durable d
        | Error e -> Alcotest.failf "read: %s" e);
        (match Lfs.Fs.append fs "/ledger" "\nVOLATILE TAIL" with
        | Ok () -> ()
        | Error e -> Alcotest.failf "append: %s" e);
        (* Power dies while the next sync is mid-flight: some blocks
           land, the checkpoint does not. *)
        let inj =
          Fault.Injector.create (Fault.Plan.make ~power_cut_after_ops:10 ())
        in
        Sero.Device.install_fault dev inj;
        (match Lfs.Fs.sync fs with
        | exception Fault.Injector.Power_cut -> ()
        | () -> Alcotest.fail "expected the power cut to interrupt the sync");
        Sero.Device.clear_fault dev;
        (* Reboot: fs, queue and cache above are dead with the power.
           Recovery sees only the medium. *)
        match Lfs.Fs.recover dev with
        | Error e -> Alcotest.failf "recover: %s" e
        | Ok r ->
            let read_via fs =
              match Lfs.Fs.read_file fs "/ledger" with
              | Ok d -> d
              | Error e -> Alcotest.failf "read after recover: %s" e
            in
            let direct = read_via r.Lfs.Fs.fs in
            Alcotest.(check string)
              "recovered content is the durable state, not the cached tail"
              durable direct;
            (* A fresh cache over the recovered FS must agree with the
               uncached view — twice, so the second read is a pure
               cache hit. *)
            let q2 = Sero.Queue.create (Sim.Des.create ()) dev in
            let bc2 = Sero.Bcache.create ~capacity:64 ~read_ahead:8 q2 in
            Lfs.Fs.attach_queue r.Lfs.Fs.fs q2;
            Lfs.Fs.attach_cache r.Lfs.Fs.fs bc2;
            Alcotest.(check string)
              "cached read agrees" durable
              (read_via r.Lfs.Fs.fs);
            Alcotest.(check string)
              "cache-hit read agrees" durable
              (read_via r.Lfs.Fs.fs);
            (* And so must an independent uncached mount. *)
            (match Lfs.Fs.mount dev with
            | Error e -> Alcotest.failf "second mount: %s" e
            | Ok m2 ->
                Alcotest.(check string)
                  "independent mount agrees" durable (read_via m2));
            Sero.Bcache.sync bc2;
            Sero.Queue.drain q2);
  ]

let () =
  Alcotest.run "fault"
    [
      ("plan & determinism", plan_cases);
      ("torn burns", torn_cases);
      ("tip sparing & retry", ras_cases);
      ("scrub", scrub_cases);
      ("verdict invariance", [ qtest verdict_invariance ]);
      ("lfs recovery", lfs_cases);
    ]
