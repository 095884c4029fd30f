(* Venti-style content-addressed archival store. *)

let qtest = QCheck_alcotest.to_alcotest
let ok what = function Ok v -> v | Error e -> Alcotest.failf "%s: %s" what e

let make ?(n_blocks = 2048) ?(eager_heat = true) () =
  Venti.create ~eager_heat
    (Sero.Device.create (Sero.Device.default_config ~n_blocks ~line_exp:3 ()))

let basic_cases =
  [
    Alcotest.test_case "put/get roundtrip" `Quick (fun () ->
        let v = make () in
        let score = ok "put" (Venti.put v "archived content") in
        Alcotest.(check string) "get" "archived content" (ok "get" (Venti.get v score)));
    Alcotest.test_case "identical content dedupes" `Quick (fun () ->
        let v = make () in
        let s1 = ok "p1" (Venti.put v "same") in
        let s2 = ok "p2" (Venti.put v "same") in
        Alcotest.(check bool) "same score" true (Hash.Sha256.equal s1 s2);
        Alcotest.(check int) "one block" 1 (Venti.stats v).Venti.blocks_stored;
        Alcotest.(check int) "one dedup hit" 1 (Venti.stats v).Venti.dedup_hits);
    Alcotest.test_case "unknown score is an error" `Quick (fun () ->
        let v = make () in
        match Venti.get v (Hash.Sha256.digest_string "never stored") with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "got phantom block");
    Alcotest.test_case "oversized block refused" `Quick (fun () ->
        let v = make () in
        match Venti.put v (String.make 600 'x') with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "oversize accepted");
    Alcotest.test_case "a full arena is an error, not an exception" `Quick
      (fun () ->
        let v = make ~n_blocks:16 () in
        let rec fill i =
          match Venti.put v (Printf.sprintf "block %d" i) with
          | Ok _ -> fill (i + 1)
          | Error _ -> i
        in
        Alcotest.(check int) "two lines of 7 data blocks" 14 (fill 0);
        match Venti.put_stream v (String.make 2000 'x') with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "stream stored into a full arena");
    Alcotest.test_case "a failed heat is an error, not an exception" `Quick
      (fun () ->
        (* Every ewb pulse underpowered: no burn can verify. *)
        let weak v =
          Sero.Device.install_fault (Venti.device v)
            (Fault.Injector.create (Fault.Plan.make ~seed:1 ~weak_ewb_p:1.0 ()))
        in
        let v = make ~n_blocks:64 () in
        weak v;
        let rec fill i =
          if i > 7 then Alcotest.fail "a line filled without a heat"
          else
            match Venti.put v (Printf.sprintf "block %d" i) with
            | Ok _ -> fill (i + 1)
            | Error e -> (i, e)
        in
        let i, e = fill 0 in
        Alcotest.(check int) "the put after a full line" 7 i;
        Alcotest.(check string) "error" "venti: heat of line 0 failed: burn verification failed" e;
        let lazy_v = make ~n_blocks:64 ~eager_heat:false () in
        weak lazy_v;
        match Venti.snapshot lazy_v ~label:"s" [ ("f", "data") ] with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "snapshot root left unheated");
    Alcotest.test_case "mem reflects storage" `Quick (fun () ->
        let v = make () in
        let s = ok "put" (Venti.put v "x") in
        Alcotest.(check bool) "mem" true (Venti.mem v s);
        Alcotest.(check bool) "not mem" false
          (Venti.mem v (Hash.Sha256.digest_string "y")));
  ]

let stream_roundtrip =
  QCheck.Test.make ~name:"put_stream/get_stream roundtrip at any size" ~count:30
    QCheck.(string_of_size Gen.(0 -- 20000))
    (fun data ->
      let v = make ~n_blocks:4096 () in
      let root = Result.get_ok (Venti.put_stream v data) in
      match Venti.get_stream v root with
      | Ok got -> String.equal got data
      | Error _ -> false)

let stream_dedup =
  QCheck.Test.make ~name:"re-archiving a stream stores nothing new" ~count:20
    QCheck.(string_of_size Gen.(100 -- 5000))
    (fun data ->
      let v = make ~n_blocks:4096 () in
      let r1 = Result.get_ok (Venti.put_stream v data) in
      let blocks1 = (Venti.stats v).Venti.blocks_stored in
      let r2 = Result.get_ok (Venti.put_stream v data) in
      Hash.Sha256.equal r1 r2 && (Venti.stats v).Venti.blocks_stored = blocks1)

let snapshot_cases =
  [
    Alcotest.test_case "snapshot / restore / verify" `Quick (fun () ->
        let v = make () in
        let files =
          [ ("a.txt", String.make 900 'a'); ("b.txt", "short"); ("c.txt", "") ]
        in
        let snap = ok "snap" (Venti.snapshot v ~label:"t" files) in
        let restored = ok "restore" (Venti.restore v snap) in
        Alcotest.(check int) "count" 3 (List.length restored);
        List.iter2
          (fun (n1, d1) (n2, d2) ->
            Alcotest.(check string) "name" n1 n2;
            Alcotest.(check string) "data" d1 d2)
          files restored;
        ok "verify" (Venti.verify_snapshot v snap));
    Alcotest.test_case "root line is heated even under lazy heating" `Quick
      (fun () ->
        let v = make ~eager_heat:false () in
        let snap = ok "snap" (Venti.snapshot v ~label:"t" [ ("f", "data") ]) in
        ignore snap;
        Alcotest.(check bool) "at least one line heated" true
          ((Venti.stats v).Venti.lines_heated >= 1));
    Alcotest.test_case "tampering any stored block breaks verification" `Quick
      (fun () ->
        let v = make () in
        let snap =
          ok "snap" (Venti.snapshot v ~label:"t" [ ("f", String.make 3000 'q') ])
        in
        let dev = Venti.device v in
        let lay = Sero.Device.layout dev in
        Sero.Device.unsafe_write_block dev
          ~pba:(List.nth (Sero.Layout.data_blocks_of_line lay 0) 2)
          "overwritten";
        (match Venti.verify_snapshot v snap with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "tamper missed");
        match Venti.restore v snap with
        | Error _ -> ()
        | Ok files ->
            (* If restore succeeded the content must still be wrong-free;
               with a tampered leaf the score check must have failed. *)
            Alcotest.(check bool) "content mismatch surfaced" true
              (List.for_all (fun (_, d) -> String.equal d (String.make 3000 'q')) files));
    Alcotest.test_case "eager heating burns every filled line" `Quick
      (fun () ->
        let v = make ~eager_heat:true () in
        (* Distinct chunk contents, or dedup collapses the stream to a
           single stored leaf. *)
        let body = String.init 8000 (fun i -> Char.chr (32 + (i mod 90))) in
        ignore (ok "snap" (Venti.snapshot v ~label:"t" [ ("f", body) ]));
        let s = Venti.stats v in
        Alcotest.(check bool) "several lines" true (s.Venti.lines_heated >= 2));
  ]

let reindex_cases =
  [
    Alcotest.test_case "reindex rebuilds the score index from the medium"
      `Quick (fun () ->
        let v = make () in
        let files =
          List.init 4 (fun i ->
              ( Printf.sprintf "f%d" i,
                String.init (700 + (i * 321)) (fun j -> Char.chr (32 + ((i + j) mod 90))) ))
        in
        let snap = ok "snap" (Venti.snapshot v ~label:"t" files) in
        let v2 =
          match Venti.reindex (Venti.device v) with
          | Ok v2 -> v2
          | Error e -> Alcotest.failf "reindex: %s" e
        in
        let restored = ok "restore" (Venti.restore v2 snap) in
        List.iter2
          (fun (n1, d1) (n2, d2) ->
            Alcotest.(check string) "name" n1 n2;
            Alcotest.(check bool) "data" true (String.equal d1 d2))
          files restored;
        Alcotest.(check int) "same block count"
          (Venti.stats v).Venti.blocks_stored (Venti.stats v2).Venti.blocks_stored;
        (* New puts continue from where the arena left off (dedup works
           against re-derived scores). *)
        let s1 = ok "put old" (Venti.put v2 "fresh block after reindex") in
        let s2 = ok "dedup" (Venti.put v2 "fresh block after reindex") in
        Alcotest.(check bool) "dedup after reindex" true (Hash.Sha256.equal s1 s2));
  ]

let () =
  Alcotest.run "venti"
    [
      ("blocks", basic_cases);
      ("streams", List.map qtest [ stream_roundtrip; stream_dedup ]);
      ("snapshots", snapshot_cases);
      ("reindex", reindex_cases);
    ]
