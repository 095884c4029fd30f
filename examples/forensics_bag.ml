(* Live forensics (Section 8): instead of imaging a whole server disk,
   an investigator heats the files that constitute evidence — a digital
   evidence bag in place.  Later, even after an insider has scrubbed
   the namespace and degaussed the medium, the raw scan recovers the
   heated evidence or shows that it was attacked.

   Run with: dune exec examples/forensics_bag.exe *)

let ok = function Ok v -> v | Error e -> failwith e

let () =
  let dev =
    Sero.Device.create (Sero.Device.default_config ~n_blocks:2048 ~line_exp:3 ())
  in
  let fs = Lfs.Fs.format dev in
  ok (Lfs.Fs.mkdir fs "/home");
  ok (Lfs.Fs.mkdir fs "/home/suspect");
  let evidence =
    [
      ("/home/suspect/mail-archive", "From: suspect\nTo: accomplice\nwipe the Q3 numbers\n");
      ("/home/suspect/shell-history", "scp books.xls darksite:\nshred -u books.xls\n");
    ]
  in
  let noise = "/home/suspect/holiday-photos" in
  List.iter
    (fun (path, body) ->
      ok (Lfs.Fs.create fs ~heat_group:9 path);
      ok (Lfs.Fs.write_file fs path ~offset:0 body))
    evidence;
  ok (Lfs.Fs.create fs noise);
  ok (Lfs.Fs.write_file fs noise ~offset:0 (String.make 4096 'p'));

  (* The investigator bags the evidence: no copying, just heating. *)
  print_endline "bagging evidence (heating files in place):";
  let digests =
    List.map
      (fun (path, body) ->
        let r = ok (Lfs.Fs.heat fs path) in
        Printf.printf "  %-28s -> %d heated line(s)\n" path
          (List.length r.Lfs.Heat.lines);
        (path, Hash.Sha256.digest_string body))
      evidence
  in
  Lfs.Fs.sync fs;

  (* The suspect (with root) counter-attacks: scrub the directories,
     then degauss the drive. *)
  print_endline "suspect scrubs the namespace and bulk-erases the medium...";
  let st = Lfs.Fs.state fs in
  List.iter
    (fun path ->
      match Lfs.Dirops.lookup st path with
      | Some (ino, Lfs.Enc.Directory) ->
          Array.iter
            (fun pba ->
              if pba <> 0 then
                Sero.Device.unsafe_write_block dev ~pba (String.make 512 '\x00'))
            (Lfs.File.pointers st ino)
      | Some _ | None -> ())
    [ "/"; "/home"; "/home/suspect" ];

  (* First recovery attempt: namespace is gone, scan finds the bag. *)
  let report = Lfs.Fsck.run dev in
  Printf.printf "scan after scrub: %d heated lines intact, %d files recovered\n"
    report.Lfs.Fsck.heated_intact
    (List.length report.Lfs.Fsck.recovered_files);
  List.iter
    (fun f ->
      let authentic =
        List.exists
          (fun (_, d) ->
            match f.Lfs.Fsck.r_content_sha256 with
            | Some d' -> Hash.Sha256.equal d d'
            | None -> false)
          digests
      in
      Printf.printf "  recovered ino %d (%d bytes): authentic evidence: %b\n"
        f.Lfs.Fsck.r_ino f.Lfs.Fsck.r_size authentic)
    report.Lfs.Fsck.recovered_files;

  (* Desperate measure: the bulk eraser.  The magnetic data dies, but
     every burned line testifies that evidence existed and was hit. *)
  Sero.Device.unsafe_magnetic_wipe dev;
  let report = Lfs.Fsck.run dev in
  Printf.printf
    "scan after bulk erase: %d heated lines, all tampered: %b\n"
    (report.Lfs.Fsck.heated_intact + List.length report.Lfs.Fsck.heated_tampered)
    (report.Lfs.Fsck.heated_intact = 0
    && report.Lfs.Fsck.heated_tampered <> [])
