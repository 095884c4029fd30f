(* Quickstart: the whole SERO story in one page.

   Create a simulated device, put a file system on it, write a record,
   heat it (making it tamper-evident), watch the file system refuse
   modifications, tamper at the raw-device level anyway, and catch the
   tampering with verify.

   Run with: dune exec examples/quickstart.exe *)

let ok = function Ok v -> v | Error e -> failwith e

let () =
  (* A small device: 512 sectors of 512 bytes, heat lines of 8 blocks. *)
  let dev =
    Sero.Device.create (Sero.Device.default_config ~n_blocks:512 ~line_exp:3 ())
  in
  let fs = Lfs.Fs.format dev in

  (* Ordinary WMRM use: write, overwrite, read. *)
  ok (Lfs.Fs.create fs "/audit-log");
  ok (Lfs.Fs.write_file fs "/audit-log" ~offset:0 "2007-12-01 paid supplier A 1000\n");
  ok (Lfs.Fs.append fs "/audit-log" "2007-12-02 paid supplier B 2500\n");
  Printf.printf "log contents:\n%s" (ok (Lfs.Fs.read_file fs "/audit-log"));

  (* Year end: freeze the log.  The file system clusters the file into
     whole heat lines and burns a SHA-256 hash per line. *)
  let r = ok (Lfs.Fs.heat fs "/audit-log") in
  Printf.printf "heated %d line(s)\n" (List.length r.Lfs.Heat.lines);

  (* The honest API now refuses every modification... *)
  (match Lfs.Fs.write_file fs "/audit-log" ~offset:11 "99" with
  | Error e -> Printf.printf "write refused: %s\n" e
  | Ok () -> assert false);
  (match Lfs.Fs.unlink fs "/audit-log" with
  | Error e -> Printf.printf "rm refused:    %s\n" e
  | Ok () -> assert false);

  (* ...but a root-level attacker drives the device directly. *)
  let line = List.hd r.Lfs.Heat.lines in
  let victim =
    List.hd (Sero.Layout.data_blocks_of_line (Sero.Device.layout dev) line)
  in
  Sero.Device.unsafe_write_block dev ~pba:victim
    "2007-12-01 paid supplier A   10\n";

  (* The burned hash cannot lie. *)
  List.iter
    (fun (l, v) ->
      Format.printf "verify line %d: %a@." l Sero.Tamper.pp_verdict v)
    (ok (Lfs.Fs.verify fs "/audit-log"));

  (* Even a bulk eraser cannot remove the evidence: heated dots have no
     magnetisation left to erase. *)
  Sero.Device.unsafe_magnetic_wipe dev;
  let report = Lfs.Fsck.run dev in
  Format.printf
    "after bulk erase, the medium scan still shows %d tampered heated line(s)@."
    (List.length report.Lfs.Fsck.heated_tampered)
