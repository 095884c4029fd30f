type attack =
  | Mwb_hash
  | Mwb_data
  | Ewb_hash
  | Ewb_data
  | Splice
  | Rm_via_fs
  | Rm_raw_directory
  | Ln_via_fs
  | Copy_mask
  | Clear_directory
  | Bulk_erase
  | Overwrite_unheated

let all =
  [
    Mwb_hash; Mwb_data; Ewb_hash; Ewb_data; Splice; Rm_via_fs;
    Rm_raw_directory; Ln_via_fs; Copy_mask; Clear_directory; Bulk_erase;
    Overwrite_unheated;
  ]

let label = function
  | Mwb_hash -> "mwb hash"
  | Mwb_data -> "mwb inode/data"
  | Ewb_hash -> "ewb hash"
  | Ewb_data -> "ewb inode/data"
  | Splice -> "split/coalesce forgery"
  | Rm_via_fs -> "rm (file system)"
  | Rm_raw_directory -> "rm (raw directory edit)"
  | Ln_via_fs -> "ln (file system)"
  | Copy_mask -> "copy-and-mask"
  | Clear_directory -> "clear directory structure"
  | Bulk_erase -> "bulk eraser"
  | Overwrite_unheated -> "overwrite unheated file (control)"

let paper_ref = function
  | Mwb_hash -> "§5.1 bullet 1: magnetising a heated bit has no effect"
  | Mwb_data -> "§5.1 bullet 2: detected by the verify operation"
  | Ewb_hash -> "§5.1 bullet 3: UH/HU -> HH is an illegal code"
  | Ewb_data -> "§5.1 bullet 4: appears as a read error"
  | Splice -> "§5.1 bullet 4: prevented by hashes at known addresses"
  | Rm_via_fs -> "§5.2: rm implies writing the inode, tamper-evident"
  | Rm_raw_directory -> "§5.2: fsck scan recovers all heated files"
  | Ln_via_fs -> "§5.2: ln would increase the reference count"
  | Copy_mask -> "§5.2: addresses in the hash distinguish copies"
  | Clear_directory -> "§5.2: scan of the medium recovers heated files"
  | Bulk_erase -> "§5.2: electrically written information survives"
  | Overwrite_unheated -> "§5.1: unheated files are trivial to attack"

type outcome =
  | Refused of string
  | Ineffective of string
  | Detected of string
  | Undetected of string

let pp_outcome ppf = function
  | Refused s -> Format.fprintf ppf "refused (%s)" s
  | Ineffective s -> Format.fprintf ppf "ineffective (%s)" s
  | Detected s -> Format.fprintf ppf "DETECTED (%s)" s
  | Undetected s -> Format.fprintf ppf "UNDETECTED (%s)" s

let expected = function
  | Mwb_hash -> `Ineffective
  | Mwb_data | Ewb_hash | Ewb_data | Splice | Copy_mask | Clear_directory
  | Bulk_erase | Rm_raw_directory ->
      `Detected
  | Rm_via_fs | Ln_via_fs -> `Refused
  | Overwrite_unheated -> `Undetected

(* {1 The environment} *)

type env = {
  dev : Sero.Device.t;
  fs : Lfs.Fs.t;
  target : string;
  target_ino : int;
  target_content : string;
  target_lines : int list;
  decoy : string;
}

let fail fmt = Format.kasprintf failwith fmt
let ok_exn what = function Ok v -> v | Error e -> fail "%s: %s" what e

let make_env ?(seed = 42) ?(strict = true) () =
  let config = Sero.Device.default_config ~n_blocks:1024 ~line_exp:3 () in
  let dev =
    Sero.Device.create { config with Sero.Device.seed; strict_hash_locations = strict }
  in
  let fs = Lfs.Fs.format dev in
  ok_exn "mkdir" (Lfs.Fs.mkdir fs "/records");
  let target = "/records/ledger-2007" in
  ok_exn "create" (Lfs.Fs.create fs ~heat_group:1 target);
  let content =
    String.concat "\n"
      (List.init 160 (fun i ->
           Printf.sprintf "txn %05d: amount %d, counterparty %d" i
             ((i * 7919) mod 10000) ((i * 104729) mod 997)))
  in
  ok_exn "write" (Lfs.Fs.write_file fs target ~offset:0 content);
  let decoy = "/records/workpad" in
  ok_exn "create decoy" (Lfs.Fs.create fs decoy);
  ok_exn "write decoy" (Lfs.Fs.write_file fs decoy ~offset:0 (String.make 2048 'w'));
  let _ = ok_exn "heat" (Lfs.Fs.heat fs target) in
  Lfs.Fs.sync fs;
  let st = Lfs.Fs.state fs in
  let target_ino =
    match Lfs.Dirops.lookup st target with
    | Some (ino, _) -> ino
    | None -> fail "target vanished"
  in
  {
    dev;
    fs;
    target;
    target_ino;
    target_content = content;
    target_lines = Lfs.Heat.file_lines st ~ino:target_ino;
    decoy;
  }

(* The auditor: verify every line of the target; if any shows evidence,
   the attack is detected.  If all are intact, check whether the record
   is still the original. *)
let audit env ~landed =
  let verdicts =
    List.map (fun line -> Sero.Device.verify_line env.dev ~line) env.target_lines
  in
  let evidence =
    List.filter_map
      (function
        | Sero.Tamper.Tampered evs -> Some evs
        | Sero.Tamper.Intact | Sero.Tamper.Not_heated -> None)
      verdicts
  in
  if evidence <> [] then
    Detected
      (Format.asprintf "verify: %a" Sero.Tamper.pp_verdict
         (Sero.Tamper.Tampered (List.concat evidence)))
  else begin
    match Lfs.Fs.read_file env.fs env.target with
    | Ok content when String.equal content env.target_content ->
        Ineffective (if landed then "data unchanged, no evidence" else "no change")
    | Ok _ -> Undetected "content altered yet every line verifies intact"
    | Error _ -> Undetected "record unreadable yet no line shows evidence"
  end

let first_heated_line env = List.hd env.target_lines

let a_data_pba env =
  (* A data block of the target's middle heated line. *)
  let lay = Sero.Device.layout env.dev in
  let line = List.nth env.target_lines (List.length env.target_lines / 2) in
  List.nth (Sero.Layout.data_blocks_of_line lay line) 2

let run_mwb_hash env =
  let lay = Sero.Device.layout env.dev in
  let pba = Sero.Layout.hash_block_of_line lay (first_heated_line env) in
  Sero.Device.unsafe_write_block env.dev ~pba (String.make 512 '\xFF');
  audit env ~landed:true

let run_mwb_data env =
  Sero.Device.unsafe_write_block env.dev ~pba:(a_data_pba env)
    "txn 00002: amount 0, counterparty 0 (rewritten history)";
  audit env ~landed:true

let run_ewb_hash env =
  let lay = Sero.Device.layout env.dev in
  let dot = Sero.Layout.wo_first_dot lay ~line:(first_heated_line env) in
  Sero.Device.unsafe_heat_dots env.dev ~dot ~n:64;
  audit env ~landed:true

let run_ewb_data env =
  let lay = Sero.Device.layout env.dev in
  let dot = Sero.Layout.block_first_dot lay (a_data_pba env) in
  Sero.Device.unsafe_heat_dots env.dev ~dot ~n:512;
  audit env ~landed:true

let run_splice_on env =
  (* Burn a forged hash into data block dp of a heated line, covering
     the tail dp+1.. of that line, then present the tail as a genuine
     protected region starting at dp. *)
  let lay = Sero.Device.layout env.dev in
  let line = List.nth env.target_lines (List.length env.target_lines / 2) in
  let blocks = Sero.Layout.data_blocks_of_line lay line in
  let dp = List.nth blocks 1 in
  let tail = List.filter (fun pba -> pba > dp) blocks in
  Sero.Device.unsafe_forge_burn env.dev ~hash_pba:dp ~data_pbas:tail
    ~claim_line:line;
  match Sero.Device.verify_region env.dev ~hash_pba:dp ~data_pbas:tail with
  | Sero.Tamper.Intact ->
      Undetected "forged sub-file verifies as genuine"
  | Sero.Tamper.Tampered _ ->
      Detected "forged hash rejected: not at a known physical address"
  | Sero.Tamper.Not_heated -> Detected "forged burn not even readable"

let run_rm_via_fs env =
  match Lfs.Fs.unlink env.fs env.target with
  | Error e -> Refused e
  | Ok () -> audit env ~landed:true

let run_ln_via_fs env =
  match Lfs.Fs.link env.fs env.target "/records/alias" with
  | Error e -> Refused e
  | Ok () -> audit env ~landed:true

let scrub_directory env paths =
  (* Overwrite the directory files' data blocks with garbage frames on
     the raw device (the directories are not heated). *)
  let st = Lfs.Fs.state env.fs in
  List.iter
    (fun path ->
      match Lfs.Dirops.lookup st path with
      | Some (ino, Lfs.Enc.Directory) ->
          let ptrs = Lfs.File.pointers st ino in
          Array.iter
            (fun pba ->
              if pba <> 0 then
                Sero.Device.unsafe_write_block env.dev ~pba
                  (String.make 512 '\x00'))
            ptrs
      | Some _ | None -> ())
    paths

(* After an offline attack the auditor remounts and, failing that or
   failing to find the record, falls back to the forensic scan. *)
let audit_availability env =
  let recovered () =
    let report = Lfs.Fsck.run env.dev in
    let found =
      List.find_opt
        (fun r -> r.Lfs.Fsck.r_ino = env.target_ino && r.Lfs.Fsck.r_complete)
        report.Lfs.Fsck.recovered_files
    in
    match found with
    | Some r ->
        let expected_digest = Hash.Sha256.digest_string env.target_content in
        if
          match r.Lfs.Fsck.r_content_sha256 with
          | Some d -> Hash.Sha256.equal d expected_digest
          | None -> false
        then
          Detected
            "record hidden, but the medium scan recovered it bit-exact"
        else Detected "record hidden; scan recovered a damaged copy (evidence)"
    | None ->
        if report.Lfs.Fsck.heated_tampered <> [] then
          Detected "record destroyed, but heated lines show tamper evidence"
        else Undetected "record gone without trace"
  in
  match Lfs.Fs.mount env.dev with
  | Error _ -> recovered ()
  | Ok fs2 -> (
      match Lfs.Fs.read_file fs2 env.target with
      | Ok content when String.equal content env.target_content ->
          Ineffective "record still reachable and intact"
      | Ok _ | Error _ -> recovered ())

let run_rm_raw_directory env =
  Lfs.Fs.sync env.fs;
  scrub_directory env [ "/records" ];
  audit_availability env

let run_clear_directory env =
  Lfs.Fs.sync env.fs;
  scrub_directory env [ "/"; "/records" ];
  (* Also smash the checkpoints so no mount is possible at all. *)
  let st = Lfs.Fs.state env.fs in
  let lay = Sero.Device.layout env.dev in
  let cp_lines = 2 * st.Lfs.State.policy.Lfs.State.segment_lines in
  for line = 0 to cp_lines - 1 do
    List.iter
      (fun pba ->
        Sero.Device.unsafe_write_block env.dev ~pba (String.make 512 '\x00'))
      (Sero.Layout.data_blocks_of_line lay line)
  done;
  audit_availability env

let run_copy_mask env =
  (* Copy the target's raw frames into free lines and check whether the
     copy could pass as the original. *)
  let lay = Sero.Device.layout env.dev in
  let st = Lfs.Fs.state env.fs in
  let src = Lfs.Heat.file_lines st ~ino:env.target_ino in
  let n_lines = Sero.Layout.n_lines lay in
  let dst_first = n_lines - List.length src - 1 in
  let copied_ok = ref 0 and distinguishable = ref 0 in
  List.iteri
    (fun i line ->
      let dst_line = dst_first + i in
      List.iter2
        (fun src_pba dst_pba ->
          let image = Sero.Device.unsafe_read_raw env.dev ~pba:src_pba in
          Sero.Device.unsafe_write_raw env.dev ~pba:dst_pba image;
          match Sero.Device.read_block env.dev ~pba:dst_pba with
          | Ok _ -> incr copied_ok
          | Error (Sero.Device.Wrong_location _) -> incr distinguishable
          | Error _ -> incr distinguishable)
        (Sero.Layout.data_blocks_of_line lay line)
        (Sero.Layout.data_blocks_of_line lay dst_line))
    src;
  if !copied_ok = 0 then
    Detected
      (Printf.sprintf
         "all %d copied blocks carry their original address (distinguishable)"
         !distinguishable)
  else Undetected "some copied blocks pass as originals"

let run_bulk_erase env =
  Lfs.Fs.sync env.fs;
  Sero.Device.unsafe_magnetic_wipe env.dev;
  let report = Lfs.Fsck.run env.dev in
  if report.Lfs.Fsck.heated_tampered <> [] then
    Detected
      (Printf.sprintf
         "magnetic data gone, but %d burned lines survive as evidence"
         (List.length report.Lfs.Fsck.heated_tampered))
  else if report.Lfs.Fsck.heated_intact > 0 then
    Detected "burned hashes survive the eraser"
  else Undetected "no trace left"

let run_overwrite_unheated env =
  match Lfs.Fs.write_file env.fs env.decoy ~offset:0 (String.make 2048 'X') with
  | Error e -> Refused e
  | Ok () -> (
      match Lfs.Fs.read_file env.fs env.decoy with
      | Ok c when String.for_all (fun ch -> ch = 'X') c ->
          Undetected "unheated file rewritten without trace"
      | Ok _ | Error _ -> Ineffective "overwrite did not land")

let run_splice ~strict () =
  let env = make_env ~strict () in
  run_splice_on env

let run ?seed attack =
  let env = make_env ?seed () in
  match attack with
  | Mwb_hash -> run_mwb_hash env
  | Mwb_data -> run_mwb_data env
  | Ewb_hash -> run_ewb_hash env
  | Ewb_data -> run_ewb_data env
  | Splice -> run_splice_on env
  | Rm_via_fs -> run_rm_via_fs env
  | Rm_raw_directory -> run_rm_raw_directory env
  | Ln_via_fs -> run_ln_via_fs env
  | Copy_mask -> run_copy_mask env
  | Clear_directory -> run_clear_directory env
  | Bulk_erase -> run_bulk_erase env
  | Overwrite_unheated -> run_overwrite_unheated env

let matrix ?seed () = List.map (fun a -> (a, run ?seed a)) all

let matrix_matches_paper results =
  List.for_all
    (fun (a, outcome) ->
      match (expected a, outcome) with
      | `Refused, Refused _
      | `Ineffective, Ineffective _
      | `Detected, Detected _
      | `Undetected, Undetected _ ->
          true
      | _ -> false)
    results
