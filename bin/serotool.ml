(* serotool — drive a simulated SERO device image from the shell.

   A device lives in an image file; every subcommand loads it, performs
   one operation through the same stack the experiments use, and saves
   it back, so shell sessions compose like operations on real media:

     serotool mkdev disk.img --blocks 2048
     serotool mkfs disk.img
     echo 'ledger 2007' | serotool write disk.img /ledger
     serotool heat disk.img /ledger
     serotool verify disk.img /ledger
     serotool attack disk.img mwb-data && serotool verify disk.img /ledger
     serotool fsck disk.img *)

let std = Format.std_formatter
let err fmt = Format.kasprintf (fun s -> `Error (false, s)) fmt

let with_device image f =
  match Sero.Image.load image with
  | Error e -> err "cannot load %s: %s" image e
  | Ok dev -> (
      match f dev with
      | Ok save ->
          if save then Sero.Image.save dev image;
          `Ok ()
      | Error e -> `Error (false, e))

let with_fs image f =
  with_device image (fun dev ->
      match Lfs.Fs.mount dev with
      | Error e -> Error (Printf.sprintf "mount failed: %s" e)
      | Ok fs -> (
          match f dev fs with
          | Ok save ->
              if save then Lfs.Fs.sync fs;
              Ok save
          | Error _ as e -> e))

(* {1 Commands} *)

let mkdev image blocks line_exp ras endurance spares =
  let config =
    { (Sero.Device.default_config ~n_blocks:blocks ~line_exp ()) with
      Sero.Device.ras }
  in
  let config =
    match (endurance, spares) with
    | false, None -> config
    | on, sp ->
        let e =
          if on then Sero.Device.active_endurance
          else Sero.Device.default_endurance
        in
        let e =
          match sp with
          | None -> e
          | Some n -> { e with Sero.Device.spare_lines = n }
        in
        { config with Sero.Device.endurance = e }
  in
  match Sero.Device.validate_config config with
  | Error e -> err "%s" e
  | Ok config ->
      let dev = Sero.Device.create config in
      Sero.Image.save dev image;
      let e = (Sero.Device.config dev).Sero.Device.endurance in
      Format.fprintf std "created %s: %d blocks, lines of %d%s%s@." image blocks
        (1 lsl line_exp)
        (if ras then ", RAS on" else "")
        (if e.Sero.Device.health_enabled then
           Printf.sprintf ", endurance on (%d spares)" e.Sero.Device.spare_lines
         else if e.Sero.Device.spare_lines > 0 then
           Printf.sprintf ", %d spares reserved" e.Sero.Device.spare_lines
         else "");
      Format.pp_print_flush std ();
      `Ok ()

let mkfs image =
  with_device image (fun dev ->
      let _fs = Lfs.Fs.format dev in
      Format.fprintf std "formatted %s@." image;
      Ok true)

let ls image path =
  with_fs image (fun _ fs ->
      match Lfs.Fs.readdir fs path with
      | Error e -> Error e
      | Ok entries ->
          List.iter
            (fun (e : Lfs.Enc.dirent) ->
              Format.fprintf std "%-6s %s@."
                (Format.asprintf "%a" Lfs.Enc.pp_kind e.Lfs.Enc.entry_kind)
                e.Lfs.Enc.name)
            entries;
          Format.pp_print_flush std ();
          Ok false)

let mkdir image path =
  with_fs image (fun _ fs -> Result.map (fun () -> true) (Lfs.Fs.mkdir fs path))

let write image path group =
  with_fs image (fun _ fs ->
      let data = In_channel.input_all In_channel.stdin in
      let create_result =
        if Lfs.Fs.exists fs path then Ok ()
        else Lfs.Fs.create fs ~heat_group:group path
      in
      match create_result with
      | Error e -> Error e
      | Ok () ->
          Result.map (fun () -> true) (Lfs.Fs.write_file fs path ~offset:0 data))

let cat image path =
  with_fs image (fun _ fs ->
      match Lfs.Fs.read_file fs path with
      | Error e -> Error e
      | Ok data ->
          print_string data;
          Ok false)

let rm image path =
  with_fs image (fun _ fs -> Result.map (fun () -> true) (Lfs.Fs.unlink fs path))

let heat image path =
  with_fs image (fun _ fs ->
      match Lfs.Fs.heat fs path with
      | Error e -> Error e
      | Ok r ->
          Format.fprintf std "heated %d lines (%d blocks relocated)@."
            (List.length r.Lfs.Heat.lines)
            r.Lfs.Heat.relocated_blocks;
          Format.pp_print_flush std ();
          Ok true)

let verify image path =
  with_fs image (fun _ fs ->
      match Lfs.Fs.verify fs path with
      | Error e -> Error e
      | Ok verdicts ->
          List.iter
            (fun (line, v) ->
              Format.fprintf std "line %-6d %a@." line Sero.Tamper.pp_verdict v)
            verdicts;
          Format.pp_print_flush std ();
          let bad =
            List.filter (fun (_, v) -> Sero.Tamper.is_tampered v) verdicts
          in
          if bad = [] then Ok false
          else
            Error
              (Printf.sprintf "tamper evidence on %d of %d line(s)"
                 (List.length bad) (List.length verdicts)))

let fsck image =
  with_device image (fun dev ->
      let report = Lfs.Fsck.run dev in
      Format.fprintf std "%a" Lfs.Fsck.pp_report report;
      Format.pp_print_flush std ();
      Ok false)

(* ASCII map of the medium: one character per line (the heat unit). *)
let map_cmd image =
  with_device image (fun dev ->
      let lay = Sero.Device.layout dev in
      let n = Sero.Layout.n_lines lay in
      Format.fprintf std
        "%d lines (%d blocks each); #=heated, .=WMRM, 64 lines per row@." n
        (Sero.Layout.blocks_per_line lay);
      for row = 0 to (n - 1) / 64 do
        Format.fprintf std "%6d " (row * 64);
        for col = 0 to min 63 (n - 1 - (row * 64)) do
          let line = (row * 64) + col in
          Format.pp_print_char std
            (if Sero.Device.is_line_heated dev ~line then '#' else '.')
        done;
        Format.pp_print_newline std ()
      done;
      Format.pp_print_flush std ();
      Ok false)

(* {2 Host front-end commands} *)

let read_text_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Ok s
  | exception Sys_error e -> Error e

let load_command_trace path =
  match read_text_file path with
  | Error e -> Error (Printf.sprintf "trace: %s" e)
  | Ok text -> (
      match Host.Proto.parse_trace text with
      | frames -> Ok frames
      | exception Host.Proto.Proto_error e ->
          Error (Printf.sprintf "trace %s: %s" path e)
      | exception Codec.Binio.R.Truncated ->
          Error (Printf.sprintf "trace %s: truncated frame" path))

let serve_replay image trace_path expect depth rate burst =
  with_device image (fun dev ->
      match load_command_trace trace_path with
      | Error _ as e -> e
      | Ok frames -> (
          let des = Sim.Des.create () in
          let q = Sero.Queue.create des dev in
          let limits_of _ =
            { Host.Server.weight = 1.; max_depth = depth; rate; burst }
          in
          let server =
            Host.Server.create ~limits_of (Host.Server.Device q)
          in
          let rs = Host.Server.replay server frames in
          let out = Host.Server.format_replay rs in
          print_string out;
          flush stdout;
          match expect with
          | Some file -> (
              match read_text_file file with
              | Error e -> Error (Printf.sprintf "expect: %s" e)
              | Ok want ->
                  if String.equal out want then Ok true
                  else
                    let got = String.split_on_char '\n' out
                    and exp = String.split_on_char '\n' want in
                    let rec first_diff i = function
                      | g :: gs, e :: es when String.equal g e ->
                          first_diff (i + 1) (gs, es)
                      | g :: _, e :: _ ->
                          Printf.sprintf "line %d: got %S, expected %S" i g e
                      | g :: _, [] -> Printf.sprintf "line %d: extra %S" i g
                      | [], e :: _ -> Printf.sprintf "line %d: missing %S" i e
                      | [], [] -> "trailing difference"
                    in
                    Error
                      (Printf.sprintf "status mismatch vs %s (%s)" file
                         (first_diff 1 (got, exp))))
          | None ->
              let failed =
                List.length (List.filter Host.Proto.response_failed rs)
              in
              if failed = 0 then Ok true
              else
                Error
                  (Printf.sprintf "%d of %d commands failed a phase" failed
                     (List.length rs))))

let tenants_cmd image trace_path arbiter depth rate burst =
  with_device image (fun dev ->
      match load_command_trace trace_path with
      | Error _ as e -> e
      | Ok frames ->
          let des = Sim.Des.create () in
          let q = Sero.Queue.create des dev in
          let limits_of _ =
            {
              Host.Server.weight = 1.;
              max_depth = depth;
              rate;
              burst;
            }
          in
          let server =
            Host.Server.create ~limits_of (Host.Server.Device q)
          in
          Host.Server.set_policy server arbiter;
          (* Concurrent submission: every frame enters admission at t=0
             and the arbiter decides the service order. *)
          List.iter (Host.Server.submit_frame server) frames;
          Host.Server.drain server;
          Format.fprintf std "%d commands, %d tenants (arbiter %s)@."
            (List.length frames)
            (List.length (Host.Server.tenants server))
            (Host.Arbiter.policy_name arbiter);
          List.iter
            (fun tenant ->
              Format.fprintf std "tenant %-4d %a@." tenant Host.Slo.pp_report
                (Host.Server.report server ~tenant))
            (Host.Server.tenants server);
          Format.pp_print_flush std ();
          let failed =
            List.filter Host.Proto.response_failed
              (Host.Server.responses server)
          in
          if failed = [] then Ok false
          else
            Error
              (Printf.sprintf "%d of %d commands failed a phase"
                 (List.length failed)
                 (List.length frames)))

let replay image trace_path =
  with_fs image (fun _ fs ->
      match Workload.Trace.load trace_path with
      | Error e -> Error (Printf.sprintf "trace: %s" e)
      | Ok ops ->
          let outcome = Workload.Trace.replay fs ops in
          Format.fprintf std "replayed %d operations (%d refused)@."
            outcome.Workload.Trace.applied outcome.Workload.Trace.refused;
          Format.pp_print_flush std ();
          Ok true)

(* The endurance ledger: device state, spares, per-line margins and the
   grown-defect list. *)
let health image limit =
  with_device image (fun dev ->
      let lay = Sero.Device.layout dev in
      let e = (Sero.Device.config dev).Sero.Device.endurance in
      let s = Sero.Device.stats dev in
      Format.fprintf std
        "endurance: %s (lifecycle %s), %d/%d spares left, %d retirements, %d \
         re-attest failures@."
        (Format.asprintf "%a" Sero.Device.pp_device_state
           (Sero.Device.device_state dev))
        (if e.Sero.Device.health_enabled then "on" else "off")
        s.Sero.Device.spare_lines_left e.Sero.Device.spare_lines
        s.Sero.Device.line_retirements s.Sero.Device.reattest_failures;
      let usable = Sero.Layout.usable_lines lay in
      let rows =
        List.filteri (fun i _ -> i < limit)
          (List.sort
             (fun (_, a) (_, b) -> compare (a : float) b)
             (List.init usable (fun l -> (l, Sero.Device.line_margin dev ~line:l))))
      in
      Format.fprintf std "weakest usable lines (of %d):@." usable;
      List.iter
        (fun (l, m) ->
          let h = Sero.Health.line (Sero.Device.health dev) ~line:l in
          Format.fprintf std
            "  line %-5d phys %-5d margin %5.3f  reads %-6d retries %-4d \
             unreadable %-4d defects %-4d%s@."
            l
            (Sero.Device.phys_of_line dev ~line:l)
            m h.Sero.Health.reads h.Sero.Health.retries
            h.Sero.Health.unreadable h.Sero.Health.defect_dots
            (if Sero.Device.line_due dev ~line:l then "  DUE" else ""))
        rows;
      (match Sero.Device.migrations dev with
      | [] -> ()
      | ms ->
          Format.fprintf std "grown-defect list:@.";
          List.iter
            (fun m ->
              Format.fprintf std
                "  line %d: phys %d -> %d%s at t=%g@." m.Sero.Device.m_line
                m.Sero.Device.m_from m.Sero.Device.m_to
                (if m.Sero.Device.m_hash <> None then " (re-attested)" else "")
                m.Sero.Device.m_timestamp)
            ms);
      Format.pp_print_flush std ();
      Ok false)

(* Evacuate one line (or everything the policy says is due). *)
let migrate image line =
  with_device image (fun dev ->
      match line with
      | Some line -> (
          match Sero.Device.evacuate_line dev ~line () with
          | Ok m ->
              Format.fprintf std "line %d migrated: phys %d -> %d%s@."
                m.Sero.Device.m_line m.Sero.Device.m_from m.Sero.Device.m_to
                (if m.Sero.Device.m_hash <> None then " (re-attested)" else "");
              Format.pp_print_flush std ();
              Ok true
          | Error e ->
              Error
                (Format.asprintf "migrate line %d: %a" line
                   Sero.Device.pp_migrate_error e)
          | exception Invalid_argument e -> Error e)
      | None ->
          let ms = Sero.Device.maintenance dev () in
          if ms = [] then Format.fprintf std "no line is due for migration@."
          else
            List.iter
              (fun m ->
                Format.fprintf std "line %d migrated: phys %d -> %d%s@."
                  m.Sero.Device.m_line m.Sero.Device.m_from m.Sero.Device.m_to
                  (if m.Sero.Device.m_hash <> None then " (re-attested)" else ""))
              ms;
          Format.pp_print_flush std ();
          Ok (ms <> []))

let stats image =
  with_device image (fun dev ->
      Format.fprintf std "%a@." Sero.Device.pp_stats (Sero.Device.stats dev);
      Format.pp_print_flush std ();
      Ok false)

(* Replay a trace through the asynchronous request pipeline instead of
   the direct device path, then print what the queue measured. *)
let queue_stats image trace_path policy no_coalesce =
  with_fs image (fun dev fs ->
      match Workload.Trace.load trace_path with
      | Error e -> Error (Printf.sprintf "trace: %s" e)
      | Ok ops ->
          let des = Sim.Des.create () in
          let q =
            Sero.Queue.create ~policy ~coalesce:(not no_coalesce) des dev
          in
          Lfs.Fs.attach_queue fs q;
          let outcome = Workload.Trace.replay fs ops in
          Sero.Queue.drain q;
          Format.fprintf std
            "replayed %d operations (%d refused) through the pipeline@."
            outcome.Workload.Trace.applied outcome.Workload.Trace.refused;
          Format.fprintf std "%a" Sero.Queue.pp_summary q;
          let fg = Sero.Queue.Foreground in
          let n = Sero.Queue.completed q fg
          and t_end = Sero.Queue.last_completion q fg in
          if t_end > 0. then
            Format.fprintf std "  foreground throughput: %.0f requests/s@."
              (float_of_int n /. t_end);
          Format.pp_print_flush std ();
          Ok true)

(* Replay a trace through the buffer cache over the request pipeline and
   print what the cache absorbed vs what reached the sled. *)
let cache_stats image trace_path policy capacity read_ahead =
  with_fs image (fun dev fs ->
      match Workload.Trace.load trace_path with
      | Error e -> Error (Printf.sprintf "trace: %s" e)
      | Ok ops ->
          let des = Sim.Des.create () in
          let q = Sero.Queue.create ~policy des dev in
          let bc = Sero.Bcache.create ~capacity ~read_ahead q in
          Lfs.Fs.attach_cache fs bc;
          let outcome = Workload.Trace.replay fs ops in
          Sero.Bcache.sync bc;
          Format.fprintf std
            "replayed %d operations (%d refused) through the cache@."
            outcome.Workload.Trace.applied outcome.Workload.Trace.refused;
          Format.fprintf std "%a" Sero.Bcache.pp_stats bc;
          Format.fprintf std "%a" Sero.Queue.pp_summary q;
          Format.pp_print_flush std ();
          Ok true)

(* Deterministic fault injection against the image: persistent magnetic
   bit-flips, and optionally a torn burn (power cut mid-heat) on one
   line.  Heated dots are immune to flips, exactly as on the medium. *)
let inject image seed flips tear tear_cells =
  with_device image (fun dev ->
      let med = Probe.Pdevice.medium (Sero.Device.pdevice dev) in
      let rng = Sim.Prng.create seed in
      let n = Pmedia.Medium.size med in
      let flipped = ref 0 in
      let attempts = ref 0 in
      while !flipped < flips && !attempts < (flips * 100) + 100 do
        incr attempts;
        let dot = Sim.Prng.int rng n in
        match Pmedia.Medium.get med dot with
        | Pmedia.Dot.Magnetised d ->
            Pmedia.Medium.set med dot
              (Pmedia.Dot.Magnetised
                 (match d with
                 | Pmedia.Dot.Up -> Pmedia.Dot.Down
                 | Pmedia.Dot.Down -> Pmedia.Dot.Up));
            incr flipped
        | Pmedia.Dot.Heated -> ()
      done;
      let torn =
        match tear with
        | None -> Ok None
        | Some line
          when line < 0
               || line >= Sero.Layout.n_lines (Sero.Device.layout dev) ->
            Error
              (Printf.sprintf "--tear %d: the image has lines 0..%d" line
                 (Sero.Layout.n_lines (Sero.Device.layout dev) - 1))
        | Some line ->
            let inj =
              Fault.Injector.create
                (Fault.Plan.make ~power_cut_after_ewb:tear_cells ())
            in
            Sero.Device.install_fault dev inj;
            let r =
              match Sero.Device.heat_line dev ~line () with
              | exception Fault.Injector.Power_cut -> Ok (Some (line, inj))
              | Ok _ -> Ok (Some (line, inj))
              | Error e ->
                  Error (Format.asprintf "heat: %a" Sero.Device.pp_heat_error e)
            in
            Sero.Device.clear_fault dev;
            r
      in
      match torn with
      | Error e -> Error e
      | Ok torn ->
          Format.fprintf std "injected %d magnetic flips (seed %d)@." !flipped
            seed;
          (match torn with
          | None -> ()
          | Some (line, inj) ->
              Format.fprintf std
                "tore the burn of line %d after %d cells; ledger:@.%s" line
                tear_cells
                (Fault.Injector.ledger_to_string inj));
          Format.pp_print_flush std ();
          Ok true)

let scrub image threshold deep =
  with_device image (fun dev ->
      let config =
        { Sero.Scrub.correction_threshold = threshold; deep_verify = deep }
      in
      let report = Sero.Scrub.pass ~config dev in
      Format.fprintf std "%a@." Sero.Scrub.pp_report report;
      Format.pp_print_flush std ();
      Ok true)

let attack_names =
  List.map
    (fun a ->
      let slug =
        String.map
          (fun c -> if c = ' ' || c = '/' || c = '(' || c = ')' then '-' else c)
          (String.lowercase_ascii (Security.Attacks.label a))
      in
      (slug, a))
    Security.Attacks.all

(* Raw-device attacks can run against an image; the FS-level ones need
   the full environment and run in-memory (documented in the output). *)
let attack image name =
  match List.find_opt (fun (n, _) -> String.equal n name) attack_names with
  | None ->
      err "unknown attack %S; one of: %s" name
        (String.concat ", " (List.map fst attack_names))
  | Some (_, a) -> (
      match a with
      | Security.Attacks.Mwb_hash | Security.Attacks.Mwb_data
      | Security.Attacks.Ewb_hash | Security.Attacks.Ewb_data
      | Security.Attacks.Bulk_erase ->
          with_device image (fun dev ->
              let lay = Sero.Device.layout dev in
              let heated =
                List.filter
                  (fun l -> Sero.Device.is_line_heated dev ~line:l)
                  (List.init (Sero.Layout.n_lines lay) (fun l -> l))
              in
              match (heated, a) with
              | [], Security.Attacks.Bulk_erase | _ :: _, _ ->
                  (match a with
                  | Security.Attacks.Mwb_hash ->
                      let line = List.hd heated in
                      Sero.Device.unsafe_write_block dev
                        ~pba:(Sero.Layout.hash_block_of_line lay line)
                        (String.make 512 '\xFF')
                  | Security.Attacks.Mwb_data ->
                      let line = List.hd heated in
                      Sero.Device.unsafe_write_block dev
                        ~pba:(List.hd (Sero.Layout.data_blocks_of_line lay line))
                        "history, rewritten"
                  | Security.Attacks.Ewb_hash ->
                      let line = List.hd heated in
                      Sero.Device.unsafe_heat_dots dev
                        ~dot:(Sero.Layout.wo_first_dot lay ~line)
                        ~n:64
                  | Security.Attacks.Ewb_data ->
                      let line = List.hd heated in
                      Sero.Device.unsafe_heat_dots dev
                        ~dot:
                          (Sero.Layout.block_first_dot lay
                             (List.hd (Sero.Layout.data_blocks_of_line lay line)))
                        ~n:512
                  | _ -> Sero.Device.unsafe_magnetic_wipe dev);
                  Format.fprintf std
                    "attack %s applied to the image; run verify/fsck to see \
                     the evidence@."
                    name;
                  Format.pp_print_flush std ();
                  Ok true
              | [], _ -> Error "no heated line on this image to attack")
      | _ ->
          (* FS-level attacks need the full host environment; they run on
             a fresh in-memory instance and leave the image untouched. *)
          let outcome = Security.Attacks.run a in
          Format.fprintf std
            "(attack ran on a fresh in-memory environment)@.%s: %a@." name
            Security.Attacks.pp_outcome outcome;
          Format.pp_print_flush std ();
          `Ok ())

(* {1 Array commands}

   An array image is a text manifest plus one member image per device
   (<path>.d<i>); member images are ordinary device images, so every
   single-device subcommand (attack, verify, fsck, ...) works on them
   directly. *)

let with_volume image f =
  match Sarray.Aimage.load image with
  | Error e -> err "cannot load array %s: %s" image e
  | Ok v -> (
      match f v with
      | Ok save ->
          if save then Sarray.Aimage.save v image;
          `Ok ()
      | Error e -> `Error (false, e))

let mkarray image slots replication spares blocks line_exp seed fill =
  match
    Sarray.Volume.create
      (Sarray.Volume.default_config ~slots ~replication ~spares
         ~member_blocks:blocks ~line_exp ~seed ())
  with
  | exception Invalid_argument e -> err "%s" e
  | v ->
      if fill then begin
        (* Deterministic records, every other line heated: enough state
           for attacks, audits and rebuilds straight from the shell. *)
        let m = Sarray.Volume.map v in
        for line = 0 to Sarray.Amap.logical_lines m - 1 do
          for o = 0 to Sarray.Amap.data_blocks_per_line m - 1 do
            let vba = Sarray.Amap.vba_of m ~line ~offset:o in
            ignore
              (Sarray.Volume.write_block v ~vba
                 (Printf.sprintf "array record %d (line %d offset %d)" vba
                    line o))
          done;
          if line mod 2 = 0 then ignore (Sarray.Volume.heat_line v ~line ())
        done;
        Sarray.Volume.flush v
      end;
      Sarray.Aimage.save v image;
      let m = Sarray.Volume.map v in
      Format.fprintf std
        "created array %s: %d slots in %d-way mirrors + %d spares, %d \
         logical lines (%d data blocks)%s@."
        image slots replication spares
        (Sarray.Amap.logical_lines m)
        (Sarray.Amap.n_blocks m)
        (if fill then ", filled, every other line heated" else "");
      Format.pp_print_flush std ();
      `Ok ()

let array_status image do_verify jobs =
  with_volume image (fun v ->
      (* Audit first so the member table below shows the post-audit
         trust ledger. *)
      let report =
        if do_verify then Some (Sarray.Quorum.verify_volume ?jobs v)
        else None
      in
      Format.fprintf std "%a@." Sarray.Volume.pp_stats (Sarray.Volume.stats v);
      let states = Sarray.Volume.member_states v in
      Array.iteri
        (fun dev st ->
          let role =
            match Sarray.Volume.slot_of_dev v ~dev with
            | Some s -> Printf.sprintf "slot %d" s
            | None ->
                if List.mem dev (Sarray.Volume.spare_pool v) then "spare"
                else "carcass"
          in
          Format.fprintf std "  device %d (%-7s) %-12s %a@." dev role
            (Format.asprintf "%a" Sarray.Volume.pp_member_state st)
            Sarray.Trust.pp_entry
            (Sarray.Trust.entry (Sarray.Volume.trust v) ~dev))
        states;
      (match report with
      | Some r -> Format.fprintf std "%a@." Sarray.Quorum.pp_report r
      | None -> ());
      Format.pp_print_flush std ();
      match report with
      | None -> Ok false
      | Some r ->
          (* A verify charged the trust ledger: persist it before the
             verdict decides the exit status, so the image keeps the
             evidence either way and CI can trust the exit code alone. *)
          Sarray.Aimage.save v image;
          let c = r.Sarray.Quorum.counts in
          if
            c.Sarray.Quorum.unattested > 0
            || c.Sarray.Quorum.outvoted_replicas > 0
            || c.Sarray.Quorum.convicted_replicas > 0
            || c.Sarray.Quorum.offline > 0
          then
            Error
              (Printf.sprintf
                 "quorum found evidence: %d unattested and %d offline lines, \
                  %d outvoted + %d convicted replicas"
                 c.Sarray.Quorum.unattested c.Sarray.Quorum.offline
                 c.Sarray.Quorum.outvoted_replicas
                 c.Sarray.Quorum.convicted_replicas)
          else Ok false)

let array_fail image slot tamper replica =
  with_volume image (fun v ->
      match (slot, tamper) with
      | Some slot, None ->
          if slot < 0 || slot >= (Sarray.Volume.cfg v).Sarray.Volume.slots then
            Error (Printf.sprintf "slot %d out of range" slot)
          else begin
            Sarray.Volume.fail_slot v ~slot;
            Format.fprintf std "slot %d lost; volume is now %a@." slot
              Sarray.Volume.pp_volume_state
              (Sarray.Volume.volume_state v);
            Format.pp_print_flush std ();
            Ok true
          end
      | None, Some line ->
          let m = Sarray.Volume.map v in
          if line < 0 || line >= Sarray.Amap.logical_lines m then
            Error (Printf.sprintf "line %d out of range" line)
          else if replica < 0 || replica >= m.Sarray.Amap.replication then
            Error (Printf.sprintf "replica %d out of range" replica)
          else begin
            let slot = List.nth (Sarray.Amap.slots_of_line m line) replica in
            let dev = Sarray.Volume.dev_of_slot v ~slot in
            let d = Sarray.Volume.device v ~dev in
            let lay = Sero.Device.layout d in
            Sero.Device.unsafe_write_block d
              ~pba:
                (Sero.Layout.first_data_block lay
                   (Sarray.Amap.local_line m line))
              "tampered by array-fail";
            Format.fprintf std
              "tampered replica %d (slot %d, device %d) of line %d; run \
               array-status --verify to see the quorum's verdict@."
              replica slot dev line;
            Format.pp_print_flush std ();
            Ok true
          end
      | Some _, Some _ -> Error "--slot and --tamper are mutually exclusive"
      | None, None -> Error "one of --slot or --tamper is required")

let array_rebuild image slot force =
  with_volume image (fun v ->
      match Sarray.Rebuild.rebuild_slot ~force v ~slot with
      | Ok r ->
          Format.fprintf std "%a@." Sarray.Rebuild.pp_report r;
          Format.pp_print_flush std ();
          Ok true
      | Error Sarray.Rebuild.No_spare ->
          Error "no pooled spare to rebuild onto"
      | Error Sarray.Rebuild.Slot_healthy ->
          Error
            (Printf.sprintf
               "slot %d is active and trusted; pass --force to rebuild anyway"
               slot)
      | Error (Sarray.Rebuild.No_source l) ->
          Error
            (Printf.sprintf
               "line %d has no surviving source; nothing was committed" l)
      | exception Invalid_argument e -> Error e)

(* One-process large-geometry soak, sized for the CI memory ceiling:
   create, format, write, heat, verify, stream the image out, reload
   it, remount, re-verify and scrub — all without ever materialising a
   whole-device buffer on the OCaml heap.  The bigdev-smoke CI job runs
   this under `ulimit -v`, so a regression that buffers the medium (or
   the image file) shows up as an allocation failure, not a slowdown. *)
let bigdev image blocks line_exp =
  let step fmt =
    Format.kfprintf (fun f -> Format.pp_print_flush f ()) std (fmt ^^ "@.")
  in
  let fail fmt = Format.kasprintf (fun s -> Error s) fmt in
  let all_intact verdicts =
    List.for_all
      (fun (_, v) -> Sero.Tamper.equal_verdict v Sero.Tamper.Intact)
      verdicts
  in
  let ( let* ) = Result.bind in
  (* The checkpoint lists every segment and must fit one segment's
     payload capacity, so segments have to grow with the device:
     double [segment_lines] until there are ~1k segments.  Derived
     from the layout alone so save and reload agree on the policy. *)
  let scaled_policy lay =
    let usable = Sero.Layout.usable_lines lay in
    let rec fit sl =
      if sl * 1024 >= usable || usable mod (sl * 2) <> 0 then sl
      else fit (sl * 2)
    in
    { Lfs.State.default_policy with Lfs.State.segment_lines = fit 4 }
  in
  (* Device-level sample: a spread of lines in the upper half of the
     device (clear of the LFS log head), derived from the layout alone
     so the writer and the reloader agree on it. *)
  let sample_lines lay =
    let usable = Sero.Layout.usable_lines lay in
    let n = min 64 (usable / 2) in
    List.init n (fun i -> (usable / 2) + (i * (usable / 2) / n))
    |> List.sort_uniq compare
  in
  let record line = Printf.sprintf "bigdev soak line %d" line in
  let verify_sample dev sample =
    List.for_all
      (fun line ->
        Sero.Tamper.equal_verdict
          (Sero.Device.verify_line dev ~line)
          Sero.Tamper.Intact)
      sample
  in
  let lfs_soak dev lay =
    (* LFS lifecycle where the geometry fits its checkpoint and summary
       bounds (the on-medium format caps out around a few thousand
       lines); the device-level soak runs regardless. *)
    match Lfs.Fs.format ~policy:(scaled_policy lay) dev with
    | exception Lfs.State.Fs_error e ->
        step "lfs soak skipped at this geometry (%s)" e;
        Ok None
    | exception Invalid_argument e ->
        step "lfs soak skipped at this geometry (%s)" e;
        Ok None
    | fs ->
        let payload = String.init 65536 (fun i -> Char.chr (i land 0xFF)) in
        let* () = Lfs.Fs.create fs "/soak" in
        let* () = Lfs.Fs.write_file fs "/soak" ~offset:0 payload in
        Lfs.Fs.sync fs;
        let* r = Lfs.Fs.heat fs "/soak" in
        let* verdicts = Lfs.Fs.verify fs "/soak" in
        if not (all_intact verdicts) then fail "tamper verdict after heat"
        else begin
          step "lfs: formatted, wrote /soak, heated %d lines"
            (List.length r.Lfs.Heat.lines);
          Ok (Some (List.length r.Lfs.Heat.lines))
        end
  in
  (* Phases are separate functions so the writer device is provably
     unreachable (its frame is popped) before the reload allocates the
     second medium — the soak peaks at one device even under ulimit. *)
  let phase1 () =
    match
      Sero.Device.create
        (Sero.Device.default_config ~n_blocks:blocks ~line_exp ())
    with
    | exception Invalid_argument e -> fail "%s" e
    | dev ->
        let lay = Sero.Device.layout dev in
        step "created: %d blocks in %d lines" blocks (Sero.Layout.n_lines lay);
        let* lfs_heated = lfs_soak dev lay in
        (* Device-level soak: fill and burn a spread of lines, verify
           each, then stream the image out. *)
        let sample = sample_lines lay in
        let* () =
          List.fold_left
            (fun acc line ->
              let* () = acc in
              let* () =
                List.fold_left
                  (fun acc pba ->
                    let* () = acc in
                    match Sero.Device.write_block dev ~pba (record line) with
                    | Ok () -> Ok ()
                    | Error e ->
                        fail "write pba %d: %s" pba
                          (Format.asprintf "%a" Sero.Device.pp_write_error e))
                  (Ok ())
                  (Sero.Layout.data_blocks_of_line lay line)
              in
              match Sero.Device.heat_line dev ~line () with
              | Ok _ -> Ok ()
              | Error _ -> fail "heat of line %d refused" line)
            (Ok ()) sample
        in
        let* () =
          if verify_sample dev sample then Ok ()
          else fail "device-level verify failed before save"
        in
        Sero.Image.save dev image;
        step "burned+verified %d sample lines; image streamed to %s"
          (List.length sample) image;
        Ok lfs_heated
  in
  let phase2 lfs_heated =
    let* dev = Sero.Image.load image in
    let lay = Sero.Device.layout dev in
    let sample = sample_lines lay in
    let* () =
      if verify_sample dev sample then Ok ()
      else fail "reloaded image fails device-level verification"
    in
    step "reloaded: %d sample lines re-verified intact" (List.length sample);
    let* () =
      match lfs_heated with
      | None -> Ok ()
      | Some heated ->
          let* fs = Lfs.Fs.mount ~policy:(scaled_policy lay) dev in
          let* data = Lfs.Fs.read_file fs "/soak" in
          let* () =
            if String.length data >= 65536 then Ok ()
            else fail "short read-back (%d bytes)" (String.length data)
          in
          let* verdicts = Lfs.Fs.verify fs "/soak" in
          if all_intact verdicts && List.length verdicts = heated then begin
            step "lfs: remounted, read /soak back, %d lines intact" heated;
            Ok ()
          end
          else fail "reloaded lfs fails verification"
    in
    let report = Sero.Scrub.pass dev in
    step "%a" Sero.Scrub.pp_report report;
    let mb w = w * 8 / 1_048_576 in
    step "peak OCaml heap: %d MB" (mb Gc.((quick_stat ()).top_heap_words));
    Ok ()
  in
  let result =
    let* lfs_heated = phase1 () in
    (* The writer device died with phase1's frame; reclaim its off-heap
       store before loading the image back.  Two full majors: on OCaml 5
       one pass can leave unreachable custom blocks unswept, and the
       medium's gigabyte Bigarray must actually be unmapped here for the
       soak to peak at one device. *)
    Gc.full_major ();
    Gc.full_major ();
    phase2 lfs_heated
  in
  match result with Ok () -> `Ok () | Error e -> `Error (false, e)

(* Fleet smoke: a CoW-clone fleet fanned out over Sim.Fleet with keyed
   per-device PRNG streams — the serotool face of E26.  The exit status
   is the check: nonzero if any clone saw a tamper verdict or a failed
   operation, so CI can run it under ulimit -v and trust the result. *)
let fleet_cmd devices ops seed jobs =
  (match jobs with None -> () | Some n -> Sim.Pool.set_jobs n);
  if devices < 1 then `Error (false, "need at least one device")
  else begin
    let f = Expt.Fleet_study.run_fleet ~seed ~ops devices in
    let p50, p95, p99 = Sim.Stats.quantiles f.Expt.Fleet_study.f_lat in
    Format.printf
      "fleet: %d devices, %d ops, %d events, %d scheduler comparisons@."
      f.Expt.Fleet_study.f_devices f.Expt.Fleet_study.f_ops
      f.Expt.Fleet_study.f_events f.Expt.Fleet_study.f_sched_work;
    Format.printf
      "fleet: latency p50/p95/p99 = %.3f/%.3f/%.3f ms, %d scrub rewrites, \
       %d CoW segments@."
      p50 p95 p99 f.Expt.Fleet_study.f_scrub_rewrites
      f.Expt.Fleet_study.f_cow_segments;
    (* The worker count and the heap peak vary with -j; stdout must
       not. *)
    Format.eprintf "fleet: %d jobs, peak OCaml heap %d MB@."
      (Sim.Pool.jobs ())
      (Gc.((quick_stat ()).top_heap_words) * 8 / 1_048_576);
    if f.Expt.Fleet_study.f_tampers = 0 && f.Expt.Fleet_study.f_fails = 0
    then begin
      Format.printf "fleet: 0 tamper verdicts, 0 failed operations@.";
      `Ok ()
    end
    else
      `Error
        ( false,
          Printf.sprintf "fleet saw %d tamper verdicts, %d failed operations"
            f.Expt.Fleet_study.f_tampers f.Expt.Fleet_study.f_fails )
  end

(* Insider campaign vs. a bounded audit budget — the serotool face of
   E27.  The exit status is the acceptance check: nonzero if any landed
   tamper was still undetected at the campaign horizon, so CI runs the
   reference budget expecting success and the starved budget expecting
   failure. *)
let campaign_cmd attack defender sites budget seed jobs =
  (match jobs with None -> () | Some n -> Sim.Pool.set_jobs n);
  let module C = Security.Campaign in
  let attacks =
    if attack = "all" then Ok C.all_attacks
    else
      match C.attack_of_string attack with
      | Some a -> Ok [ a ]
      | None ->
          Error
            (Printf.sprintf "unknown attack %S (try %s or all)" attack
               (String.concat ", " (List.map C.attack_name C.all_attacks)))
  in
  match attacks with
  | Error e -> `Error (false, e)
  | Ok attacks ->
      let adversary = { C.default_adversary with ops_budget = budget } in
      let results =
        List.map
          (fun a -> C.run ~seed ~sites ~attack:a ~adversary ~defender ())
          attacks
      in
      List.iter2
        (fun a r ->
          Format.printf "campaign %-16s %a@." (C.attack_name a) C.pp_result r)
        attacks results;
      let m = C.merge results in
      Format.printf
        "campaign: %d sites/class, %d tampers landed, %d detected, \
         %d undetected, %d units of audit spend@."
        sites m.C.r_landed m.C.r_detected m.C.r_undetected (C.audit_spend m);
      if m.C.r_undetected = 0 then `Ok ()
      else
        `Error
          ( false,
            Printf.sprintf "campaign: %d tampers escaped the audit budget"
              m.C.r_undetected )

open Cmdliner

let image_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"IMAGE")

let path_arg p = Arg.(required & pos p (some string) None & info [] ~docv:"PATH")

let cmd name doc term = Cmd.v (Cmd.info name ~doc) (Term.ret term)

let () =
  let blocks =
    Arg.(value & opt int 2048 & info [ "blocks" ] ~docv:"N" ~doc:"Device blocks.")
  in
  let line_exp =
    Arg.(
      value & opt int 3 & info [ "line-exp" ] ~docv:"N" ~doc:"Line is 2^N blocks.")
  in
  let group =
    Arg.(
      value & opt int 0
      & info [ "group" ] ~docv:"G" ~doc:"Heat-affinity group for new files.")
  in
  let attack_name =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"ATTACK")
  in
  let ras =
    Arg.(
      value & flag
      & info [ "ras" ] ~doc:"Enable the RAS layer (retry, sparing, re-pulse).")
  in
  let endurance =
    Arg.(
      value & flag
      & info [ "endurance" ]
          ~doc:
            "Enable the endurance lifecycle: health-led line retirement \
             onto reserved spares (4 unless $(b,--spares) says otherwise).")
  in
  let spares =
    Arg.(
      value & opt (some int) None
      & info [ "spares" ] ~docv:"N"
          ~doc:
            "Lines reserved for grown-defect remapping (overrides the \
             $(b,--endurance) default; without $(b,--endurance) the spares \
             are reserved but no line retires automatically).")
  in
  let mig_line =
    Arg.(
      value & opt (some int) None
      & info [ "line" ] ~docv:"LINE"
          ~doc:
            "Evacuate this usable line explicitly (default: migrate \
             whatever the health ledger says is due).")
  in
  let health_limit =
    Arg.(
      value & opt int 10
      & info [ "limit" ] ~docv:"N"
          ~doc:"Show the N weakest usable lines (default 10).")
  in
  let seed =
    Arg.(value & opt int 7 & info [ "seed" ] ~docv:"S" ~doc:"Injection seed.")
  in
  let flips =
    Arg.(
      value & opt int 0
      & info [ "flips" ] ~docv:"N" ~doc:"Persistent magnetic bit-flips.")
  in
  let tear =
    Arg.(
      value & opt (some int) None
      & info [ "tear" ] ~docv:"LINE" ~doc:"Tear the burn of this line.")
  in
  let tear_cells =
    Arg.(
      value & opt int 700
      & info [ "tear-cells" ] ~docv:"K"
          ~doc:"Cut the power after K of 2048 burn pulses.")
  in
  let threshold =
    Arg.(
      value & opt int 6
      & info [ "threshold" ] ~docv:"T"
          ~doc:"Rewrite sectors at or past T corrected RS symbols.")
  in
  let deep =
    Arg.(
      value & flag
      & info [ "deep" ] ~doc:"Also re-verify heated lines against their hashes.")
  in
  let policy =
    let policy_conv =
      Arg.enum
        [
          ("fifo", Probe.Sched.Fifo);
          ("sstf", Probe.Sched.Sstf);
          ("elevator", Probe.Sched.Elevator);
        ]
    in
    Arg.(
      value
      & opt policy_conv Probe.Sched.Elevator
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:"Sled scheduling policy: $(b,fifo), $(b,sstf) or $(b,elevator).")
  in
  let no_coalesce =
    Arg.(
      value & flag
      & info [ "no-coalesce" ]
          ~doc:
            "Do not merge adjacent reads into bulk spans (by default the \
             queue coalesces up to 8 consecutive reads per sled pass).")
  in
  let capacity =
    Arg.(
      value & opt int 64
      & info [ "capacity" ] ~docv:"N" ~doc:"Cache capacity in blocks.")
  in
  let read_ahead =
    Arg.(
      value & opt int 8
      & info [ "read-ahead" ] ~docv:"N"
          ~doc:"Blocks prefetched past each cache miss (0 disables).")
  in
  let arr_slots =
    Arg.(
      value & opt int 4
      & info [ "slots" ] ~docv:"N" ~doc:"Data-bearing array slots.")
  in
  let arr_replication =
    Arg.(
      value & opt int 2
      & info [ "replication" ] ~docv:"R"
          ~doc:"Replicas per logical line (must divide $(b,--slots)).")
  in
  let arr_spares =
    Arg.(
      value & opt int 1
      & info [ "spares" ] ~docv:"N" ~doc:"Pooled spare devices.")
  in
  let arr_blocks =
    Arg.(
      value & opt int 256
      & info [ "blocks" ] ~docv:"N" ~doc:"Blocks per member device.")
  in
  let arr_seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"S"
          ~doc:"Base member seed (member $(i,i) gets S+$(i,i)).")
  in
  let arr_fill =
    Arg.(
      value & flag
      & info [ "fill" ]
          ~doc:
            "Write deterministic records to every data block and heat \
             every other line, so the fresh array is ready for attacks, \
             audits and rebuilds.")
  in
  let arr_verify =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:
            "Also run the cross-device attestation quorum over every line \
             and persist the updated trust ledger.")
  in
  let arr_jobs =
    Arg.(
      value & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains for the quorum fan-out (byte-identical output \
             for any value).")
  in
  let fleet_devices =
    Arg.(
      value & opt int 256
      & info [ "devices" ] ~docv:"N" ~doc:"Cloned devices to simulate.")
  in
  let fleet_ops =
    Arg.(
      value
      & opt int Expt.Fleet_study.default_ops
      & info [ "ops" ] ~docv:"N" ~doc:"Open-loop operations per device.")
  in
  let fleet_seed =
    Arg.(
      value & opt int 0xE26
      & info [ "seed" ] ~docv:"S"
          ~doc:"Fleet seed (device $(i,i) draws from stream (S, i)).")
  in
  let campaign_attack =
    Arg.(
      value & pos 0 string "all"
      & info [] ~docv:"ATTACK"
          ~doc:
            "Attack class (selective-tamper, scrubber-race, carcass-replay, \
             spare-exhaustion, mirror-split) or $(b,all).")
  in
  let campaign_defender =
    let defender_conv =
      Arg.enum
        [
          ("reference", Security.Campaign.reference_defender);
          ("scrub-only", Security.Campaign.scrub_only_defender);
          ("starved", Security.Campaign.starved_defender);
        ]
    in
    Arg.(
      value
      & opt defender_conv Security.Campaign.reference_defender
      & info [ "defender" ] ~docv:"BUDGET"
          ~doc:
            "Audit budget: $(b,reference) (sampled deep scrub + line \
             audits, default), $(b,scrub-only) or $(b,starved).")
  in
  let campaign_sites =
    Arg.(
      value & opt int 4
      & info [ "sites" ] ~docv:"N" ~doc:"Fleet sites per attack class.")
  in
  let campaign_budget =
    Arg.(
      value
      & opt int Security.Campaign.default_adversary.Security.Campaign.ops_budget
      & info [ "budget" ] ~docv:"N"
          ~doc:"Attack operations per compromised site.")
  in
  let campaign_seed =
    Arg.(
      value & opt int 0xE27
      & info [ "seed" ] ~docv:"S"
          ~doc:"Campaign seed (site $(i,i) draws from stream (S, i)).")
  in
  let arr_fail_slot =
    Arg.(
      value & opt (some int) None
      & info [ "slot" ] ~docv:"SLOT" ~doc:"Lose this slot's whole device.")
  in
  let arr_tamper =
    Arg.(
      value & opt (some int) None
      & info [ "tamper" ] ~docv:"LINE"
          ~doc:
            "Magnetically rewrite one replica of this volume line under \
             its burned hash (pick the replica with $(b,--replica)).")
  in
  let arr_replica =
    Arg.(
      value & opt int 0
      & info [ "replica" ] ~docv:"R"
          ~doc:"Replica ordinal for $(b,--tamper) (default 0).")
  in
  let arr_rebuild_slot =
    Arg.(
      required
      & opt (some int) None
      & info [ "slot" ] ~docv:"SLOT" ~doc:"Slot to rebuild onto a spare.")
  in
  let arr_force =
    Arg.(
      value & flag
      & info [ "force" ]
          ~doc:"Rebuild even if the slot's member is active and trusted.")
  in
  let expect =
    Arg.(
      value & opt (some string) None
      & info [ "expect" ] ~docv:"FILE"
          ~doc:
            "Compare the replay output against this golden file; any \
             difference (extra, missing or changed status line) exits \
             nonzero and leaves the image unmodified.")
  in
  let arbiter =
    let arbiter_conv =
      Arg.enum
        [
          ("blind", Host.Arbiter.Tenant_blind);
          ("fifo", Host.Arbiter.Arrival_order);
          ("wfs", Host.Arbiter.Fair_share (fun _ -> 1.));
        ]
    in
    Arg.(
      value
      & opt arbiter_conv (Host.Arbiter.Fair_share (fun _ -> 1.))
      & info [ "arbiter" ] ~docv:"POLICY"
          ~doc:
            "Tenant arbiter: $(b,wfs) (weighted fair share, default), \
             $(b,fifo) (arrival order) or $(b,blind) (no arbiter).")
  in
  let tenant_depth =
    Arg.(
      value & opt int max_int
      & info [ "depth" ] ~docv:"N" ~absent:"unlimited"
          ~doc:
            "Per-tenant in-flight command limit; the N+1st concurrent \
             command is refused with REJECTED_DEPTH.")
  in
  let tenant_rate =
    Arg.(
      value & opt float infinity
      & info [ "rate" ] ~docv:"R"
          ~doc:
            "Per-tenant token-bucket refill (commands per simulated \
             second); an empty bucket refuses with REJECTED_RATE.")
  in
  let tenant_burst =
    Arg.(
      value & opt float infinity
      & info [ "burst" ] ~docv:"B" ~doc:"Token-bucket capacity.")
  in
  let cmds =
    [
      cmd "mkdev" "Create a fresh device image."
        Term.(const mkdev $ image_arg $ blocks $ line_exp $ ras $ endurance
              $ spares);
      cmd "bigdev"
        "Large-geometry soak: create, format, heat, verify, stream-save, \
         reload, remount and scrub a device in one process (run under \
         ulimit -v to prove O(1)-per-line memory)."
        Term.(const bigdev $ image_arg $ blocks $ line_exp);
      cmd "mkfs" "Format the SERO file system." Term.(const mkfs $ image_arg);
      cmd "ls" "List a directory." Term.(const ls $ image_arg $ path_arg 1);
      cmd "mkdir" "Create a directory."
        Term.(const mkdir $ image_arg $ path_arg 1);
      cmd "write" "Write stdin to a file (created if needed)."
        Term.(const write $ image_arg $ path_arg 1 $ group);
      cmd "cat" "Print a file." Term.(const cat $ image_arg $ path_arg 1);
      cmd "rm" "Unlink a file." Term.(const rm $ image_arg $ path_arg 1);
      cmd "heat" "Make a file tamper-evident (burn per-line hashes)."
        Term.(const heat $ image_arg $ path_arg 1);
      cmd "verify" "Verify a heated file against its burned hashes."
        Term.(const verify $ image_arg $ path_arg 1);
      cmd "fsck" "Forensic scan: recover heated files from the raw medium."
        Term.(const fsck $ image_arg);
      cmd "stats" "Device statistics." Term.(const stats $ image_arg);
      cmd "health"
        "Endurance ledger: device state, spare pool, per-line margins and \
         the grown-defect list."
        Term.(const health $ image_arg $ health_limit);
      cmd "migrate"
        "Evacuate weakening lines onto spares (re-attesting heated lines)."
        Term.(const migrate $ image_arg $ mig_line);
      cmd "map" "ASCII map of heated vs WMRM lines."
        Term.(const map_cmd $ image_arg);
      cmd "replay" "Replay a recorded operation trace onto the image."
        Term.(const replay $ image_arg $ path_arg 1);
      cmd "serve-replay"
        "Replay a golden command trace (hex frames, one per line) through \
         the host front-end, printing one status line per response; exits \
         nonzero on any failed phase, or on any difference from \
         $(b,--expect)."
        Term.(
          const serve_replay $ image_arg $ path_arg 1 $ expect $ tenant_depth
          $ tenant_rate $ tenant_burst);
      cmd "tenants"
        "Replay a command trace concurrently under the tenant arbiter and \
         admission limits, printing each tenant's SLO ledger (latency \
         p50/p95/p99, energy, rejections); exits nonzero on any failed \
         phase."
        Term.(
          const tenants_cmd $ image_arg $ path_arg 1 $ arbiter $ tenant_depth
          $ tenant_rate $ tenant_burst);
      cmd "queue-stats"
        "Replay a trace through the request queue and print its latency \
         and throughput."
        Term.(const queue_stats $ image_arg $ path_arg 1 $ policy $ no_coalesce);
      cmd "cache-stats"
        "Replay a trace through the buffer cache over the request queue \
         and print hit/miss, write-behind and eviction counters."
        Term.(
          const cache_stats $ image_arg $ path_arg 1 $ policy $ capacity
          $ read_ahead);
      cmd "attack" "Run a Section 5 attack against the image."
        Term.(const attack $ image_arg $ attack_name);
      cmd "inject" "Inject deterministic faults (bit-flips, torn burn)."
        Term.(const inject $ image_arg $ seed $ flips $ tear $ tear_cells);
      cmd "scrub" "Run one scrubber pass (repair, torn completion)."
        Term.(const scrub $ image_arg $ threshold $ deep);
      cmd "fleet"
        "Simulate a fleet of CoW-cloned devices (open-loop traffic plus \
         background scrub, keyed per-device PRNG streams, deterministic \
         fan-out); exits nonzero on any tamper verdict or failed \
         operation."
        Term.(const fleet_cmd $ fleet_devices $ fleet_ops $ fleet_seed
              $ arr_jobs);
      cmd "campaign"
        "Run a budgeted insider campaign against a cloned fleet under a \
         chosen audit budget; exits nonzero if any landed tamper is still \
         undetected at the horizon."
        Term.(
          const campaign_cmd $ campaign_attack $ campaign_defender
          $ campaign_sites $ campaign_budget $ campaign_seed $ arr_jobs);
      cmd "mkarray"
        "Create a sharded array image (a manifest plus one member device \
         image per slot and spare)."
        Term.(
          const mkarray $ image_arg $ arr_slots $ arr_replication
          $ arr_spares $ arr_blocks $ line_exp $ arr_seed $ arr_fill);
      cmd "array-status"
        "Volume state, member table and trust ledger; with $(b,--verify), \
         run the cross-device attestation quorum."
        Term.(const array_status $ image_arg $ arr_verify $ arr_jobs);
      cmd "array-fail"
        "Script a disaster against the array: whole-device loss \
         ($(b,--slot)) or a targeted replica tamper ($(b,--tamper))."
        Term.(
          const array_fail $ image_arg $ arr_fail_slot $ arr_tamper
          $ arr_replica);
      cmd "rebuild"
        "Rebuild a lost or outvoted slot onto a pooled spare, re-burning \
         the original hashes."
        Term.(const array_rebuild $ image_arg $ arr_rebuild_slot $ arr_force);
    ]
  in
  let doc = "operate a simulated tamper-evident SERO device" in
  exit (Cmd.eval (Cmd.group (Cmd.info "serotool" ~version:"1.0" ~doc) cmds))
