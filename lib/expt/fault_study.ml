type row = {
  ber : float;
  dead_tips : int;
  ras_on : bool;
  sectors : int;
  unrecoverable : int;
  retries : int;
  repulses : int;
  remapped : int;
  throughput_mbs : float;
  deterministic : bool;
}

let data_pbas dev n =
  let lay = Sero.Device.layout dev in
  let rec take acc line =
    if List.length acc >= n || line >= Sero.Layout.n_lines lay then
      List.filteri (fun i _ -> i < n) acc
    else take (acc @ Sero.Layout.data_blocks_of_line lay line) (line + 1)
  in
  take [] 0

let write_all dev pbas =
  List.iteri
    (fun i pba ->
      match Sero.Device.write_block dev ~pba (Printf.sprintf "fault %d" i) with
      | Ok () -> ()
      | Error _ -> ())
    pbas

let make_dev ~n_blocks ~ras_on =
  let base = Sero.Device.default_config ~n_blocks ~line_exp:3 () in
  Sero.Device.create { base with Sero.Device.ras = ras_on }

(* One full cell: build, write clean, install the plan, sweep-read.
   Returns the row ingredients plus the injection ledger so the caller
   can check run-to-run determinism. *)
let cell_once ~n_blocks ~sectors ~ber ~dead_tips ~ras_on ~plan_seed =
  let dev = make_dev ~n_blocks ~ras_on in
  let n_tips =
    Probe.Tips.n_tips (Probe.Pdevice.tips (Sero.Device.pdevice dev))
  in
  let pbas = data_pbas dev sectors in
  write_all dev pbas;
  let plan =
    Fault.Plan.make ~seed:plan_seed ~read_ber:ber
      ~tip_deaths:
        (List.init dead_tips (fun t ->
             { Fault.Plan.tip = 7 * (t + 1) mod n_tips; after_ops = 0 }))
      ()
  in
  let inj = Fault.Injector.create plan in
  Sero.Device.install_fault dev inj;
  let pdev = Sero.Device.pdevice dev in
  Probe.Pdevice.reset_ledger pdev;
  let unrecoverable =
    List.fold_left
      (fun acc pba ->
        match Sero.Device.read_block dev ~pba with
        | Ok _ -> acc
        | Error _ -> acc + 1)
      0 pbas
  in
  let elapsed = Probe.Pdevice.elapsed pdev in
  let s = Sero.Device.stats dev in
  let throughput_mbs =
    if elapsed <= 0. then 0.
    else float_of_int (List.length pbas * 512) /. elapsed /. 1e6
  in
  ( {
      ber;
      dead_tips;
      ras_on;
      sectors = List.length pbas;
      unrecoverable;
      retries = s.Sero.Device.retries;
      repulses = s.Sero.Device.repulses;
      remapped = s.Sero.Device.remapped_tips;
      throughput_mbs;
      deterministic = true;
    },
    Fault.Injector.ledger_to_string inj )

let run_cell ?(n_blocks = 64) ?(sectors = 56) ~ber ~dead_tips ~ras_on
    ~plan_seed () =
  let row1, ledger1 =
    cell_once ~n_blocks ~sectors ~ber ~dead_tips ~ras_on ~plan_seed
  in
  let _, ledger2 =
    cell_once ~n_blocks ~sectors ~ber ~dead_tips ~ras_on ~plan_seed
  in
  { row1 with deterministic = String.equal ledger1 ledger2 }

let sweep () =
  (* Each cell builds its own devices and injector from (ber, dead,
     ras, seed) alone, so the flattened grid fans out on the pool with
     sequential-identical output. *)
  let grid =
    List.concat_map
      (fun ber ->
        List.concat_map
          (fun dead_tips ->
            (* Same plan seed for both arms: identical fault plans. *)
            let plan_seed =
              1 + (1000 * dead_tips) + int_of_float (1e6 *. ber)
            in
            List.map
              (fun ras_on -> (ber, dead_tips, ras_on, plan_seed))
              [ false; true ])
          [ 0; 1; 2 ])
      [ 0.; 1e-4; 2e-3; 5e-3 ]
  in
  Sim.Pool.parallel_map
    (fun (ber, dead_tips, ras_on, plan_seed) ->
      run_cell ~ber ~dead_tips ~ras_on ~plan_seed ())
    grid

(* {1 Torn-burn recovery} *)

type torn_demo = {
  cut_after_cells : int;
  verdict_before : Sero.Tamper.verdict;
  classified : Sero.Device.block_class;
  completion_ok : bool;
  verdict_after : Sero.Tamper.verdict;
}

let fill_line dev line =
  let lay = Sero.Device.layout dev in
  List.iteri
    (fun i pba ->
      match Sero.Device.write_block dev ~pba (Printf.sprintf "line data %d" i) with
      | Ok () -> ()
      | Error _ -> ())
    (Sero.Layout.data_blocks_of_line lay line)

(* Burn line [line] but cut the power after [cells] ewb pulses (a full
   burn is one pulse per Manchester cell = 2048). *)
let tear_line dev ~line ~cells =
  let inj =
    Fault.Injector.create (Fault.Plan.make ~power_cut_after_ewb:cells ())
  in
  Sero.Device.install_fault dev inj;
  (match Sero.Device.heat_line dev ~line () with
  | exception Fault.Injector.Power_cut -> ()
  | Ok _ | Error _ -> ());
  Sero.Device.clear_fault dev

let torn_recovery () =
  let cut_after_cells = 700 in
  let dev = make_dev ~n_blocks:64 ~ras_on:true in
  let lay = Sero.Device.layout dev in
  fill_line dev 1;
  tear_line dev ~line:1 ~cells:cut_after_cells;
  let verdict_before = Sero.Device.verify_line dev ~line:1 in
  let classified =
    Sero.Device.classify_block dev ~pba:(Sero.Layout.hash_block_of_line lay 1)
  in
  let completion_ok =
    match Sero.Device.heat_line dev ~line:1 () with
    | Ok _ -> true
    | Error _ -> false
  in
  let verdict_after = Sero.Device.verify_line dev ~line:1 in
  { cut_after_cells; verdict_before; classified; completion_ok; verdict_after }

(* {1 Power-cut rate} *)

type powercut_row = {
  lines_cut : int;
  tampered_without_ras : int;
  recovered_with_scrub : int;
}

let torn_device ~lines_cut ~ras_on =
  let dev = make_dev ~n_blocks:64 ~ras_on in
  for line = 0 to lines_cut - 1 do
    fill_line dev line;
    tear_line dev ~line ~cells:(600 + (97 * line))
  done;
  dev

let powercut_series ?(cuts = [ 1; 2; 4 ]) () =
  Sim.Pool.parallel_map
    (fun lines_cut ->
      let dev_off = torn_device ~lines_cut ~ras_on:false in
      let tampered_without_ras =
        List.length
          (List.filter
             (fun line -> Sero.Tamper.is_tampered (Sero.Device.verify_line dev_off ~line))
             (List.init lines_cut Fun.id))
      in
      let dev_on = torn_device ~lines_cut ~ras_on:true in
      let report = Sero.Scrub.pass dev_on in
      {
        lines_cut;
        tampered_without_ras;
        recovered_with_scrub = List.length report.Sero.Scrub.torn_completed;
      })
    cuts

let print ppf =
  Format.fprintf ppf "E18 — fault injection and RAS recovery@.";
  Format.fprintf ppf "%s@." (String.make 72 '-');
  Format.fprintf ppf
    "read sweep under identical fault plans (56 sectors, same seed per \
     pair):@.";
  Format.fprintf ppf "  %-9s %-5s %-4s %-7s %-8s %-8s %-7s %-10s %-5s@." "BER"
    "dead" "ras" "unrec" "retries" "remaps" "repulse" "MB/s" "det";
  let rows = sweep () in
  List.iter
    (fun r ->
      Format.fprintf ppf "  %-9g %-5d %-4s %-7d %-8d %-8d %-7d %-10.3f %-5s@."
        r.ber r.dead_tips
        (if r.ras_on then "on" else "off")
        r.unrecoverable r.retries r.remapped r.repulses r.throughput_mbs
        (if r.deterministic then "yes" else "NO"))
    rows;
  let torn = torn_recovery () in
  Format.fprintf ppf
    "torn burn (power cut after %d of 2048 cells): before=%a class=%a@.  \
     completion=%s after=%a@."
    torn.cut_after_cells Sero.Tamper.pp_verdict torn.verdict_before
    Sero.Device.pp_block_class torn.classified
    (if torn.completion_ok then "ok" else "FAILED")
    Sero.Tamper.pp_verdict torn.verdict_after;
  Format.fprintf ppf "power cuts mid-burn, with and without a scrub pass:@.";
  Format.fprintf ppf "  %-10s %-22s %-22s@." "lines cut" "tampered (ras off)"
    "recovered (ras+scrub)";
  List.iter
    (fun r ->
      Format.fprintf ppf "  %-10d %-22d %-22d@." r.lines_cut
        r.tampered_without_ras r.recovered_with_scrub)
    (powercut_series ());
  let all_det = List.for_all (fun r -> r.deterministic) rows in
  Format.fprintf ppf
    "finding: a dead tip is fatal without sparing and free with it (minus \
     a@.settle-time tax per scan row); retries absorb BER the RS budget \
     alone@.cannot; torn burns are recoverable, and every injection ledger \
     replayed@.bit-identically (%s).@."
    (if all_det then "deterministic" else "NON-DETERMINISTIC!")
