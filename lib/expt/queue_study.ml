type row = {
  policy : string;
  depth : int;
  scrub_hz : float;
  ops : int;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  mean_service_ms : float;
  iops : float;
  bg_lines : int;
  depth_counts : int array;
}

(* Closed-loop client think time: long enough that background work can
   slip into the gaps (as on a real system), short enough to keep the
   queue loaded at depth 16. *)
let think_s = 0.005

let run_cell ?(ops = 240) ~policy ~depth ~scrub_period () =
  let dev =
    Sero.Device.create (Sero.Device.default_config ~n_blocks:512 ~line_exp:3 ())
  in
  let lay = Sero.Device.layout dev in
  let data_pbas =
    List.init (Sero.Layout.n_lines lay) Fun.id
    |> List.concat_map (Sero.Layout.data_blocks_of_line lay)
    |> Array.of_list
  in
  let payload_of pba =
    String.init 256 (fun i -> Char.chr ((pba + (7 * i)) land 0xff))
  in
  (* Prefill every data block so reads are honest (done synchronously,
     before the clock starts: the queue measures deltas only). *)
  Array.iter
    (fun pba ->
      match Sero.Device.write_block dev ~pba (payload_of pba) with
      | Ok () -> ()
      | Error _ -> assert false)
    data_pbas;
  let des = Sim.Des.create () in
  let q = Sero.Queue.create ~policy des dev in
  let rng = Sim.Prng.create 0xE20 in
  let zipf = Workload.Zipf.create ~n:(Array.length data_pbas) ~theta:0.9 in
  let issued = ref 0 and done_fg = ref 0 in
  let rec spawn () =
    if !issued < ops then begin
      incr issued;
      let pba = data_pbas.(Workload.Zipf.sample zipf rng) in
      let finish () =
        incr done_fg;
        Sim.Des.schedule des ~delay:think_s (fun _ -> spawn ())
      in
      if Sim.Prng.bernoulli rng 0.67 then
        Sero.Queue.submit_read q ~pba (fun _ -> finish ())
      else
        Sero.Queue.submit_write q ~pba (payload_of pba) (fun _ -> finish ())
    end
  in
  (match scrub_period with
  | None -> ()
  | Some period ->
      ignore
        (Sero.Queue.schedule_scrub q ~period ~stop:(fun () -> !done_fg >= ops)));
  for _ = 1 to depth do
    spawn ()
  done;
  Sim.Des.run des;
  let fg = Sero.Queue.Foreground and bg = Sero.Queue.Background in
  let lat = Sero.Queue.latency q fg in
  let p50, p95, p99 = Sim.Stats.quantiles lat in
  let completed = Sero.Queue.completed q fg in
  let t_end = Sero.Queue.last_completion q fg in
  {
    policy = Format.asprintf "%a" Probe.Sched.pp_policy policy;
    depth;
    scrub_hz = (match scrub_period with None -> 0. | Some p -> 1. /. p);
    ops = completed;
    p50_ms = 1e3 *. p50;
    p95_ms = 1e3 *. p95;
    p99_ms = 1e3 *. p99;
    mean_service_ms = 1e3 *. Sim.Stats.mean (Sero.Queue.service q);
    iops =
      (if t_end > 0. then float_of_int completed /. t_end else 0.);
    bg_lines = Sero.Queue.completed q bg;
    depth_counts = Sim.Stats.Histogram.counts (Sero.Queue.depth_histogram q);
  }

let depths = [ 1; 4; 16 ]
let scrub_periods = [ None; Some 0.2; Some 0.04 ]

let sweep () =
  let cells =
    List.concat_map
      (fun policy ->
        List.concat_map
          (fun depth ->
            List.map (fun sp -> (policy, depth, sp)) scrub_periods)
          depths)
      Probe.Sched.all_policies
  in
  Sim.Pool.parallel_map
    (fun (policy, depth, scrub_period) ->
      run_cell ~policy ~depth ~scrub_period ())
    cells

let pp_hist ppf counts =
  let last = ref 0 in
  Array.iteri (fun i c -> if c > 0 then last := i) counts;
  Format.pp_print_string ppf "[";
  for i = 0 to !last do
    Format.fprintf ppf "%s%d" (if i > 0 then " " else "") counts.(i)
  done;
  Format.pp_print_string ppf "]"

let print ppf =
  let rows = sweep () in
  Format.fprintf ppf "E20 — request queueing: depth x policy x scrub@.";
  Format.fprintf ppf "%s@." (String.make 78 '-');
  Format.fprintf ppf "  %-9s %5s %8s %6s %8s %8s %8s %9s %6s %3s  %s@."
    "policy" "depth" "scrub/s" "ops" "p50(ms)" "p95(ms)" "p99(ms)"
    "svc(ms)" "iops" "bg" "depth hist (bin=4)";
  List.iter
    (fun r ->
      Format.fprintf ppf
        "  %-9s %5d %8.0f %6d %8.2f %8.2f %8.2f %9.2f %6.0f %3d  %a@."
        r.policy r.depth r.scrub_hz r.ops r.p50_ms r.p95_ms r.p99_ms
        r.mean_service_ms r.iops r.bg_lines pp_hist r.depth_counts)
    rows;
  (* Headline comparisons the acceptance criteria care about. *)
  let find policy depth hz =
    List.find
      (fun r -> r.policy = policy && r.depth = depth && r.scrub_hz = hz)
      rows
  in
  let fifo = find "fifo" 16 0.
  and sstf = find "sstf" 16 0.
  and elev = find "elevator" 16 0. in
  Format.fprintf ppf
    "at depth 16 (no scrub): mean service fifo=%.2f ms, sstf=%.2f ms \
     (%.2fx), elevator=%.2f ms (%.2fx)@."
    fifo.mean_service_ms sstf.mean_service_ms
    (fifo.mean_service_ms /. sstf.mean_service_ms)
    elev.mean_service_ms
    (fifo.mean_service_ms /. elev.mean_service_ms);
  let quiet = find "elevator" 1 0. and busy = find "elevator" 1 25. in
  Format.fprintf ppf
    "background scrub contention (depth 1): p50 %.2f -> %.2f ms, p95 %.2f \
     -> %.2f ms at 25 sweeps/s (%d lines swept); at higher depths strict \
     foreground priority starves the scrubber instead (bg column).@."
    quiet.p50_ms busy.p50_ms quiet.p95_ms busy.p95_ms busy.bg_lines;
  Format.fprintf ppf
    "queueing makes the policies real: E19 estimated travel, E20 measures@.";
  Format.fprintf ppf
    "waiting — depth drives the reordering window a single sled can exploit.@."
