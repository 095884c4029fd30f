(* The end-to-end benchmark.  See README.md in this directory.

   perfbench --workload NAME --seed N --seconds S --trace 0|1
   perfbench --self-test

   --trace 0 measures the end-to-end metrics: fresh set-up, untimed
   warm-up and a fixed op stream, repeated until S seconds have passed
   (at least [subseeds + 1] repeats).  --trace 1 runs the layer ladder
   and prints the per-layer table.  The last line of stdout is one JSON
   object. *)

type workload = {
  name : string;
  repeat : seed:int -> Util.repeat;
  ladder : seed:int -> Ladder.result;
}

let workloads =
  [
    { name = "host-mixed"; repeat = Host_mixed.repeat; ladder = Host_mixed.ladder };
    { name = "volume-mirror"; repeat = Volume_mirror.repeat; ladder = Volume_mirror.ladder };
    { name = "lfs-snapshot"; repeat = Lfs_snapshot.repeat; ladder = Lfs_snapshot.ladder };
  ]

(* Names and units must match BENCHMARK.json.  The gated end-to-end
   metrics are deterministic for a seed, except setup_s; wall-clock
   throughput and latency are printed beside them as a tracked figure
   (see README.md). *)
let tracked = [ ("ops_per_s", "ops/s"); ("op_wall_p50_us", "us"); ("op_wall_p99_us", "us") ]

let end_to_end =
  [
    ("sim_mean_ms", "ms");
    ("sim_p99_ms", "ms");
    ("sim_ops_per_s", "ops/s");
    ("sim_energy_uj_per_op", "uJ");
    ("minor_words_per_op", "words");
    ("live_heap_mb", "MiB");
    ("setup_s", "s");
  ]

let per_layer =
  [
    ("proto.self_ns_per_op", "ns");
    ("proto.wire_bytes_per_op", "B");
    ("server.self_ns_per_op", "ns");
    ("server.rejected", "count");
    ("server.tenant_p99_spread", "ratio");
    ("volume.self_ns_per_op", "ns");
    ("volume.member_reads_per_read", "count");
    ("volume.degraded_reads", "count");
    ("volume.read_rejects", "count");
    ("bcache.net_ns_per_op", "ns");
    ("bcache.hit_pct", "%");
    ("bcache.read_ahead_useful_pct", "%");
    ("bcache.evictions_per_op", "count");
    ("bcache.blocks_per_flush_span", "count");
    ("bcache.write_absorbed_pct", "%");
    ("lfs.self_ns_per_op", "ns");
    ("lfs.write_amp", "ratio");
    ("lfs.cleaner_copies_per_op", "count");
    ("lfs.heat_relocations", "count");
    ("lfs.partially_heated_segments", "count");
    ("queue.self_ns_per_op", "ns");
    ("queue.sched_work_per_op", "count");
    ("queue.sim_wait_p50_ms", "ms");
    ("queue.sim_wait_p99_ms", "ms");
    ("queue.sim_service_ms_per_op", "ms");
    ("queue.coalesced_pct", "%");
    ("queue.retried_reads", "count");
    ("device.self_ns_per_op", "ns");
    ("device.reads_per_op", "count");
    ("device.writes_per_op", "count");
    ("device.heats", "count");
    ("device.verifies_per_op", "count");
    ("device.retries", "count");
    ("device.minor_words_per_op", "words");
    ("device.bytes_copied_per_op", "B");
    ("device.sim_busy_s", "s");
    ("codec.self_ns_per_op", "ns");
    ("codec.sector_encode_ns", "ns");
    ("codec.sector_decode_ns", "ns");
    ("codec.sha256_ns_per_kib", "ns");
    ("pmedia.self_ns_per_op", "ns");
    ("pmedia.mrb_per_op", "count");
    ("pmedia.mwb_per_op", "count");
    ("pmedia.ewb_per_op", "count");
    ("pmedia.erb_per_op", "count");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("bench.trace_overhead_pct", "%");
    ("bench.r0_ns_per_op", "ns");
    ("bench.ops_per_s", "ops/s");
  ]

let json_num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let print_result ~correct ~attempted ~failed metrics =
  let ms =
    List.map
      (fun (name, unit, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " ms)

let metadata wl ~seed extra =
  Printf.printf "# workload %s seed %d nproc %d ocaml %s pool_jobs %d %s\n" wl.name seed
    (Domain.recommended_domain_count ()) Sys.ocaml_version (Sim.Pool.jobs ()) extra

(* Repeat [i] of a run uses sub-seed [i mod subseeds]: the simulated and
   allocation figures pool the first [subseeds] repeats (so they sample
   several address layouts, yet depend on the seed alone), and every
   later repeat re-runs one of them, which is the determinism check. *)
let subseeds = 8
let sub_seed seed i = seed + (100_003 * (i mod subseeds))

let run_untraced wl ~seed ~seconds =
  let t_start = Util.now_ns () in
  let elapsed () = float_of_int (Util.now_ns () - t_start) /. 1e9 in
  let reps = ref [] and n = ref 0 in
  while !n <= subseeds || (elapsed () < seconds && !n < 200) do
    Gc.compact ();
    reps := wl.repeat ~seed:(sub_seed seed !n) :: !reps;
    incr n
  done;
  let reps = Array.of_list (List.rev !reps) in
  let first = Array.sub reps 0 subseeds in
  (* The tracked wall-clock figures take the best repeat: on a shared
     host, interference only ever slows a repeat down, so the fastest of
     many short repeats follows the program's own cost, where the median
     follows the neighbours' load (three 30 s runs of one seed: medians
     14% apart, best repeats 4%). *)
  let fast_time f = Array.fold_left (fun a r -> Float.min a (f r)) infinity reps in
  let fast_rate f = Array.fold_left (fun a r -> Float.max a (f r)) 0. reps in
  let pooled f = Array.concat (Array.to_list (Array.map f first)) in
  let total f = Array.fold_left (fun a r -> a +. f r) 0. first in
  let sim_sig (r : Util.repeat) =
    (r.Util.digest, r.Util.sim_lat_s, r.Util.sim_s, r.Util.energy_j, r.Util.minor_words)
  in
  let deterministic =
    Array.for_all Fun.id (Array.mapi (fun i r -> sim_sig r = sim_sig reps.(i mod subseeds)) reps)
  in
  let ops = total (fun r -> float_of_int r.Util.ops) in
  let sim_lat = pooled (fun r -> r.Util.sim_lat_s) in
  let values =
    [
      ("ops_per_s", fast_rate (fun r -> float_of_int r.Util.ops /. r.Util.wall_s));
      ("op_wall_p50_us", fast_time (fun r -> Util.quantile r.Util.op_wall_ns 0.5 /. 1e3));
      ("op_wall_p99_us", fast_time (fun r -> Util.quantile r.Util.op_wall_ns 0.99 /. 1e3));
      ("sim_mean_ms", 1e3 *. Util.mean sim_lat);
      ("sim_p99_ms", 1e3 *. Util.quantile sim_lat 0.99);
      ("sim_ops_per_s", ops /. total (fun r -> r.Util.sim_s));
      ("sim_energy_uj_per_op", total (fun r -> r.Util.energy_j) *. 1e6 /. ops);
      ("minor_words_per_op", total (fun r -> r.Util.minor_words) /. ops);
      ( "live_heap_mb",
        total (fun r -> float_of_int (r.Util.live_words * (Sys.word_size / 8)))
        /. float_of_int subseeds /. 1048576. );
      ("setup_s", Util.median (Array.map (fun r -> r.Util.setup_s) reps));
    ]
  in
  let attempted = Array.fold_left (fun a r -> a + r.Util.oracle.Util.attempted) 0 reps in
  let failed = Array.fold_left (fun a r -> a + r.Util.oracle.Util.failed) 0 reps in
  let probes = Array.fold_left (fun a r -> a + r.Util.probes) 0 reps in
  let detected = Array.fold_left (fun a r -> a + r.Util.probes_detected) 0 reps in
  metadata wl ~seed
    (Printf.sprintf "repeats %d ops_per_repeat %d subseeds %d" (Array.length reps)
       reps.(0).Util.ops subseeds);
  Printf.printf "# per-repeat ops/s:%s\n"
    (String.concat "" (Array.to_list (Array.map (fun r -> Printf.sprintf " %.0f" (float_of_int r.Util.ops /. r.Util.wall_s)) reps)));
  let samples = function
    | "setup_s" -> Printf.sprintf "median of %d set-ups" (Array.length reps)
    | "ops_per_s" | "op_wall_p50_us" | "op_wall_p99_us" ->
        Printf.sprintf "tracked, not gated: best of %d repeats, %d ops each" (Array.length reps)
          reps.(0).Util.ops
    | "sim_mean_ms" | "sim_p99_ms" | "sim_ops_per_s" | "sim_energy_uj_per_op"
    | "minor_words_per_op" ->
        Printf.sprintf "%.0f ops over %d sub-seeds, re-checked by every later repeat" ops subseeds
    | "live_heap_mb" -> Printf.sprintf "mean over %d sub-seeds, end of timed region" subseeds
    | _ -> ""
  in
  List.iter
    (fun (name, unit) ->
      Printf.printf "%-22s %14.4f %-6s (%s)\n" name (List.assoc name values) unit (samples name))
    (end_to_end @ tracked);
  Printf.printf "%-22s %14.4f %-6s (%d checked outcomes, %d tamper probes, %d detected)\n" "failed_pct"
    (100. *. float_of_int failed /. float_of_int (max 1 attempted))
    "%" attempted probes detected;
  List.iter
    (fun r -> List.iter (Printf.printf "# oracle: %s\n") (List.rev r.Util.oracle.Util.first_failures))
    (Array.to_list reps);
  Printf.printf "# process peak heap %.1f MiB\n"
    (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.);
  if not deterministic then print_endline "# determinism: repeats of one seed disagree";
  print_result
    ~correct:(failed = 0 && deterministic && detected = probes)
    ~attempted ~failed
    (List.map (fun (n, u) -> (n, u, List.assoc n values)) end_to_end)

let run_traced wl ~seed =
  Span.workload := wl.name;
  let res = wl.ladder ~seed in
  metadata wl ~seed (Printf.sprintf "ladder ops %d" res.Ladder.ops);
  print_endline "# rung                    wall ns/op";
  List.iter (fun (n, v) -> Printf.printf "  %-24s %12.1f\n" n v) res.Ladder.rungs;
  print_endline "# layer metric                        value  unit";
  List.iter
    (fun (n, u) ->
      match List.assoc_opt n res.Ladder.metrics with
      | Some v -> Printf.printf "  %-30s %14.3f  %s\n" n v u
      | None -> Printf.printf "  %-30s %14s\n" n "absent")
    per_layer;
  List.iter (Printf.printf "# %s\n") res.Ladder.notes;
  let dir = Filename.concat "perfbench" "out" in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat dir (Printf.sprintf "trace-%s-%d.json" wl.name seed) in
  Span.write_chrome path;
  Printf.printf "# %d call spans; the rung spans and the last %d calls of each rung written to %s\n"
    (Span.count ()) Span.cap path;
  (* A layer absent from the workload reads "absent" in the table above;
     the JSON carries every per-layer name, with 0 for absent ones. *)
  print_result ~correct:res.Ladder.identical ~attempted:res.Ladder.ops
    ~failed:(if res.Ladder.identical then 0 else 1)
    (List.map
       (fun (n, u) -> (n, u, Option.value ~default:0. (List.assoc_opt n res.Ladder.metrics)))
       per_layer)

let self_test () =
  let results = Host_mixed.self_test () @ Volume_mirror.self_test () @ Lfs_snapshot.self_test () in
  let res = Host_mixed.ladder ~seed:3 in
  let results =
    results
    @ [
        ("host-mixed ladder telescopes and R0/R1/R2 agree", res.Ladder.identical);
      ]
  in
  List.iter (fun (n, ok) -> Printf.printf "%s %s\n" (if ok then "ok  " else "FAIL") n) results;
  if List.for_all snd results then print_endline "self-test passed"
  else begin
    print_endline "self-test FAILED";
    exit 1
  end

let () =
  Sim.Pool.set_jobs 1;
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 and st = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  host-mixed | volume-mirror | lfs-snapshot");
      ("--seed", Arg.Set_int seed, "N  workload seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S  measuring time (default 10)");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end metrics, or the per-layer ladder");
      ("--self-test", Arg.Set st, " check that the oracle and the ladder catch faults");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  if !st then self_test ()
  else
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | None ->
        prerr_endline ("perfbench: unknown workload " ^ !workload);
        exit 2
    | Some wl -> if !trace = 1 then run_traced wl ~seed:!seed else run_untraced wl ~seed:!seed ~seconds:!seconds
