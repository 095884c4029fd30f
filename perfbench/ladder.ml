(* The layer ladder: the recorded op stream of a workload replayed once per
   rung, each rung entering the stack one layer lower.  A layer's self time
   is the difference between its rung and the next one down; the device
   rung is split into its codec and pmedia work, which are replayed on
   their own, and what remains is the device's own logic.  Every rung runs
   on a freshly built copy of the post-warm-up stack, traced; R0 also runs
   once untraced, and the difference is the tracing overhead. *)

type rung = {
  name : string;
  layer : string;  (** The layer whose self time is this rung minus the next. *)
  make : unit -> (unit -> unit) * (unit -> unit);
      (** Untimed set-up, returning the timed replay and an untimed check. *)
}

let rung name ~layer make = { name; layer; make }

type result = {
  ops : int;
  metrics : (string * float) list;
  rungs : (string * float) list;  (** Rung name, wall ns per op. *)
  identical : bool;  (** Every rung that answers responses matched the recording. *)
  notes : string list;
}

let rounds = 5

let time ~traced name (thunk, after) =
  Gc.compact ();
  if traced then Span.start_rung name;
  let w0 = Gc.minor_words () in
  let t0 = Util.now_ns () in
  thunk ();
  let t1 = Util.now_ns () in
  let w1 = Gc.minor_words () in
  if traced then Span.end_rung ();
  after ();
  (t1 - t0, w1 -. w0)

let self_name layer =
  if layer = "bcache" then "bcache.net_ns_per_op" else layer ^ ".self_ns_per_op"

(* Every rung runs [rounds] times, interleaved, each time on a freshly
   built stack; its figure is the median. *)
let run ~ops ~upper ~device ~codec ~pmedia ~r0_untraced =
  let per x = float_of_int x /. float_of_int ops in
  let ct = ref None in
  let codec_rung () = ((fun () -> ct := Some (Devlog.replay_codec codec)), Fun.id) in
  let all =
    (("R0 untraced", false, r0_untraced)
    :: List.map (fun r -> (r.name, true, r.make)) upper)
    @ [ ("device", true, device); ("codec", true, codec_rung); ("pmedia", true, pmedia) ]
    |> Array.of_list
  in
  let ns = Array.map (fun _ -> Util.Fbuf.create rounds) all in
  let words = Array.make (Array.length all) 0. in
  for _ = 1 to rounds do
    Array.iteri
      (fun i (name, traced, make) ->
        let t, w = time ~traced name (make ()) in
        Util.Fbuf.add ns.(i) (float_of_int t);
        words.(i) <- w)
      all
  done;
  let med i = int_of_float (Util.median (Util.Fbuf.contents ns.(i))) in
  let n_up = List.length upper in
  let r0u = med 0 in
  let uppers = List.mapi (fun k r -> (r, med (k + 1))) upper in
  let dev_ns = med (n_up + 1) and codec_ns = med (n_up + 2) and pm_ns = med (n_up + 3) in
  let dev_words = words.(n_up + 1) in
  let ct = Option.get !ct in
  let rec selves = function
    | (r, ns) :: ((_, next) :: _ as rest) -> (self_name r.layer, per (ns - next)) :: selves rest
    | [ (r, ns) ] -> [ (self_name r.layer, per (ns - dev_ns)) ]
    | [] -> []
  in
  let layer_selves =
    selves uppers
    @ [
        ("device.self_ns_per_op", per (dev_ns - codec_ns - pm_ns));
        ("codec.self_ns_per_op", per codec_ns);
        ("pmedia.self_ns_per_op", per pm_ns);
      ]
  in
  let r0t = match uppers with (_, ns) :: _ -> ns | [] -> dev_ns in
  let overhead = 100. *. float_of_int (r0t - r0u) /. float_of_int (max 1 r0u) in
  (* Self-test: the self times must telescope back to the R0 total, up to
     the tracing overhead. *)
  let sum = List.fold_left (fun a (_, v) -> a +. v) 0. layer_selves in
  let residual = 100. *. Float.abs (sum -. per r0u) /. per r0u in
  let telescopes = residual <= Float.abs overhead +. 1e-6 in
  let nz x = float_of_int (max 1 x) in
  let metrics =
    layer_selves
    @ [
        ("device.minor_words_per_op", dev_words /. float_of_int ops);
        ("codec.sector_encode_ns", float_of_int ct.Devlog.enc_ns /. nz codec.Devlog.encodes);
        ("codec.sector_decode_ns", float_of_int ct.Devlog.dec_ns /. nz codec.Devlog.decodes);
        ( "codec.sha256_ns_per_kib",
          float_of_int ct.Devlog.sha_ns *. 1024. /. nz codec.Devlog.hashed_bytes );
        ("bench.trace_overhead_pct", overhead);
        ("bench.r0_ns_per_op", per r0u);
        ("bench.ops_per_s", 1e9 /. per r0u);
      ]
  in
  {
    ops;
    metrics;
    rungs = Array.to_list (Array.mapi (fun i (name, _, _) -> (name, per (med i))) all);
    identical = telescopes;
    notes =
      (if telescopes then []
       else [ Printf.sprintf "ladder does not telescope: residual %.2f%%" residual ]);
  }
