(* Spans of the traced ladder run: one per call the benchmark makes into a
   layer, kept in memory and written out at exit as Chrome trace-event
   JSON (opens in Perfetto or chrome://tracing).

   Each span has a name, wall start/end, the rung span that caused it
   (its parent) and a request id (workload, tenant, seq).  Call spans go
   into a fixed ring per rung, so recording one costs the same however
   many came before, and the file holds the most recent [cap] calls of
   every rung; rung spans are kept apart and never overwritten.  Recording is on only between
   [start_rung] and [end_rung], so the untraced R0 replay runs the very
   same code without the bookkeeping and the difference between the two
   is the tracing overhead. *)

let cap = 5_000

type ring = {
  names : string array;
  t0 : int array;
  t1 : int array;
  parent : int array;
  tenant : int array;
  seq : int array;
  mutable n : int;  (** Call spans recorded in total. *)
}

let new_ring () =
  {
    names = Array.make cap "";
    t0 = Array.make cap 0;
    t1 = Array.make cap 0;
    parent = Array.make cap (-1);
    tenant = Array.make cap 0;
    seq = Array.make cap 0;
    n = 0;
  }

(* One ring per rung name, made when the rung first runs. *)
let rings : (string, ring) Hashtbl.t = Hashtbl.create 16
let ring = ref (new_ring ())

type rung_span = { r_name : string; r_t0 : int; mutable r_t1 : int }

let rungs : rung_span Util.Vbuf.t = Util.Vbuf.create ()
let on = ref false
let workload = ref ""

let start_rung name =
  (ring :=
     match Hashtbl.find_opt rings name with
     | Some r -> r
     | None ->
         let r = new_ring () in
         Hashtbl.add rings name r;
         r);
  let now = Util.now_ns () in
  Util.Vbuf.add rungs { r_name = name; r_t0 = now; r_t1 = now };
  on := true

let end_rung () =
  on := false;
  let r = rungs.Util.Vbuf.a.(rungs.Util.Vbuf.n - 1) in
  r.r_t1 <- Util.now_ns ()

(* [call name ~tenant ~seq f] runs [f ()] inside a span when tracing. *)
let call name ~tenant ~seq f =
  if not !on then f ()
  else begin
    let t0 = Util.now_ns () in
    let r = f () in
    let t1 = Util.now_ns () in
    let s = !ring in
    let i = s.n mod cap in
    s.names.(i) <- name;
    s.t0.(i) <- t0;
    s.t1.(i) <- t1;
    s.parent.(i) <- rungs.Util.Vbuf.n - 1;
    s.tenant.(i) <- tenant;
    s.seq.(i) <- seq;
    s.n <- s.n + 1;
    r
  end

let count () = Hashtbl.fold (fun _ r a -> a + r.n) rings 0
let kept () = Hashtbl.fold (fun _ r a -> a + min r.n cap) rings 0

(* Rung spans are events 0..R-1 (their own thread each); call spans sit
   on their rung's thread. *)
let write_chrome path =
  let oc = open_out path in
  let rs = Util.Vbuf.contents rungs in
  let base = if Array.length rs > 0 then rs.(0).r_t0 else 0 in
  let us t = float_of_int (t - base) /. 1000. in
  let first = ref true in
  let event name ~tid ~t0 ~t1 ~id ~parent ~tenant ~seq =
    Printf.fprintf oc
      "%s{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"req\":\"%s/%d/%d\"}}"
      (if !first then "" else ",\n")
      name tid (us t0)
      (float_of_int (t1 - t0) /. 1000.)
      id parent !workload tenant seq;
    first := false
  in
  output_string oc "{\"traceEvents\":[\n";
  Array.iteri
    (fun i r -> event r.r_name ~tid:i ~t0:r.r_t0 ~t1:r.r_t1 ~id:i ~parent:(-1) ~tenant:(-1) ~seq:(-1))
    rs;
  let id = ref (Array.length rs) in
  Hashtbl.iter
    (fun _ s ->
      for k = s.n - min s.n cap to s.n - 1 do
        let i = k mod cap in
        event s.names.(i) ~tid:s.parent.(i) ~t0:s.t0.(i) ~t1:s.t1.(i) ~id:!id ~parent:s.parent.(i)
          ~tenant:s.tenant.(i) ~seq:s.seq.(i);
        incr id
      done)
    rings;
  Printf.fprintf oc "\n],\"otherData\":{\"call_spans\":%d,\"kept\":%d}}\n" (count ()) (kept ());
  close_out oc
