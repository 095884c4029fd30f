type target = Device of Sero.Queue.t | Volume of Sarray.Volume.t

type limits = { weight : float; max_depth : int; rate : float; burst : float }

let default_limits =
  { weight = 1.; max_depth = max_int; rate = infinity; burst = infinity }

type tstate = {
  limits : limits;
  slo : Slo.t;
  mutable tokens : float;
  mutable refilled : float;
  mutable in_flight : int;
}

type t = {
  target : target;
  limits_of : int -> limits;
  tstates : (int, tstate) Hashtbl.t;
  mutable responses : Proto.response list; (* newest first *)
  mutable on_response : (Proto.response -> unit) option;
}

let des_of = function
  | Device q -> Sero.Queue.des q
  | Volume v -> Sero.Queue.des (Sarray.Volume.queue v ~dev:0)

let queues_of = function
  | Device q -> [ q ]
  | Volume v ->
      List.init (Sarray.Volume.n_devices v) (fun dev ->
          Sarray.Volume.queue v ~dev)

let create ?(limits_of = fun _ -> default_limits) target =
  {
    target;
    limits_of;
    tstates = Hashtbl.create 8;
    responses = [];
    on_response = None;
  }

let now t = Sim.Des.now (des_of t.target)

let set_policy t policy =
  List.iter (fun q -> Arbiter.install q policy) (queues_of t.target)

let tstate t tenant =
  match Hashtbl.find_opt t.tstates tenant with
  | Some ts -> ts
  | None ->
      let limits = t.limits_of tenant in
      let ts =
        {
          limits;
          slo = Slo.create ();
          tokens = limits.burst;
          refilled = now t;
          in_flight = 0;
        }
      in
      Hashtbl.add t.tstates tenant ts;
      ts

let slo t ~tenant = (tstate t tenant).slo

(* Token-bucket refill on the DES clock; [infinity] rate/burst means
   admission never rejects on rate. *)
let admit ts ~now =
  if ts.limits.rate < infinity then begin
    let dt = now -. ts.refilled in
    ts.tokens <- Float.min ts.limits.burst (ts.tokens +. (ts.limits.rate *. dt));
    ts.refilled <- now
  end;
  if ts.in_flight >= ts.limits.max_depth then Error `Depth
  else if ts.limits.rate < infinity && ts.tokens < 1. then Error `Rate
  else begin
    if ts.limits.rate < infinity then ts.tokens <- ts.tokens -. 1.;
    ts.in_flight <- ts.in_flight + 1;
    Ok ()
  end

let push t r =
  t.responses <- r :: t.responses;
  match t.on_response with None -> () | Some k -> k r

let set_on_response t k = t.on_response <- k

(* A read the target serves counts in the SLO read track, even when its
   address is out of range; an UNSUPPORTED one does not. *)
let is_read (cmd : Proto.command) status =
  status <> Proto.st_unsupported
  && match cmd with Proto.Read _ | Proto.Array_read _ -> true | _ -> false

let finish t ts (f : Proto.frame) ~t0 status payload =
  ts.in_flight <- ts.in_flight - 1;
  Slo.note_completion ts.slo
    ~read:(is_read f.Proto.cmd status)
    ~ok:(not (Proto.status_failed status))
    ~latency:(now t -. t0);
  push t
    {
      Proto.r_tenant = f.Proto.tenant;
      r_seq = f.Proto.seq;
      r_op = Proto.opcode_of_command f.Proto.cmd;
      r_phases = [ Proto.st_ok; status ];
      r_payload = payload;
    }

(* {1 Runners}

   One runner per target.  Each matches on the opcode only and answers
   through [k status payload]: queued commands at completion, every
   other command at once.  The first two arms answer UNSUPPORTED
   (whatever the address) and OUT_OF_RANGE. *)

let verdict_status = function
  | Sero.Tamper.Intact -> Proto.st_ok
  | Sero.Tamper.Not_heated -> Proto.st_not_heated
  | Sero.Tamper.Tampered _ -> Proto.st_tampered

(* A command's result: OK with [payload x], or [error] with none. *)
let answer k ~error payload = function
  | Ok x -> k Proto.st_ok (payload x)
  | Error _ -> k error ""

let no_payload () = ""

(* Whether the command's address lies inside [blocks] data blocks and
   [lines] lines. *)
let in_bounds ~blocks ~lines (cmd : Proto.command) =
  let below n i = 0 <= i && i < n in
  match cmd with
  | Proto.Read { pba } | Proto.Write { pba; _ } | Proto.Array_read { vba = pba }
    ->
      below blocks pba
  | Proto.Heat { line; _ } | Proto.Verify { line } | Proto.Audit_line { line }
    ->
      below lines line
  | Proto.Audit -> true

let audit_summary entries =
  let intact = ref 0 and blank = ref 0 and tampered = ref 0 in
  List.iter
    (fun e ->
      match e.Sero.Device.verdict with
      | Sero.Tamper.Intact -> incr intact
      | Sero.Tamper.Not_heated -> incr blank
      | Sero.Tamper.Tampered _ -> incr tampered)
    entries;
  ( Printf.sprintf "lines=%d intact=%d not_heated=%d tampered=%d"
      (List.length entries) !intact !blank !tampered,
    !tampered )

(* Read, write, heat and audit-line ride the queue and contend under
   the arbiter.  Audit spend is queue traffic too: a background-class
   verify, so the defender's budget is charged in the same currency as
   the foreground it displaces.  Verify and audit read the write-once
   areas electrically, not through the sled. *)
let run_device q ~tenant (cmd : Proto.command) k =
  let dev = Sero.Queue.device q in
  match cmd with
  | Proto.Array_read _ -> k Proto.st_unsupported ""
  | _
    when not
           (in_bounds
              ~blocks:(Sero.Device.config dev).Sero.Device.n_blocks
              ~lines:(Sero.Layout.n_lines (Sero.Device.layout dev))
              cmd) ->
      k Proto.st_out_of_range ""
  | Proto.Read { pba } ->
      Sero.Queue.submit_read q ~tenant ~pba
        (answer k ~error:Proto.st_read_error Fun.id)
  | Proto.Write { pba; payload } ->
      Sero.Queue.submit_write q ~tenant ~pba payload
        (answer k ~error:Proto.st_write_refused no_payload)
  | Proto.Heat { line; timestamp } ->
      Sero.Queue.submit_heat_line q ~tenant ~line ?timestamp
        (answer k ~error:Proto.st_heat_refused Hash.Sha256.to_raw)
  | Proto.Audit_line { line } ->
      Sero.Queue.submit_verify_line q ~tenant ~line (fun v ->
          k (verdict_status v) "")
  | Proto.Verify { line } ->
      k (verdict_status (Sero.Device.verify_line dev ~line)) ""
  | Proto.Audit ->
      let payload, tampered = audit_summary (Sero.Device.scan dev) in
      k (if tampered > 0 then Proto.st_tampered else Proto.st_ok) payload

(* The volume facade is synchronous: every command answers at once. *)
let run_volume v ~tenant (cmd : Proto.command) k =
  let m = Sarray.Volume.map v in
  match cmd with
  | Proto.Verify _ | Proto.Audit -> k Proto.st_unsupported ""
  | _
    when not
           (in_bounds ~blocks:(Sarray.Amap.n_blocks m)
              ~lines:(Sarray.Amap.logical_lines m) cmd) ->
      k Proto.st_out_of_range ""
  | Proto.Read { pba = vba } | Proto.Array_read { vba } ->
      answer k ~error:Proto.st_read_error Fun.id
        (Sarray.Volume.read_block ~tenant v ~vba)
  | Proto.Write { pba = vba; payload } ->
      answer k ~error:Proto.st_write_refused no_payload
        (Sarray.Volume.write_block ~tenant v ~vba payload)
  | Proto.Heat { line; timestamp } ->
      answer k ~error:Proto.st_heat_refused Hash.Sha256.to_raw
        (Sarray.Volume.heat_line ~tenant v ~line ?timestamp ())
  | Proto.Audit_line { line } ->
      let status =
        match Sarray.Quorum.attest_line v ~line with
        | Sarray.Quorum.Attested _ -> Proto.st_ok
        | Sarray.Quorum.Line_not_heated -> Proto.st_not_heated
        | Sarray.Quorum.Tie_unattested _ | Sarray.Quorum.All_convicted _ ->
            Proto.st_tampered
        | Sarray.Quorum.Line_offline -> Proto.st_read_error
      in
      k status ""

(* Execute an admitted command on the target's runner. *)
let execute t ts (f : Proto.frame) =
  let t0 = now t in
  let k status payload = finish t ts f ~t0 status payload in
  match t.target with
  | Device q -> run_device q ~tenant:f.Proto.tenant f.Proto.cmd k
  | Volume v -> run_volume v ~tenant:f.Proto.tenant f.Proto.cmd k

let submit_frame t (f : Proto.frame) =
  let ts = tstate t f.Proto.tenant in
  match admit ts ~now:(now t) with
  | Error kind ->
      Slo.note_rejection ts.slo kind;
      push t
        {
          Proto.r_tenant = f.Proto.tenant;
          r_seq = f.Proto.seq;
          r_op = Proto.opcode_of_command f.Proto.cmd;
          r_phases =
            [
              (match kind with
              | `Depth -> Proto.st_rejected_depth
              | `Rate -> Proto.st_rejected_rate);
            ];
          r_payload = "";
        }
  | Ok () -> execute t ts f

let drain t =
  match t.target with
  | Device q -> Sero.Queue.drain q
  | Volume v -> Sarray.Volume.flush v

let responses t = List.rev t.responses

let tenants t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.tstates [] |> List.sort compare

let report t ~tenant =
  let ts = tstate t tenant in
  let qs = queues_of t.target in
  let energy =
    List.fold_left (fun a q -> a +. Sero.Queue.tenant_energy q tenant) 0. qs
  in
  let service =
    List.fold_left (fun a q -> a +. Sero.Queue.tenant_service q tenant) 0. qs
  in
  Slo.report ~energy ~service ts.slo

(* {1 Sessions} *)

type session = { server : t; tenant : int; mutable next_seq : int }

let session t ~tenant =
  ignore (tstate t tenant);
  { server = t; tenant; next_seq = 0 }

let next_seq s = s.next_seq

let submit s cmd =
  let seq = s.next_seq in
  s.next_seq <- seq + 1;
  submit_frame s.server { Proto.tenant = s.tenant; seq; cmd };
  seq

let call s cmd =
  let seq = submit s cmd in
  drain s.server;
  match
    List.find_opt
      (fun r -> r.Proto.r_tenant = s.tenant && r.Proto.r_seq = seq)
      s.server.responses
  with
  | Some r -> r
  | None -> assert false (* drained: the response must have been pushed *)

(* {1 Replay} *)

let replay t frames =
  let before = List.length t.responses in
  List.iter
    (fun f ->
      submit_frame t f;
      drain t)
    frames;
  let rec take n acc l =
    if n = 0 then acc
    else match l with [] -> acc | r :: rest -> take (n - 1) (r :: acc) rest
  in
  take (List.length t.responses - before) [] t.responses

let format_replay rs =
  String.concat ""
    (List.map (fun r -> Format.asprintf "%a@." Proto.pp_response r) rs)
