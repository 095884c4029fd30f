type prio = Foreground | Background

let pp_prio ppf = function
  | Foreground -> Format.pp_print_string ppf "fg"
  | Background -> Format.pp_print_string ppf "bg"

(* A request's scheduling key is the scan offset of its first dot —
   the same key E19 feeds to [Sched.order], so measured service order
   is directly comparable to the estimator. *)
type kind =
  | KRead of { pba : int; k : (string, Device.read_error) result -> unit }
  | KOther of { exec : unit -> unit -> unit }
      (** [exec ()] performs the device operation immediately (the sled
          is committed) and returns the completion thunk that fires the
          caller's callback later. *)

type req = {
  kind : kind;
  rprio : prio;
  tenant : int;
  offset : int;
  submitted : float;
  mutable attempts : int;
      (* Service attempts so far; bounded by [read_retry_limit]. *)
}

type arbiter_view = { av_tenant : int; av_backlog : int; av_oldest : float }

(* What a service pass produced for one request: [Done] fires the
   caller's callback at completion; [Retryable] is a failed read whose
   callback is only fired if the retry budget is spent. *)
type outcome = Done of (unit -> unit) | Retryable of (unit -> unit)

type class_stats = {
  latency : Sim.Stats.t;
  wait : Sim.Stats.t;
  mutable energy : float;
  mutable completed : int;
  mutable last_completion : float;
}

(* Per-tenant service ledger.  Service and energy are charged when the
   sled pass runs (a group is single-tenant, see [dispatch]), so an
   installed arbiter sees the work a tenant has consumed *before* it
   chooses the next one — the property fair-share needs. *)
type tenant_stats = {
  mutable t_completed : int;
  mutable t_service : float;
  mutable t_energy : float;
}

type t = {
  des : Sim.Des.t;
  dev : Device.t;
  policy : Probe.Sched.policy;
  coalesce : bool;
  read_retry_limit : int;
  mutable pending_fg : req list; (* newest first *)
  mutable pending_bg : req list; (* newest first *)
  mutable busy : bool;
  mutable dispatch_armed : bool;
  mutable current_offset : int;
  fg : class_stats;
  bg : class_stats;
  mutable arbiter : (arbiter_view list -> int) option;
  by_tenant : (int, tenant_stats) Hashtbl.t;
  service : Sim.Stats.t;
  depth_hist : Sim.Stats.Histogram.h;
  mutable served_rev : int list;
  mutable coalesced : int;
  mutable retry_pending : int;
      (* Retries scheduled on the DES but not yet re-enqueued: [idle]
         must see them or [drain] stops with the request in flight. *)
  mutable retried_reads : int;
  mutable abandoned_reads : int;
}

let class_stats_create name =
  {
    latency = Sim.Stats.create ~name:(name ^ " latency") ();
    wait = Sim.Stats.create ~name:(name ^ " wait") ();
    energy = 0.;
    completed = 0;
    last_completion = 0.;
  }

(* Longest coalesced read span, in blocks. *)
let span_limit = 8

(* The first read retry waits this many simulated seconds; each
   further one doubles it. *)
let retry_backoff = 1e-4

let create ?(policy = Probe.Sched.Elevator) ?(coalesce = true)
    ?(read_retry_limit = 0) des dev =
  if read_retry_limit < 0 then
    invalid_arg "Queue.create: read_retry_limit must be >= 0";
  {
    des;
    dev;
    policy;
    coalesce;
    read_retry_limit;
    pending_fg = [];
    pending_bg = [];
    busy = false;
    dispatch_armed = false;
    current_offset = 0;
    fg = class_stats_create "fg";
    bg = class_stats_create "bg";
    arbiter = None;
    by_tenant = Hashtbl.create 8;
    service = Sim.Stats.create ~name:"service" ();
    depth_hist = Sim.Stats.Histogram.create ~lo:0. ~hi:64. ~bins:16;
    served_rev = [];
    coalesced = 0;
    retry_pending = 0;
    retried_reads = 0;
    abandoned_reads = 0;
  }

let device t = t.dev
let des t = t.des
let stats_of t = function Foreground -> t.fg | Background -> t.bg
let set_arbiter t a = t.arbiter <- a

let tenant_stats_of t tenant =
  match Hashtbl.find_opt t.by_tenant tenant with
  | Some ts -> ts
  | None ->
      let ts = { t_completed = 0; t_service = 0.; t_energy = 0. } in
      Hashtbl.add t.by_tenant tenant ts;
      ts

let tenants t =
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.by_tenant [])

let tenant_completed t tenant =
  match Hashtbl.find_opt t.by_tenant tenant with
  | Some ts -> ts.t_completed
  | None -> 0

let tenant_service t tenant =
  match Hashtbl.find_opt t.by_tenant tenant with
  | Some ts -> ts.t_service
  | None -> 0.

let tenant_energy t tenant =
  match Hashtbl.find_opt t.by_tenant tenant with
  | Some ts -> ts.t_energy
  | None -> 0.
let pending t = List.length t.pending_fg + List.length t.pending_bg
let idle t =
  (not t.busy) && t.retry_pending = 0 && t.pending_fg = []
  && t.pending_bg = []

let offset_of_pba t pba =
  snd
    (Probe.Tips.locate
       (Probe.Pdevice.tips (Device.pdevice t.dev))
       (Layout.block_first_dot (Device.layout t.dev) pba))

let offset_of_line t line =
  offset_of_pba t (Layout.hash_block_of_line (Device.layout t.dev) line)

(* Remove the first (oldest) pending request of [prio] whose offset is
   [off] (and, when [tenant] is given, whose tenant matches); [pend] is
   stored newest-first, so "oldest with that offset" is the last
   matching element. *)
let take_oldest_at ?tenant t prio off =
  let pend =
    match prio with Foreground -> t.pending_fg | Background -> t.pending_bg
  in
  let wanted r =
    r.offset = off
    && match tenant with None -> true | Some tid -> r.tenant = tid
  in
  let taken = ref None in
  let rest =
    (* Walk oldest-first, take the first match, keep the rest. *)
    List.fold_left
      (fun acc r ->
        if !taken = None && wanted r then begin
          taken := Some r;
          acc
        end
        else r :: acc)
      [] (List.rev pend)
  in
  match !taken with
  | None -> None
  | Some r ->
      (match prio with
      | Foreground -> t.pending_fg <- rest
      | Background -> t.pending_bg <- rest);
      Some r

(* Arbiter views: one per tenant with pending work in the class, sorted
   by tenant id so the arbiter's input (and thus every downstream
   decision) is deterministic. *)
let views_of pend =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun r ->
      match Hashtbl.find_opt tbl r.tenant with
      | None ->
          Hashtbl.add tbl r.tenant
            { av_tenant = r.tenant; av_backlog = 1; av_oldest = r.submitted }
      | Some v ->
          Hashtbl.replace tbl r.tenant
            {
              v with
              av_backlog = v.av_backlog + 1;
              av_oldest = min v.av_oldest r.submitted;
            })
    pend;
  List.sort
    (fun a b -> compare a.av_tenant b.av_tenant)
    (Hashtbl.fold (fun _ v acc -> v :: acc) tbl [])

(* Serve one group: execute the device operations now (they move the
   sled and charge the ledger), then schedule a completion event after
   the measured service time that fires the callbacks and re-arms the
   dispatcher. *)
let rec serve_group t group =
  let pd = Device.pdevice t.dev in
  let t0 = Probe.Pdevice.elapsed pd and e0 = Probe.Pdevice.energy pd in
  let read_outcome k r =
    match r with
    | Ok _ -> Done (fun () -> k r)
    | Error _ -> Retryable (fun () -> k r)
  in
  let outcomes =
    match group with
    | [ { kind = KOther { exec }; _ } ] -> [ Done (exec ()) ]
    | [ { kind = KRead { pba; k }; _ } ] ->
        [ read_outcome k (Device.read_block t.dev ~pba) ]
    | { kind = KRead { pba = first; _ }; _ } :: _ ->
        let results =
          Device.read_blocks t.dev ~pba:first ~n:(List.length group)
        in
        List.mapi
          (fun i r ->
            match r.kind with
            | KRead { k; _ } -> read_outcome k results.(i)
            | KOther _ -> assert false)
          group
    | _ -> assert false
  in
  let dt = Probe.Pdevice.elapsed pd -. t0
  and de = Probe.Pdevice.energy pd -. e0 in
  Sim.Stats.add t.service dt;
  (* Groups are single-tenant (coalescing never crosses tenants), so
     the whole pass is charged to the head's tenant — immediately, not
     at completion, so a fair-share arbiter sees it next dispatch. *)
  (let ts = tenant_stats_of t (List.hd group).tenant in
   ts.t_service <- ts.t_service +. dt;
   ts.t_energy <- ts.t_energy +. de);
  t.coalesced <- t.coalesced + List.length group - 1;
  List.iter
    (fun r ->
      t.served_rev <- r.offset :: t.served_rev;
      t.current_offset <- r.offset)
    group;
  let started = Sim.Des.now t.des in
  Sim.Des.schedule t.des ~delay:dt (fun des ->
      let now = Sim.Des.now des in
      let complete r fire =
        let cs = stats_of t r.rprio in
        Sim.Stats.add cs.latency (now -. r.submitted);
        Sim.Stats.add cs.wait (started -. r.submitted);
        cs.energy <- cs.energy +. (de /. float_of_int (List.length group));
        cs.completed <- cs.completed + 1;
        cs.last_completion <- now;
        (tenant_stats_of t r.tenant).t_completed <-
          (tenant_stats_of t r.tenant).t_completed + 1;
        fire ()
      in
      List.iter2
        (fun r outcome ->
          match outcome with
          | Done fire -> complete r fire
          | Retryable fire ->
              if r.attempts < t.read_retry_limit then begin
                (* Deterministic exponential backoff off the DES clock:
                   backoff * 2^(attempt-1), original submit time kept so
                   latency sees the whole ordeal. *)
                r.attempts <- r.attempts + 1;
                t.retried_reads <- t.retried_reads + 1;
                let delay =
                  retry_backoff *. (2. ** float_of_int (r.attempts - 1))
                in
                t.retry_pending <- t.retry_pending + 1;
                Sim.Des.schedule des ~delay (fun _ ->
                    t.retry_pending <- t.retry_pending - 1;
                    enqueue t r)
              end
              else begin
                t.abandoned_reads <-
                  t.abandoned_reads + (if t.read_retry_limit > 0 then 1 else 0);
                complete r fire
              end)
        group outcomes;
      t.busy <- false;
      arm_dispatch t)

(* Pick the next group to serve: the head of [Sched.order] over the
   pending offsets of the preferred class, restarted from the sled's
   current offset.  Re-running the policy on every dispatch reproduces
   the full-batch order head by head (greedy Sstf stays greedy, the
   elevator keeps sweeping from wherever it is, Fifo sees arrival
   order), so the concatenated service log of a settled batch equals
   one [Sched.order] call over it — the property the conformance test
   asserts. *)
and dispatch t =
  if t.busy then ()
  else
    let prio =
      if t.pending_fg <> [] then Some Foreground
      else if t.pending_bg <> [] then Some Background
      else None
    in
    match prio with
    | None -> ()
    | Some prio ->
        let pend =
          match prio with
          | Foreground -> t.pending_fg
          | Background -> t.pending_bg
        in
        (* With an arbiter installed, the tenant is chosen first (fair
           share across tenants), then the sled policy orders that
           tenant's requests only.  Without one, dispatch is
           tenant-blind — bit-identical to the pre-tenant pipeline. *)
        let tenant_filter =
          match t.arbiter with
          | None -> None
          | Some choose -> (
              match views_of pend with
              | [] -> None
              | [ v ] -> Some v.av_tenant
              | vs ->
                  let pick = choose vs in
                  if List.exists (fun v -> v.av_tenant = pick) vs then
                    Some pick
                  else Some (List.hd vs).av_tenant)
        in
        let eligible =
          match tenant_filter with
          | None -> pend
          | Some tid -> List.filter (fun r -> r.tenant = tid) pend
        in
        let offsets = List.rev_map (fun r -> r.offset) eligible in
        let ordered =
          Probe.Sched.order t.policy ~current:t.current_offset offsets
        in
        let head_off = List.hd ordered in
        let head =
          match take_oldest_at ?tenant:tenant_filter t prio head_off with
          | Some r -> r
          | None -> assert false
        in
        (* Coalesce: absorb follow-up reads that are both next in the
           policy's order and physically consecutive, so the group is a
           prefix of the service order and one sled pass covers it. *)
        let group =
          match head.kind with
          | KOther _ -> [ head ]
          | KRead { pba = first; _ } when t.coalesce ->
              let rec absorb acc last_pba = function
                | _ when List.length acc >= span_limit -> acc
                | [] -> acc
                | off :: rest -> (
                    let next_pba = last_pba + 1 in
                    if
                      next_pba >= (Device.config t.dev).Device.n_blocks
                      || off <> offset_of_pba t next_pba
                    then acc
                    else
                      (* Only absorb an actual pending read of that PBA. *)
                      (* Never absorb across tenants: the pass is
                         charged to one tenant's ledger, and a fair
                         share must not smuggle another tenant's work
                         into it. *)
                      let matches r =
                        match r.kind with
                        | KRead { pba; _ } ->
                            pba = next_pba && r.offset = off
                            && r.tenant = head.tenant
                        | KOther _ -> false
                      in
                      let pend_now =
                        match prio with
                        | Foreground -> t.pending_fg
                        | Background -> t.pending_bg
                      in
                      match
                        List.exists matches (List.rev pend_now)
                      with
                      | false -> acc
                      | true ->
                          let oldest =
                            List.find matches (List.rev pend_now)
                          in
                          (* The offset head of the remaining order must
                             be this request; remove it from pending. *)
                          let rest_pend =
                            let removed = ref false in
                            List.filter
                              (fun r ->
                                if (not !removed) && r == oldest then begin
                                  removed := true;
                                  false
                                end
                                else true)
                              pend_now
                          in
                          (match prio with
                          | Foreground -> t.pending_fg <- rest_pend
                          | Background -> t.pending_bg <- rest_pend);
                          absorb (acc @ [ oldest ]) next_pba rest)
              in
              absorb [ head ] first (List.tl ordered)
          | KRead _ -> [ head ]
        in
        t.busy <- true;
        serve_group t group

and arm_dispatch t =
  if (not t.dispatch_armed) && not t.busy then begin
    t.dispatch_armed <- true;
    Sim.Des.schedule t.des ~delay:0. (fun _ ->
        t.dispatch_armed <- false;
        dispatch t)
  end

and enqueue t r =
  (match r.rprio with
  | Foreground -> t.pending_fg <- r :: t.pending_fg
  | Background -> t.pending_bg <- r :: t.pending_bg);
  Sim.Stats.Histogram.add t.depth_hist
    (float_of_int (pending t + (if t.busy then 1 else 0)));
  arm_dispatch t

let submit_read t ?(prio = Foreground) ?(tenant = 0) ~pba k =
  enqueue t
    {
      kind = KRead { pba; k };
      rprio = prio;
      tenant;
      offset = offset_of_pba t pba;
      submitted = Sim.Des.now t.des;
      attempts = 1;
    }

let submit_other t prio tenant offset exec =
  enqueue t
    {
      kind = KOther { exec };
      rprio = prio;
      tenant;
      offset;
      submitted = Sim.Des.now t.des;
      attempts = 1;
    }

let submit_write t ?(prio = Foreground) ?(tenant = 0) ~pba payload k =
  submit_other t prio tenant (offset_of_pba t pba) (fun () ->
      let r = Device.write_block t.dev ~pba payload in
      fun () -> k r)

let submit_write_span t ?(prio = Foreground) ?(tenant = 0) ~pba payloads k =
  let n = Array.length payloads in
  if n = 0 then invalid_arg "Queue.submit_write_span: empty span";
  if pba < 0 || pba + n > (Device.config t.dev).Device.n_blocks then
    invalid_arg "Queue.submit_write_span: PBA range out of bounds";
  (* One request, one sled pass: the span is a single non-preemptive
     service group, so a write-behind flush of n consecutive dirty
     blocks costs one queue slot instead of n. *)
  submit_other t prio tenant (offset_of_pba t pba) (fun () ->
      let rs =
        Array.mapi (fun i p -> Device.write_block t.dev ~pba:(pba + i) p)
          payloads
      in
      t.coalesced <- t.coalesced + (n - 1);
      fun () -> k rs)

let submit_heat_line t ?(prio = Foreground) ?(tenant = 0) ~line ?timestamp k =
  let timestamp =
    match timestamp with Some ts -> ts | None -> Sim.Des.now t.des
  in
  submit_other t prio tenant (offset_of_line t line) (fun () ->
      let r = Device.heat_line t.dev ~line ~timestamp () in
      fun () -> k r)

let submit_scrub_line t ?config prog ~line k =
  submit_other t Background 0 (offset_of_line t line) (fun () ->
      Scrub.add_remapped prog (Device.service_failed_tips t.dev);
      Scrub.sweep_line ?config t.dev prog ~line;
      k)

let submit_verify_line t ?(tenant = 0) ~line k =
  submit_other t Background tenant (offset_of_line t line) (fun () ->
      let v = Device.verify_line t.dev ~line in
      fun () -> k v)

(* The background-maintenance driver: every [period] simulated seconds
   until [stop ()] holds at a tick, if no request of this kind is
   outstanding, [submit finished] may submit one and says whether it
   did; the request calls [finished] when it completes. *)
let every t ~period ~stop submit =
  let outstanding = ref false in
  let finished () = outstanding := false in
  let rec arm () =
    Sim.Des.schedule t.des ~delay:period (fun _ ->
        if not (stop ()) then begin
          if not !outstanding then begin
            outstanding := true;
            if not (submit finished) then outstanding := false
          end;
          arm ()
        end)
  in
  arm ()

let schedule_scrub ?config ?planner t ~period ~stop =
  let prog = Scrub.progress_create () in
  let planner =
    match planner with Some p -> p | None -> Scrub.planner t.dev
  in
  every t ~period ~stop (fun finished ->
      submit_scrub_line t ?config prog ~line:(Scrub.planner_next planner)
        finished;
      true);
  prog

let submit_migrate t ~line k =
  submit_other t Background 0 (offset_of_line t line) (fun () ->
      let timestamp = Sim.Des.now t.des in
      let r = Device.evacuate_line t.dev ~line ~timestamp () in
      fun () -> k r)

let schedule_migration t ~period ~stop =
  let migrated = ref [] in
  every t ~period ~stop (fun finished ->
      match Device.next_due t.dev with
      | None -> false
      | Some line ->
          submit_migrate t ~line (fun r ->
              (match r with Ok m -> migrated := m :: !migrated | Error _ -> ());
              finished ());
          true);
  migrated

let drain t =
  while not (idle t) do
    if not (Sim.Des.step t.des) then
      failwith "Sero.Queue.drain: pending requests but no scheduled event"
  done

(* The synchronous facade: the caller submits one request whose
   callback fills [cell]; pump the DES until it has. *)
let run_sync t cell =
  while Option.is_none !cell do
    if not (Sim.Des.step t.des) then
      failwith "Sero.Queue: awaited request cannot complete (empty DES)"
  done;
  Option.get !cell

let read_block ?prio ?tenant t ~pba =
  let cell = ref None in
  submit_read t ?prio ?tenant ~pba (fun r -> cell := Some r);
  run_sync t cell

let write_block ?prio ?tenant t ~pba payload =
  let cell = ref None in
  submit_write t ?prio ?tenant ~pba payload (fun r -> cell := Some r);
  run_sync t cell

let write_span ?prio ?tenant t ~pba payloads =
  let cell = ref None in
  submit_write_span t ?prio ?tenant ~pba payloads (fun r -> cell := Some r);
  run_sync t cell

let heat_line ?tenant t ~line ?timestamp () =
  let cell = ref None in
  submit_heat_line t ?tenant ~line ?timestamp (fun r -> cell := Some r);
  run_sync t cell

let latency t prio = (stats_of t prio).latency
let wait t prio = (stats_of t prio).wait
let service t = t.service
let energy_spent t prio = (stats_of t prio).energy
let completed t prio = (stats_of t prio).completed
let last_completion t prio = (stats_of t prio).last_completion
let depth_histogram t = t.depth_hist
let served_offsets t = List.rev t.served_rev
let coalesced_requests t = t.coalesced
let retried_reads t = t.retried_reads
let abandoned_reads t = t.abandoned_reads

let pp_summary ppf t =
  let pc prio =
    let cs = stats_of t prio in
    let p50, p95, p99 = Sim.Stats.quantiles cs.latency in
    Format.fprintf ppf
      "  %a: %d done, lat p50=%.4g p95=%.4g p99=%.4g s, wait mean=%.4g s, \
       %.3g J@."
      pp_prio prio cs.completed p50 p95 p99 (Sim.Stats.mean cs.wait) cs.energy
  in
  Format.fprintf ppf "queue [%a]: %d pending, %d coalesced, service mean=%.4g s@."
    Probe.Sched.pp_policy t.policy (pending t) t.coalesced
    (Sim.Stats.mean t.service);
  if t.read_retry_limit > 0 then
    Format.fprintf ppf "  retries: %d re-served, %d abandoned@."
      t.retried_reads t.abandoned_reads;
  pc Foreground;
  pc Background;
  match tenants t with
  | [] | [ 0 ] -> ()
  | ts ->
      List.iter
        (fun tid ->
          Format.fprintf ppf "  tenant %d: %d done, service %.4g s, %.3g J@."
            tid (tenant_completed t tid) (tenant_service t tid)
            (tenant_energy t tid))
        ts
