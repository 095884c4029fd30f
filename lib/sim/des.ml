type t = { mutable clock : float; queue : (t -> unit) Wheel.t }

let create () = { clock = 0.; queue = Wheel.create () }
let now t = t.clock

let schedule_at t ~at f =
  if at < t.clock then invalid_arg "Des.schedule_at: event in the past";
  (* The wheel is stable, so equal-timestamp events fire in the order
     they were scheduled — no extra sequencing needed here. *)
  Wheel.push t.queue at f

let schedule t ~delay f =
  if delay < 0. then invalid_arg "Des.schedule: negative delay";
  schedule_at t ~at:(t.clock +. delay) f

(* Fire the next event without allocating an option pair. *)
let fire_min t =
  let q = t.queue in
  let at = Wheel.min_key q and f = Wheel.min_value q in
  Wheel.drop_min q;
  t.clock <- at;
  f t

let step t =
  if Wheel.is_empty t.queue then false
  else begin
    fire_min t;
    true
  end

let run ?until t =
  match until with
  | None -> while not (Wheel.is_empty t.queue) do fire_min t done
  | Some limit ->
      let continue = ref true in
      while !continue do
        if Wheel.is_empty t.queue then continue := false
        else if Wheel.min_key t.queue > limit then begin
          t.clock <- limit;
          continue := false
        end
        else fire_min t
      done

let pending t = Wheel.size t.queue
let sched_work t = Wheel.work t.queue
