type t = {
  timing : Timing.t;
  pitch : float;
  field_cols : int;
  mutable position : int;
  mutable travel : float;
}

let create timing ~pitch ~field_cols =
  if field_cols <= 0 then invalid_arg "Actuator.create: field_cols";
  { timing; pitch; field_cols; position = 0; travel = 0. }

(* Same geometry and kinematic state, charging into [timing] (the
   clone's private ledger). *)
let copy t timing = { t with timing }

let travel t = t.travel

let xy_of_offset t off =
  let row = off / t.field_cols and i = off mod t.field_cols in
  let col = if row land 1 = 0 then i else t.field_cols - 1 - i in
  (col, row)

let seek t offset =
  if offset < 0 then invalid_arg "Actuator.seek: negative offset";
  if offset = t.position then ()
  else if offset = t.position + 1 then begin
    (* Continuous scan: the next dot in the serpentine path is reached
       within the bit time the caller charges; only wear accrues. *)
    t.travel <- t.travel +. t.pitch;
    t.position <- offset
  end
  else begin
    let x0, y0 = xy_of_offset t t.position and x1, y1 = xy_of_offset t offset in
    let dx = float_of_int (x1 - x0) *. t.pitch
    and dy = float_of_int (y1 - y0) *. t.pitch in
    let dist = sqrt ((dx *. dx) +. (dy *. dy)) in
    Timing.charge_seek t.timing ~distance:dist;
    t.travel <- t.travel +. dist;
    t.position <- offset
  end

(* [seek first] then the remaining consecutive offsets up to [last],
   each a continuous scan step (travel +. pitch).  The pitch additions
   accumulate in an unboxed local and store once, in the same order a
   per-offset seek loop would make them, so the travel figure is
   bit-identical — only the per-step boxing of the mutable float field
   is gone. *)
let scan_run t ~first ~last =
  seek t first;
  if last > first then begin
    let tr = ref t.travel in
    for _ = first + 1 to last do
      tr := !tr +. t.pitch
    done;
    t.travel <- !tr;
    t.position <- last
  end
