(* EWMA smoothing factor of the per-line error level. *)
let alpha = 0.4

(* 24 RS parity symbols per 231-byte slice correct 12 symbols each; a
   sector interleaves 3 slices, so 36 corrected symbols is the point
   past which one more grown error loses the sector. *)
let rs_budget = 36

type line_health = {
  mutable ewma_corrected : float;
  mutable reads : int;
  mutable retries : int;
  mutable retry_wins : int;
  mutable unreadable : int;
  mutable defect_dots : int;
}

type t = {
  lines : line_health array;
  mutable tip_remaps : int;
}

let fresh_line () =
  {
    ewma_corrected = 0.;
    reads = 0;
    retries = 0;
    retry_wins = 0;
    unreadable = 0;
    defect_dots = 0;
  }

let create ~n_lines =
  if n_lines <= 0 then invalid_arg "Health.create: n_lines must be positive";
  { lines = Array.init n_lines (fun _ -> fresh_line ()); tip_remaps = 0 }

let copy t =
  {
    lines =
      Array.map
        (fun h ->
          {
            ewma_corrected = h.ewma_corrected;
            reads = h.reads;
            retries = h.retries;
            retry_wins = h.retry_wins;
            unreadable = h.unreadable;
            defect_dots = h.defect_dots;
          })
        t.lines;
    tip_remaps = t.tip_remaps;
  }

let line t ~line =
  if line < 0 || line >= Array.length t.lines then
    invalid_arg "Health.line: line out of range";
  t.lines.(line)

let bump t ~line x =
  let h = t.lines.(line) in
  h.ewma_corrected <-
    (alpha *. x) +. ((1. -. alpha) *. h.ewma_corrected)

let note_decode t ~line ~corrected =
  let h = t.lines.(line) in
  h.reads <- h.reads + 1;
  bump t ~line (float_of_int corrected)

(* An undecodable sector is a worst-case sample: the grown error count
   is at least the whole budget. *)
let note_unreadable t ~line =
  let h = t.lines.(line) in
  h.reads <- h.reads + 1;
  h.unreadable <- h.unreadable + 1;
  bump t ~line (float_of_int rs_budget)

let note_retry t ~line ~won =
  let h = t.lines.(line) in
  h.retries <- h.retries + 1;
  if won then h.retry_wins <- h.retry_wins + 1

let note_tip_remap t = t.tip_remaps <- t.tip_remaps + 1
let tip_remaps t = t.tip_remaps
let set_defects t ~line n = (t.lines.(line)).defect_dots <- n

(* A manufacturing defect dot corrupts at most one bit, hence at most
   one RS symbol; counting each as a permanently at-risk symbol is the
   conservative worst case (all of a line's defects landing in one
   sector). *)
let margin t ~line =
  let h = t.lines.(line) in
  let at_risk = h.ewma_corrected +. float_of_int h.defect_dots in
  1. -. (at_risk /. float_of_int rs_budget)

let reset_line t ~line ~defect_dots =
  let h = t.lines.(line) in
  h.ewma_corrected <- 0.;
  h.reads <- 0;
  h.retries <- 0;
  h.retry_wins <- 0;
  h.unreadable <- 0;
  h.defect_dots <- defect_dots

(* The weakest line of [0, limit): the retirement scheduler's pick. *)
let weakest ?limit t =
  let limit =
    match limit with None -> Array.length t.lines | Some l -> l
  in
  let best = ref None in
  for l = 0 to min limit (Array.length t.lines) - 1 do
    let m = margin t ~line:l in
    match !best with
    | Some (_, bm) when bm <= m -> ()
    | _ -> best := Some (l, m)
  done;
  !best

let lines_at_or_below ?limit t threshold =
  let limit =
    match limit with None -> Array.length t.lines | Some l -> l
  in
  let acc = ref [] in
  for l = min limit (Array.length t.lines) - 1 downto 0 do
    if margin t ~line:l <= threshold then acc := l :: !acc
  done;
  !acc

let restore_line t ~line ~ewma ~reads ~retries ~retry_wins ~unreadable
    ~defect_dots =
  let h = t.lines.(line) in
  h.ewma_corrected <- ewma;
  h.reads <- reads;
  h.retries <- retries;
  h.retry_wins <- retry_wins;
  h.unreadable <- unreadable;
  h.defect_dots <- defect_dots

let set_tip_remaps t n = t.tip_remaps <- n
