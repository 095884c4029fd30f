type cell = Zero | One | Blank | Tampered

let encoded_length n_bytes = 16 * n_bytes

let encode payload =
  let n = String.length payload in
  let dots = Array.make (16 * n) false in
  for byte = 0 to n - 1 do
    let v = Char.code payload.[byte] in
    for bit = 0 to 7 do
      let logical = (v lsr (7 - bit)) land 1 in
      let cell = (byte * 8) + bit in
      (* 0 -> HU: heat the first dot; 1 -> UH: heat the second. *)
      if logical = 0 then dots.(2 * cell) <- true
      else dots.((2 * cell) + 1) <- true
    done
  done;
  dots

type decoded = { payload : string; blank : int; tampered : int }

(* Counts, not cell lists: an unburned area has 2048 blank cells, and
   every caller only needs how many (the device re-derives which ones
   from its dot buffer when it must re-probe them). *)
let decode ~heated ~n_bytes =
  let out = Bytes.make n_bytes '\x00' in
  let blank = ref 0 and tampered = ref 0 in
  for byte = 0 to n_bytes - 1 do
    let v = ref 0 in
    for bit = 0 to 7 do
      let cell = (byte * 8) + bit in
      let a = heated (2 * cell) and b = heated ((2 * cell) + 1) in
      if a then (if b then incr tampered (* HH *))
      else if b then v := !v lor (1 lsl (7 - bit)) (* UH = 1 *)
      else incr blank (* UU *)
    done;
    Bytes.set out byte (Char.chr !v)
  done;
  { payload = Bytes.unsafe_to_string out; blank = !blank; tampered = !tampered }

let is_clean r = r.tampered = 0 && r.blank = 0

let max_adjacent_heated dots =
  let best = ref 0 and run = ref 0 in
  Array.iter
    (fun h ->
      if h then begin
        incr run;
        if !run > !best then best := !run
      end
      else run := 0)
    dots;
  !best
