type t = {
  slots : int;
  replication : int;
  member_lines : int;
  blocks_per_line : int;
}

let create ~slots ~replication ~member_lines ~blocks_per_line =
  if slots < 1 then invalid_arg "Amap.create: slots < 1";
  if replication < 1 || replication > slots then
    invalid_arg "Amap.create: replication must be in [1, slots]";
  if slots mod replication <> 0 then
    invalid_arg "Amap.create: replication must divide slots";
  if member_lines < 1 then invalid_arg "Amap.create: member_lines < 1";
  if blocks_per_line < 2 then invalid_arg "Amap.create: blocks_per_line < 2";
  { slots; replication; member_lines; blocks_per_line }

let groups t = t.slots / t.replication
let logical_lines t = groups t * t.member_lines
let data_blocks_per_line t = t.blocks_per_line - 1
let n_blocks t = logical_lines t * data_blocks_per_line t

let check_line t v =
  if v < 0 || v >= logical_lines t then
    invalid_arg (Printf.sprintf "Amap: volume line %d out of range" v)

let group_of_line t v =
  check_line t v;
  v mod groups t

let local_line t v =
  check_line t v;
  v / groups t

let slots_of_line t v =
  let g = group_of_line t v in
  List.init t.replication (fun i -> (g * t.replication) + i)

let preferred_slot t v =
  let g = group_of_line t v in
  (g * t.replication) + (local_line t v mod t.replication)

let read_order t v =
  let g = group_of_line t v in
  let rot = local_line t v mod t.replication in
  List.init t.replication (fun i ->
      (g * t.replication) + ((rot + i) mod t.replication))

let line_of_local t ~slot ~local =
  if slot < 0 || slot >= t.slots then invalid_arg "Amap.line_of_local: slot";
  if local < 0 || local >= t.member_lines then
    invalid_arg "Amap.line_of_local: local";
  (local * groups t) + (slot / t.replication)

let check_vba t vba =
  if vba < 0 || vba >= n_blocks t then
    invalid_arg (Printf.sprintf "Amap: vba %d out of range" vba)

let line_of_vba t vba =
  check_vba t vba;
  vba / data_blocks_per_line t

let offset_of_vba t vba =
  check_vba t vba;
  vba mod data_blocks_per_line t

let vba_of t ~line ~offset =
  check_line t line;
  if offset < 0 || offset >= data_blocks_per_line t then
    invalid_arg "Amap.vba_of: offset";
  (line * data_blocks_per_line t) + offset

let member_pba t ~vba =
  (* Slot 0 of every line is the burned hash block. *)
  (local_line t (line_of_vba t vba) * t.blocks_per_line)
  + 1
  + offset_of_vba t vba
