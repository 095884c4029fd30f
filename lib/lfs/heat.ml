type strategy = Auto | Always_relocate | Never_relocate

type result_ok = {
  lines : int list;
  relocated_blocks : int;
  collateral_frozen : int;
}

let sort_uniq = List.sort_uniq compare

let line_of st pba = Sero.Layout.line_of_block st.State.lay pba

let file_lines st ~ino =
  sort_uniq (List.map (line_of st) (File.all_block_pbas st ino))

let is_file_heated st ~ino =
  match file_lines st ~ino with
  | [] -> false
  | lines -> List.for_all (fun l -> Sero.Device.is_line_heated st.State.dev ~line:l) lines

let verify_file st ~ino =
  List.map
    (fun line -> (line, Sero.Device.verify_line st.State.dev ~line))
    (file_lines st ~ino)

let seg_of_line (st : State.t) line = line / st.State.policy.State.segment_lines
let dpl st = Sero.Layout.data_blocks_per_line st.State.lay

(* Slot range of a line within its segment's owner table. *)
let slots_of_line st line =
  let base = line mod st.State.policy.State.segment_lines * dpl st in
  List.init (dpl st) (fun i -> base + i)

let owner_ino = function
  | Enc.Data_of { o_ino; _ } | Enc.Indirect_of { o_ino; _ } -> Some o_ino
  | Enc.Inode_of ino -> Some ino
  | Enc.Summary_block | Enc.Unused -> None

(* Live blocks inside [lines] belonging to inos other than [ino].
   Summary blocks are infrastructure and not counted. *)
let foreign_live_blocks st ~ino lines =
  List.concat_map
    (fun line ->
      let seg = seg_of_line st line in
      let owners = State.segment_owners st seg in
      List.filter_map
        (fun slot ->
          let owner = owners.(slot) in
          match owner_ino owner with
          | Some o when o <> ino ->
              let pba = State.pba_of_slot st ~seg ~slot in
              if Cleaner.is_live st ~pba owner then Some pba else None
          | Some _ | None -> None)
        (slots_of_line st line))
    lines

(* Make every block of [line] magnetically readable: blank slots get a
   zero payload so the device can hash the line. *)
let pad_line st line =
  let seg = seg_of_line st line in
  List.iter
    (fun slot ->
      let pba = State.pba_of_slot st ~seg ~slot in
      match State.read_payload_opt st ~pba with
      | Some _ -> ()
      | None ->
          State.write_existing st ~pba
            (String.make Codec.Sector.payload_bytes '\x00'))
    (slots_of_line st line)

(* Close (summary) any open segment among [segs], then return unit;
   heated segments can never be allocated again. *)
let close_segments_for_heat st segs =
  List.iter
    (fun seg ->
      let s = st.State.segs.(seg) in
      if Enc.equal_seg_state s.State.state Enc.Seg_open then begin
        State.close_segment st seg;
        (* Drop any group-head reference to it. *)
        let stale =
          Hashtbl.fold
            (fun key v acc -> if v = seg then key :: acc else acc)
            st.State.open_segs []
        in
        List.iter (Hashtbl.remove st.State.open_segs) stale
      end)
    segs

let burn_lines st lines =
  List.iter
    (fun line ->
      pad_line st line;
      match
        Sero.Blockio.heat st.State.io ~line ~timestamp:(State.now st)
      with
      | Ok _ -> st.State.metrics.State.heats <- st.State.metrics.State.heats + 1
      | Error e ->
          raise
            (State.Fs_error
               (Format.asprintf "heat of line %d failed: %a" line
                  Sero.Device.pp_heat_error e)))
    lines;
  List.iter
    (fun seg -> State.mark_segment_heated st seg)
    (sort_uniq (List.map (seg_of_line st) lines))

let heat_in_place st ~ino ~collateral =
  File.flush_inode st ino;
  let lines = file_lines st ~ino in
  close_segments_for_heat st (sort_uniq (List.map (seg_of_line st) lines));
  burn_lines st lines;
  st.State.metrics.State.collateral_frozen <-
    st.State.metrics.State.collateral_frozen + collateral;
  { lines; relocated_blocks = 0; collateral_frozen = collateral }

let heat_with_relocation st ~ino =
  let inode = State.load_inode st ino in
  let group = inode.Enc.heat_group in
  (* Relocation claims whole private segments up front; make sure the
     cleaner keeps its own working reserve or it can never copy anything
     out later (the classic LFS bootstrap deadlock). *)
  let needed =
    let blocks = List.length (File.all_block_pbas st ino) + 3 in
    (blocks * 6 / 5 / (st.State.usable_per_seg - 1))
    + 1 + st.State.policy.State.cleaner_low
  in
  let continue = ref true and budget = ref 16 in
  while !continue && !budget > 0 && State.free_segments st < needed do
    decr budget;
    match Cleaner.select_victim st with
    | None -> continue := false
    | Some seg -> ignore (Cleaner.clean_segment st seg)
  done;
  (* Private segments, claimed on demand; every allocated PBA is
     recorded so the heated line set falls out at the end. *)
  let current_seg = ref (State.alloc_private_segment st ~group) in
  let used_segs = ref [ !current_seg ] in
  let allocated = ref [] in
  let copies = ref 0 in
  let rec alloc ~owner payload =
    match State.alloc_block_in st ~seg:!current_seg ~owner payload with
    | pba ->
        allocated := pba :: !allocated;
        incr copies;
        pba
    | exception State.Out_of_space ->
        current_seg := State.alloc_private_segment st ~group;
        used_segs := !current_seg :: !used_segs;
        alloc ~owner payload
  in
  (* Data blocks first, in file order, so the layout matches Figure 3:
     a run of whole lines of related data. *)
  let ptrs = File.pointers st ino in
  Array.iteri
    (fun bi old_pba ->
      if old_pba <> 0 then begin
        let payload = State.read_payload st ~pba:old_pba in
        let pba = alloc ~owner:(Enc.Data_of { o_ino = ino; block_index = bi }) payload in
        File.set_pointer st ino bi pba;
        State.free_block st ~pba:old_pba
      end)
    ptrs;
  (* Metadata into the same private run. *)
  File.flush_inode_with st ino ~alloc;
  (* Pad the final line so heating covers only written blocks. *)
  let seg = !current_seg in
  let line_slots = dpl st in
  while State.seg_cursor st seg mod line_slots <> 0 do
    State.skip_pad_block st ~seg
  done;
  let lines = sort_uniq (List.map (line_of st) !allocated) in
  close_segments_for_heat st (sort_uniq !used_segs);
  burn_lines st lines;
  st.State.metrics.State.heat_relocations <-
    st.State.metrics.State.heat_relocations + !copies;
  { lines; relocated_blocks = !copies; collateral_frozen = 0 }

let heat_file st ~ino ~strategy =
  (match file_lines st ~ino with
  | [] -> raise (State.Fs_error "cannot heat an empty file")
  | lines ->
      if
        List.exists
          (fun l -> Sero.Device.is_line_heated st.State.dev ~line:l)
          lines
      then raise (State.Fs_error "file already lies in heated lines"));
  (* Flush first so metadata blocks exist and the line set is final. *)
  File.flush_inode st ino;
  let lines = file_lines st ~ino in
  let foreign = foreign_live_blocks st ~ino lines in
  match strategy with
  | Never_relocate -> heat_in_place st ~ino ~collateral:(List.length foreign)
  | Always_relocate -> heat_with_relocation st ~ino
  | Auto ->
      if foreign = [] then heat_in_place st ~ino ~collateral:0
      else heat_with_relocation st ~ino
