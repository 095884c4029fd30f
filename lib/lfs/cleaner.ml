let rec is_live st ~pba owner =
  match owner with
  | Enc.Unused | Enc.Summary_block -> false
  | Enc.Data_of { o_ino; block_index } -> (
      match State.inode_pba st o_ino with
      | None -> Sim.Lru.mem st.State.icache o_ino && check_ptr st o_ino block_index pba
      | Some _ -> check_ptr st o_ino block_index pba)
  | Enc.Inode_of ino -> State.inode_pba st ino = Some pba
  | Enc.Indirect_of { o_ino; slot } -> (
      match
        (try Some (State.load_inode st o_ino) with State.Fs_error _ -> None)
      with
      | None -> false
      | Some inode -> (
          if slot = -1 then inode.Enc.single_ind = pba
          else if slot = -2 then inode.Enc.double_ind = pba
          else if inode.Enc.double_ind = 0 then false
          else
            match
              Enc.decode_pointer_block
                (State.read_payload st ~pba:inode.Enc.double_ind)
            with
            | Some root -> slot < Array.length root && root.(slot) = pba
            | None -> false))

and check_ptr st ino block_index pba =
  match (try Some (File.pointers st ino) with State.Fs_error _ -> None) with
  | None -> false
  | Some ptrs -> block_index < Array.length ptrs && ptrs.(block_index) = pba

let segment_utilisation (st : State.t) seg =
  float_of_int st.State.segs.(seg).State.live /. float_of_int st.State.usable_per_seg

let cleanable (st : State.t) seg =
  seg >= State.first_data_segment st
  && Enc.equal_seg_state st.State.segs.(seg).State.state Enc.Seg_closed

let select_victim st =
  let best = ref None in
  for seg = State.first_data_segment st to st.State.n_segs - 1 do
    (* A fully live segment reclaims nothing: copying it would consume
       as much space as it frees (and can live-lock the watermark
       loop), so it is never a victim. *)
    if cleanable st seg && st.State.segs.(seg).State.live < st.State.usable_per_seg
    then begin
      let s = st.State.segs.(seg) in
      let u = segment_utilisation st seg in
      let age = float_of_int (max 1 (st.State.seq - s.State.age + 1)) in
      let score =
        if s.State.live = 0 then infinity else (1. -. u) *. age /. (1. +. u)
      in
      match !best with
      | Some (_, best_score) when best_score >= score -> ()
      | _ -> best := Some (seg, score)
    end
  done;
  Option.map fst !best

let clean_segment st seg =
  let owners = State.segment_owners st seg in
  (* Take the victim out of circulation for the duration: while copies
     and inode flushes run, [free_block] may momentarily drop its live
     count to zero, and the auto-free transition would hand the segment
     straight back to the allocator mid-clean. *)
  st.State.segs.(seg).State.state <- Enc.Seg_open;
  let touched = Hashtbl.create 8 in
  let copies = ref 0 in
  Array.iteri
    (fun slot owner ->
      let pba = State.pba_of_slot st ~seg ~slot in
      match owner with
      | Enc.Unused | Enc.Summary_block -> ()
      | Enc.Data_of { o_ino; block_index } ->
          if is_live st ~pba owner then begin
            let payload = State.read_payload st ~pba in
            let inode = State.load_inode st o_ino in
            let new_pba =
              State.alloc_block st ~group:inode.Enc.heat_group
                ~owner:(Enc.Data_of { o_ino; block_index })
                payload
            in
            State.mark_dirty st o_ino;
            File.set_pointer st o_ino block_index new_pba;
            State.free_block st ~pba;
            Hashtbl.replace touched o_ino ();
            incr copies
          end
      | Enc.Inode_of ino | Enc.Indirect_of { o_ino = ino; _ } ->
          (* Metadata moves by re-flushing the inode, which rewrites the
             whole tree at the current log head and frees this block. *)
          if is_live st ~pba owner then begin
            State.mark_dirty st ino;
            Hashtbl.replace touched ino ();
            incr copies
          end)
    owners;
  let must_move pba = State.seg_of_pba st pba = seg in
  Hashtbl.iter
    (fun ino () ->
      State.mark_dirty st ino;
      File.flush_inode_with ~must_move st ino ~alloc:(fun ~owner payload ->
          State.alloc_block st
            ~group:(State.load_inode st ino).Enc.heat_group
            ~owner payload);
      Hashtbl.remove st.State.dirty ino)
    touched;
  let s = st.State.segs.(seg) in
  (* Everything live has been copied out; any residue is accounting
     drift, which would now be a bug. *)
  if s.State.live > 0 then begin
    (match Sys.getenv_opt "LFS_CLEAN_DEBUG" with
    | Some _ ->
        Array.iteri
          (fun slot owner ->
            let pba = State.pba_of_slot st ~seg ~slot in
            match owner with
            | Enc.Unused | Enc.Summary_block -> ()
            | Enc.Data_of { o_ino; block_index } ->
                Printf.eprintf "residual slot %d pba %d: data ino=%d bi=%d live=%b\n%!"
                  slot pba o_ino block_index (is_live st ~pba owner)
            | Enc.Inode_of ino ->
                Printf.eprintf "residual slot %d pba %d: inode ino=%d live=%b imap=%s\n%!"
                  slot pba ino (is_live st ~pba owner)
                  (match State.inode_pba st ino with Some p -> string_of_int p | None -> "-")
            | Enc.Indirect_of { o_ino; slot = k } ->
                Printf.eprintf "residual slot %d pba %d: indirect ino=%d k=%d live=%b\n%!"
                  slot pba o_ino k (is_live st ~pba owner))
          s.State.owners
    | None -> ());
    raise (State.Fs_error (Printf.sprintf "segment %d still live after clean" seg))
  end;
  s.State.state <- Enc.Seg_free;
  st.State.metrics.State.cleaner_copies <-
    st.State.metrics.State.cleaner_copies + !copies;
  st.State.metrics.State.segments_cleaned <-
    st.State.metrics.State.segments_cleaned + 1;
  !copies

(* Cleaning is background work: with a request pipeline attached, its
   copies are tagged [Background] so they only occupy the sled when no
   foreground request is waiting (and show up in the queue's
   background-class ledger). *)
let as_background st f =
  let saved = State.io_prio st in
  State.set_io_prio st Sero.Queue.Background;
  Fun.protect ~finally:(fun () -> State.set_io_prio st saved) f

(* The watermarks: clean when fewer than [low_water] segments are free,
   until [high_water] are. *)
let low_water = 3
let high_water = 6

let maybe_clean st =
  as_background st @@ fun () ->
  if State.free_segments st < low_water then begin
    let continue = ref true in
    (* Every victim has dead blocks (fully live segments are never
       selected), so each pass makes fractional progress.  Work per
       invocation is still bounded: on a nearly full device each clean
       reclaims almost nothing, and foreground writes should not stall
       behind an unbounded compaction — any remaining shortfall simply
       resurfaces at the next write. *)
    let budget = ref (high_water + 2) in
    while !continue && !budget > 0 && State.free_segments st < high_water do
      decr budget;
      match select_victim st with
      | None -> continue := false
      | Some seg -> ignore (clean_segment st seg)
    done
  end
