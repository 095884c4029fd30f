type score = Hash.Sha256.t

type stats = {
  blocks_stored : int;
  bytes_stored : int;
  dedup_hits : int;
  lines_heated : int;
}

type t = {
  dev : Sero.Device.t;
  lay : Sero.Layout.t;
  eager_heat : bool;
  index : (string, int) Hashtbl.t; (* raw score -> pba *)
  mutable current_line : int;
  mutable used_in_line : int; (* data blocks consumed in current line *)
  mutable blocks_stored : int;
  mutable bytes_stored : int;
  mutable dedup_hits : int;
  mutable lines_heated : int;
}

let create ?(eager_heat = true) dev =
  {
    dev;
    lay = Sero.Device.layout dev;
    eager_heat;
    index = Hashtbl.create 256;
    current_line = 0;
    used_in_line = 0;
    blocks_stored = 0;
    bytes_stored = 0;
    dedup_hits = 0;
    lines_heated = 0;
  }

let device t = t.dev

let stats t =
  {
    blocks_stored = t.blocks_stored;
    bytes_stored = t.bytes_stored;
    dedup_hits = t.dedup_hits;
    lines_heated = t.lines_heated;
  }

let max_block = Codec.Sector.payload_bytes - 2 (* u16 length header *)
let data_per_line t = Sero.Layout.data_blocks_per_line t.lay

let ( let* ) = Result.bind

let heat_line t line =
  (* Pad unwritten data blocks so the device can hash the line. *)
  let pad pba =
    match Sero.Device.read_block t.dev ~pba with
    | Ok _ -> Ok ()
    | Error _ -> (
        match
          Sero.Device.write_block t.dev ~pba
            (String.make Codec.Sector.payload_bytes '\x00')
        with
        | Ok () -> Ok ()
        | Error e ->
            Error
              (Format.asprintf "venti: pad of %d refused: %a" pba
                 Sero.Device.pp_write_error e))
  in
  let* () =
    List.fold_left
      (fun acc pba ->
        let* () = acc in
        pad pba)
      (Ok ())
      (Sero.Layout.data_blocks_of_line t.lay line)
  in
  match Sero.Device.heat_line t.dev ~line () with
  | Ok _ ->
      t.lines_heated <- t.lines_heated + 1;
      Ok ()
  | Error Sero.Device.Already_heated -> Ok ()
  | Error e ->
      Error
        (Format.asprintf "venti: heat of line %d failed: %a" line
           Sero.Device.pp_heat_error e)

let rec alloc t =
  if t.current_line >= Sero.Layout.n_lines t.lay then Error "venti: arena full"
  else if Sero.Device.is_line_heated t.dev ~line:t.current_line then begin
    (* Resuming after reindex: the tail line may already be burned. *)
    t.current_line <- t.current_line + 1;
    t.used_in_line <- 0;
    alloc t
  end
  else if t.used_in_line >= data_per_line t then begin
    let* () = if t.eager_heat then heat_line t t.current_line else Ok () in
    t.current_line <- t.current_line + 1;
    t.used_in_line <- 0;
    alloc t
  end
  else begin
    let pba =
      List.nth
        (Sero.Layout.data_blocks_of_line t.lay t.current_line)
        t.used_in_line
    in
    t.used_in_line <- t.used_in_line + 1;
    Ok pba
  end

let frame content =
  let w = Codec.Binio.W.create ~capacity:(String.length content + 2) () in
  Codec.Binio.W.u16 w (String.length content);
  Codec.Binio.W.raw w content;
  Codec.Binio.W.contents w

let unframe payload =
  let r = Codec.Binio.R.of_string payload in
  match
    let len = Codec.Binio.R.u16 r in
    Codec.Binio.R.raw r len
  with
  | exception Codec.Binio.R.Truncated -> None
  | content -> Some content

let reindex dev =
  let t = create dev in
  let exception Stop in
  (try
     for line = 0 to Sero.Layout.n_lines t.lay - 1 do
       let blanks = ref 0 in
       List.iteri
         (fun i pba ->
           match Sero.Device.read_block dev ~pba with
           | Error _ -> incr blanks
           | Ok payload -> (
               match unframe payload with
               | None -> ()
               | Some "" -> () (* padding, or an empty block: not indexed *)
               | Some content ->
                   let score = Hash.Sha256.digest_string content in
                   Hashtbl.replace t.index (Hash.Sha256.to_raw score) pba;
                   t.blocks_stored <- t.blocks_stored + 1;
                   t.bytes_stored <- t.bytes_stored + String.length content;
                   t.current_line <- line;
                   t.used_in_line <- i + 1))
         (Sero.Layout.data_blocks_of_line t.lay line);
       (* A fully blank line ends the arena. *)
       if !blanks = Sero.Layout.data_blocks_per_line t.lay then raise Stop
     done
   with Stop -> ());
  Ok t

let put t content =
  if String.length content > max_block then
    Error
      (Printf.sprintf "venti: block of %d bytes exceeds %d"
         (String.length content) max_block)
  else begin
    let score = Hash.Sha256.digest_string content in
    let key = Hash.Sha256.to_raw score in
    match Hashtbl.find_opt t.index key with
    | Some _ ->
        t.dedup_hits <- t.dedup_hits + 1;
        Ok score
    | None -> (
        let* pba = alloc t in
        match Sero.Device.write_block t.dev ~pba (frame content) with
        | Error e ->
            Error (Format.asprintf "venti: write refused: %a" Sero.Device.pp_write_error e)
        | Ok () ->
            Hashtbl.replace t.index key pba;
            t.blocks_stored <- t.blocks_stored + 1;
            t.bytes_stored <- t.bytes_stored + String.length content;
            Ok score)
  end

let get t score =
  let key = Hash.Sha256.to_raw score in
  match Hashtbl.find_opt t.index key with
  | None -> Error "venti: unknown score"
  | Some pba -> (
      match Sero.Device.read_block t.dev ~pba with
      | Error e ->
          Error (Format.asprintf "venti: read failed: %a" Sero.Device.pp_read_error e)
      | Ok payload -> (
          match unframe payload with
          | None -> Error "venti: stored block does not unframe"
          | Some content ->
              if Hash.Sha256.equal (Hash.Sha256.digest_string content) score
              then Ok content
              else Error "venti: content does not match its score"))

let mem t score = Hashtbl.mem t.index (Hash.Sha256.to_raw score)

(* {1 Streams: hash trees} *)

let leaf_tag = 'L'
let node_tag = 'I'
let chunk_size = 480
let fanout = 14 (* 1 tag + 2 count + 14 * 32 = 451 bytes per node *)

let encode_leaf data = String.make 1 leaf_tag ^ data

let encode_node scores =
  let w = Codec.Binio.W.create () in
  Codec.Binio.W.u8 w (Char.code node_tag);
  Codec.Binio.W.u16 w (List.length scores);
  List.iter (fun s -> Codec.Binio.W.raw w (Hash.Sha256.to_raw s)) scores;
  Codec.Binio.W.contents w

let rec put_level t scores =
  match scores with
  | [ root ] -> Ok root
  | [] -> put t (encode_node [])
  | _ ->
      let rec batch acc current n = function
        | [] ->
            let acc = if current = [] then acc else List.rev current :: acc in
            List.rev acc
        | s :: rest ->
            if n = fanout then batch (List.rev current :: acc) [ s ] 1 rest
            else batch acc (s :: current) (n + 1) rest
      in
      let batches = batch [] [] 0 scores in
      let* parents =
        List.fold_left
          (fun acc b ->
            let* acc = acc in
            let* s = put t (encode_node b) in
            Ok (s :: acc))
          (Ok []) batches
      in
      put_level t (List.rev parents)

let put_stream t data =
  let n = String.length data in
  let n_chunks = max 1 ((n + chunk_size - 1) / chunk_size) in
  let* leaves =
    List.fold_left
      (fun acc i ->
        let* acc = acc in
        let off = i * chunk_size in
        let take = min chunk_size (n - off) in
        let* s = put t (encode_leaf (String.sub data off (max take 0))) in
        Ok (s :: acc))
      (Ok [])
      (List.init n_chunks (fun i -> i))
  in
  let leaves = List.rev leaves in
  match leaves with
  | [ single ] -> Ok single
  | _ -> put_level t leaves

let rec get_stream t score =
  let* content = get t score in
  if String.length content = 0 then Error "venti: empty node"
  else if content.[0] = leaf_tag then
    Ok (String.sub content 1 (String.length content - 1))
  else if content.[0] = node_tag then begin
    let r = Codec.Binio.R.of_string content in
    match
      let _tag = Codec.Binio.R.u8 r in
      let count = Codec.Binio.R.u16 r in
      let rec go k acc =
        if k = 0 then List.rev acc
        else go (k - 1) (Hash.Sha256.of_raw (Codec.Binio.R.raw r 32) :: acc)
      in
      go count []
    with
    | exception Codec.Binio.R.Truncated -> Error "venti: node truncated"
    | children ->
        let* parts =
          List.fold_left
            (fun acc c ->
              let* acc = acc in
              let* part = get_stream t c in
              Ok (part :: acc))
            (Ok []) children
        in
        Ok (String.concat "" (List.rev parts))
  end
  else Error "venti: unknown node tag"

(* {1 Snapshots} *)

type snapshot = { label : string; root : score; taken_at : float }

let encode_catalogue files =
  let w = Codec.Binio.W.create () in
  Codec.Binio.W.u32 w (List.length files);
  List.iter
    (fun (name, root) ->
      Codec.Binio.W.str w name;
      Codec.Binio.W.raw w (Hash.Sha256.to_raw root))
    files;
  Codec.Binio.W.contents w

let decode_catalogue s =
  let r = Codec.Binio.R.of_string s in
  match
    let n = Codec.Binio.R.u32 r in
    let rec go k acc =
      if k = 0 then List.rev acc
      else begin
        let name = Codec.Binio.R.str r in
        let root = Hash.Sha256.of_raw (Codec.Binio.R.raw r 32) in
        go (k - 1) ((name, root) :: acc)
      end
    in
    go n []
  with
  | exception Codec.Binio.R.Truncated -> None
  | v -> Some v

let line_of_score t score =
  Option.map
    (fun pba -> Sero.Layout.line_of_block t.lay pba)
    (Hashtbl.find_opt t.index (Hash.Sha256.to_raw score))

let snapshot t ~label files =
  let* catalogue =
    List.fold_left
      (fun acc (name, data) ->
        let* acc = acc in
        let* root = put_stream t data in
        Ok ((name, root) :: acc))
      (Ok []) files
  in
  let* root = put_stream t (encode_catalogue (List.rev catalogue)) in
  (* The root's line must be burned now, even if not yet full. *)
  let* () =
    match line_of_score t root with
    | Some line -> heat_line t line
    | None -> Ok ()
  in
  Ok { label; root; taken_at = Probe.Pdevice.elapsed (Sero.Device.pdevice t.dev) }

let restore t snap =
  let* cat_bytes = get_stream t snap.root in
  match decode_catalogue cat_bytes with
  | None -> Error "venti: snapshot catalogue corrupt"
  | Some entries ->
      List.fold_left
        (fun acc (name, root) ->
          let* acc = acc in
          let* data = get_stream t root in
          Ok ((name, data) :: acc))
        (Ok []) entries
      |> Result.map List.rev

(* Collect every line referenced by a tree. *)
let rec tree_lines t score acc =
  let acc =
    match line_of_score t score with Some l -> l :: acc | None -> acc
  in
  match get t score with
  | Error _ -> acc
  | Ok content ->
      if String.length content > 0 && content.[0] = node_tag then begin
        let r = Codec.Binio.R.of_string content in
        match
          let _ = Codec.Binio.R.u8 r in
          let count = Codec.Binio.R.u16 r in
          let rec go k acc =
            if k = 0 then acc
            else
              go (k - 1)
                (tree_lines t (Hash.Sha256.of_raw (Codec.Binio.R.raw r 32)) acc)
          in
          go count acc
        with
        | exception Codec.Binio.R.Truncated -> acc
        | acc -> acc
      end
      else acc

let verify_snapshot t snap =
  let* contents = restore t snap in
  ignore contents;
  let* cat_bytes = get_stream t snap.root in
  let lines =
    match decode_catalogue cat_bytes with
    | None -> []
    | Some entries ->
        List.sort_uniq compare
          (List.fold_left
             (fun acc (_, root) -> tree_lines t root acc)
             (tree_lines t snap.root []) entries)
  in
  let bad =
    List.filter_map
      (fun line ->
        match Sero.Device.verify_line t.dev ~line with
        | Sero.Tamper.Intact -> None
        | Sero.Tamper.Not_heated ->
            if t.eager_heat then Some (line, "not heated") else None
        | Sero.Tamper.Tampered evs ->
            Some
              ( line,
                Format.asprintf "%a" Sero.Tamper.pp_verdict
                  (Sero.Tamper.Tampered evs) ))
      lines
  in
  match bad with
  | [] -> Ok ()
  | (line, why) :: _ ->
      Error (Printf.sprintf "venti: line %d failed verification: %s" line why)
