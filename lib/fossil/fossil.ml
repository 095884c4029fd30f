let max_value = 128
let block_magic = 0x464E (* "FN" *)

type node = {
  line : int;
  level : int;
  path : string; (* branch bytes from the root, one per level *)
  mutable entries : (string * string) list; (* (raw key hash, value), reversed *)
  mutable sealed : bool;
}

type t = {
  dev : Sero.Device.t;
  lay : Sero.Layout.t;
  branching : int;
  nodes : (string, node) Hashtbl.t; (* path -> node *)
  mutable next_line : int;
}

let create ?(branching = 16) dev =
  if branching < 2 || branching > 256 then
    invalid_arg "Fossil.create: branching must be in 2..256";
  {
    dev;
    lay = Sero.Device.layout dev;
    branching;
    nodes = Hashtbl.create 64;
    next_line = 0;
  }

let device t = t.dev

(* {1 Node block encoding}

   Every block of a node is independently decodable:
   magic, level, path, entry count, then (key hash, value) pairs. *)

let encode_block ~level ~path entries =
  let w = Codec.Binio.W.create () in
  Codec.Binio.W.u16 w block_magic;
  Codec.Binio.W.u8 w level;
  Codec.Binio.W.str w path;
  Codec.Binio.W.u16 w (List.length entries);
  List.iter
    (fun (kh, v) ->
      Codec.Binio.W.raw w kh;
      Codec.Binio.W.str w v)
    entries;
  Codec.Binio.W.contents w

let decode_block payload =
  let r = Codec.Binio.R.of_string payload in
  match
    let magic = Codec.Binio.R.u16 r in
    if magic <> block_magic then None
    else begin
      let level = Codec.Binio.R.u8 r in
      let path = Codec.Binio.R.str r in
      let count = Codec.Binio.R.u16 r in
      let rec go k acc =
        if k = 0 then List.rev acc
        else begin
          let kh = Codec.Binio.R.raw r 32 in
          let v = Codec.Binio.R.str r in
          go (k - 1) ((kh, v) :: acc)
        end
      in
      Some (level, path, go count [])
    end
  with
  | exception Codec.Binio.R.Truncated -> None
  | v -> v

let block_fits ~level ~path entries =
  String.length (encode_block ~level ~path entries)
  <= Codec.Sector.payload_bytes

(* Pack entries (insertion order) into block payload lists. *)
let pack_blocks ~level ~path entries =
  let blocks = ref [] and current = ref [] in
  let flush () =
    if !current <> [] || !blocks = [] then begin
      blocks := List.rev !current :: !blocks;
      current := []
    end
  in
  List.iter
    (fun e ->
      if block_fits ~level ~path (List.rev (e :: !current)) then
        current := e :: !current
      else begin
        flush ();
        current := [ e ]
      end)
    entries;
  flush ();
  List.rev !blocks

let node_capacity_ok t ~level ~path entries =
  List.length (pack_blocks ~level ~path entries)
  <= Sero.Layout.data_blocks_per_line t.lay

let write_node t node =
  let pbas = Sero.Layout.data_blocks_of_line t.lay node.line in
  let blocks =
    pack_blocks ~level:node.level ~path:node.path (List.rev node.entries)
  in
  List.iteri
    (fun i entry_block ->
      let pba = List.nth pbas i in
      match
        Sero.Device.write_block t.dev ~pba
          (encode_block ~level:node.level ~path:node.path entry_block)
      with
      | Ok () -> ()
      | Error e ->
          failwith
            (Format.asprintf "fossil: write refused: %a"
               Sero.Device.pp_write_error e))
    blocks

let seal_node t node =
  (* Pad untouched blocks, then heat the node's line in place. *)
  let blocks =
    pack_blocks ~level:node.level ~path:node.path (List.rev node.entries)
  in
  let used = List.length blocks in
  let pbas = Sero.Layout.data_blocks_of_line t.lay node.line in
  List.iteri
    (fun i pba ->
      if i >= used then
        match
          Sero.Device.write_block t.dev ~pba
            (String.make Codec.Sector.payload_bytes '\x00')
        with
        | Ok () -> ()
        | Error e ->
            failwith
              (Format.asprintf "fossil: pad refused: %a"
                 Sero.Device.pp_write_error e))
    pbas;
  (match Sero.Device.heat_line t.dev ~line:node.line () with
  | Ok _ -> ()
  | Error e ->
      failwith
        (Format.asprintf "fossil: seal of line %d failed: %a" node.line
           Sero.Device.pp_heat_error e));
  node.sealed <- true

let new_node t ~level ~path =
  if t.next_line >= Sero.Layout.n_lines t.lay then
    failwith "fossil: device full";
  let node = { line = t.next_line; level; path; entries = []; sealed = false } in
  t.next_line <- t.next_line + 1;
  Hashtbl.replace t.nodes path node;
  node

let branch_byte t kh level = Char.chr (Char.code kh.[level] mod t.branching)

let path_for t kh level = String.init level (fun l -> branch_byte t kh l)

let ( let* ) = Result.bind

let insert t ~key ~value =
  if String.length value > max_value then
    Error (Printf.sprintf "fossil: value exceeds %d bytes" max_value)
  else begin
    let kh = Hash.Sha256.to_raw (Hash.Sha256.digest_string key) in
    let rec descend level =
      if level >= 32 then Error "fossil: tree exhausted (32 levels)"
      else begin
        let path = path_for t kh level in
        let node =
          match Hashtbl.find_opt t.nodes path with
          | Some n -> n
          | None -> new_node t ~level ~path
        in
        if node.sealed then descend (level + 1)
        else begin
          let candidate = (kh, value) :: node.entries in
          if node_capacity_ok t ~level ~path (List.rev candidate) then begin
            node.entries <- candidate;
            write_node t node;
            (* Seal when no further entry of the smallest size fits. *)
            let probe = (String.make 32 '\x00', "") :: candidate in
            if not (node_capacity_ok t ~level ~path (List.rev probe)) then
              seal_node t node;
            Ok ()
          end
          else begin
            (* This entry itself does not fit: seal and push down. *)
            seal_node t node;
            descend (level + 1)
          end
        end
      end
    in
    descend 0
  end

let find t ~key =
  let kh = Hash.Sha256.to_raw (Hash.Sha256.digest_string key) in
  let rec walk level acc =
    if level >= 32 then Ok (List.rev acc)
    else
      match Hashtbl.find_opt t.nodes (path_for t kh level) with
      | None -> Ok (List.rev acc)
      | Some node ->
          let matches =
            List.filter_map
              (fun (h, v) -> if String.equal h kh then Some v else None)
              (List.rev node.entries)
          in
          if node.sealed then walk (level + 1) (List.rev_append matches acc)
          else Ok (List.rev acc @ matches)
  in
  walk 0 []

let verify t =
  Hashtbl.fold
    (fun _ node acc ->
      if node.sealed then
        (node.line, Sero.Device.verify_line t.dev ~line:node.line) :: acc
      else acc)
    t.nodes []
  |> List.sort compare

type stats = { nodes : int; sealed_nodes : int; entries : int; depth : int }

let stats (t : t) =
  Hashtbl.fold
    (fun _ node acc ->
      {
        nodes = acc.nodes + 1;
        sealed_nodes = (acc.sealed_nodes + if node.sealed then 1 else 0);
        entries = acc.entries + List.length node.entries;
        depth = max acc.depth node.level;
      })
    t.nodes
    { nodes = 0; sealed_nodes = 0; entries = 0; depth = 0 }

let reload dev =
  let t = create dev in
  let lay = t.lay in
  let* () = Ok () in
  let rec scan_line line =
    if line >= Sero.Layout.n_lines lay then Ok ()
    else begin
      let pbas = Sero.Layout.data_blocks_of_line lay line in
      let first = List.hd pbas in
      match Sero.Device.read_block dev ~pba:first with
      | Error _ -> Ok () (* first unreadable/blank line ends the arena *)
      | Ok payload -> (
          match decode_block payload with
          | None -> Ok () (* not a fossil node: end of arena *)
          | Some (level, path, _) ->
              let entries = ref [] in
              List.iter
                (fun pba ->
                  match Sero.Device.read_block dev ~pba with
                  | Error _ -> ()
                  | Ok p -> (
                      match decode_block p with
                      | Some (_, p', es) when String.equal p' path ->
                          entries := !entries @ es
                      | Some _ | None -> ()))
                pbas;
              let sealed = Sero.Device.is_line_heated dev ~line in
              let node =
                { line; level; path; entries = List.rev !entries; sealed }
              in
              Hashtbl.replace t.nodes path node;
              t.next_line <- line + 1;
              scan_line (line + 1))
    end
  in
  let* () = scan_line 0 in
  Ok t
