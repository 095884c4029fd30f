let magic = "SEROARR1"

let state_string = function
  | Volume.Active -> "active"
  | Volume.Lost -> "lost"
  | Volume.Quarantined_member -> "quarantined"

let state_of_string = function
  | "active" -> Volume.Active
  | "lost" -> Volume.Lost
  | "quarantined" -> Volume.Quarantined_member
  | s -> failwith (Printf.sprintf "unknown member state %S" s)

let trust_status_string = function
  | Trust.Trusted -> "trusted"
  | Trust.Suspect -> "suspect"
  | Trust.Quarantined -> "quarantined"

let trust_status_of_string = function
  | "trusted" -> Trust.Trusted
  | "suspect" -> Trust.Suspect
  | "quarantined" -> Trust.Quarantined
  | s -> failwith (Printf.sprintf "unknown trust status %S" s)

let member_file path i = Printf.sprintf "%s.d%d" path i

let save v path =
  let cfg = Volume.cfg v in
  let n = Volume.n_devices v in
  let oc = open_out path in
  let pr fmt = Printf.fprintf oc fmt in
  pr "%s\n" magic;
  pr "slots %d\n" cfg.Volume.slots;
  pr "replication %d\n" cfg.Volume.replication;
  pr "spares %d\n" cfg.Volume.spares;
  pr "member_blocks %d\n" cfg.Volume.member_blocks;
  pr "line_exp %d\n" cfg.Volume.line_exp;
  pr "seed %d\n" cfg.Volume.seed;
  (match cfg.Volume.cache_capacity with
  | Some c -> pr "cache %d\n" c
  | None -> pr "cache none\n");
  pr "devices %d\n" n;
  pr "slot_dev";
  Array.iter (fun d -> pr " %d" d)
    (Array.init cfg.Volume.slots (fun s -> Volume.dev_of_slot v ~slot:s));
  pr "\n";
  pr "spare_pool";
  List.iter (fun d -> pr " %d" d) (Volume.spare_pool v);
  pr "\n";
  Array.iteri (fun i s -> pr "state %d %s\n" i (state_string s))
    (Volume.member_states v);
  for i = 0 to n - 1 do
    let e = Trust.entry (Volume.trust v) ~dev:i in
    pr "trust %d %s %d %d %d %d %d\n" i
      (trust_status_string e.Trust.status)
      e.Trust.votes e.Trust.agreements e.Trust.divergences e.Trust.convictions
      e.Trust.unreadable
  done;
  close_out oc;
  for i = 0 to n - 1 do
    Sero.Image.save (Volume.device v ~dev:i) (member_file path i)
  done

let load path =
  try
    let ic = open_in path in
    let lines = ref [] in
    (try
       while true do
         lines := input_line ic :: !lines
       done
     with End_of_file -> close_in ic);
    let lines = List.rev !lines in
    (match lines with
    | m :: _ when m = magic -> ()
    | _ -> failwith "not a SEROARR1 manifest");
    let fields = Hashtbl.create 16 in
    let slot_dev = ref [||] and spare_pool = ref [] in
    let states = Hashtbl.create 8 and trust = Hashtbl.create 8 in
    List.iteri
      (fun i line ->
        if i > 0 && line <> "" then
          match String.split_on_char ' ' line with
          | "slot_dev" :: ds ->
              slot_dev := Array.of_list (List.map int_of_string ds)
          | "spare_pool" :: ds -> spare_pool := List.map int_of_string ds
          | [ "state"; i; s ] ->
              Hashtbl.replace states (int_of_string i) (state_of_string s)
          | [ "trust"; i; st; v; a; d; c; u ] ->
              Hashtbl.replace trust (int_of_string i)
                {
                  Trust.status = trust_status_of_string st;
                  votes = int_of_string v;
                  agreements = int_of_string a;
                  divergences = int_of_string d;
                  convictions = int_of_string c;
                  unreadable = int_of_string u;
                }
          | [ k; v ] -> Hashtbl.replace fields k v
          | _ -> failwith (Printf.sprintf "bad manifest line %S" line))
      lines;
    let geti k = int_of_string (Hashtbl.find fields k) in
    let n = geti "devices" in
    let cfg =
      {
        Volume.slots = geti "slots";
        replication = geti "replication";
        spares = geti "spares";
        member_blocks = geti "member_blocks";
        line_exp = geti "line_exp";
        seed = geti "seed";
        (* Endurance lives inside each member image's device config;
           the manifest only carries the volume-level knobs. *)
        endurance = Sero.Device.active_endurance;
        cache_capacity =
          (match Hashtbl.find fields "cache" with
          | "none" -> None
          | c -> Some (int_of_string c));
      }
    in
    let devices =
      Array.init n (fun i ->
          match Sero.Image.load (member_file path i) with
          | Ok d -> d
          | Error e ->
              failwith (Printf.sprintf "member %d: %s" i e))
    in
    let states =
      Array.init n (fun i ->
          match Hashtbl.find_opt states i with
          | Some s -> s
          | None -> failwith (Printf.sprintf "missing state for device %d" i))
    in
    let v =
      Volume.of_devices cfg ~devices ~slot_dev:!slot_dev
        ~spare_pool:!spare_pool ~states
    in
    Hashtbl.iter (fun dev e -> Trust.restore (Volume.trust v) ~dev e) trust;
    Ok v
  with
  | Failure e -> Error e
  | Sys_error e -> Error e
  | Invalid_argument e -> Error e
  | Not_found -> Error "manifest missing a required field"
