(* Codec layer: Manchester cells, CRC-32, GF(256), Reed–Solomon,
   sector framing, WOM code, binary IO. *)

let qtest = QCheck_alcotest.to_alcotest

(* {1 Manchester} *)

let heated_of_array a i = a.(i)

let manchester_roundtrip =
  QCheck.Test.make ~name:"encode/decode roundtrip" ~count:300
    QCheck.(string_of_size Gen.(1 -- 64))
    (fun payload ->
      let dots = Codec.Manchester.encode payload in
      let d =
        Codec.Manchester.decode ~heated:(heated_of_array dots)
          ~n_bytes:(String.length payload)
      in
      Codec.Manchester.is_clean d && String.equal d.Codec.Manchester.payload payload)

let manchester_spreading =
  QCheck.Test.make ~name:"never more than 2 adjacent heated dots" ~count:300
    QCheck.(string_of_size Gen.(1 -- 64))
    (fun payload ->
      Codec.Manchester.max_adjacent_heated (Codec.Manchester.encode payload) <= 2)

let manchester_density =
  QCheck.Test.make ~name:"exactly one heated dot per cell" ~count:300
    QCheck.(string_of_size Gen.(1 -- 64))
    (fun payload ->
      let dots = Codec.Manchester.encode payload in
      let heated = Array.fold_left (fun a h -> if h then a + 1 else a) 0 dots in
      heated = 8 * String.length payload)

let manchester_tamper =
  QCheck.Test.make ~name:"heating any unheated dot is detected" ~count:300
    QCheck.(pair (string_of_size Gen.(1 -- 32)) small_nat)
    (fun (payload, idx) ->
      let dots = Codec.Manchester.encode payload in
      (* Heat one currently-unheated dot: its cell becomes HH. *)
      let unheated =
        Array.to_list (Array.mapi (fun i h -> (i, h)) dots)
        |> List.filter_map (fun (i, h) -> if h then None else Some i)
      in
      let victim = List.nth unheated (idx mod List.length unheated) in
      dots.(victim) <- true;
      let d =
        Codec.Manchester.decode ~heated:(heated_of_array dots)
          ~n_bytes:(String.length payload)
      in
      d.Codec.Manchester.tampered = 1)

(* The list-returning decoder the codec used before it returned counts,
   kept as the reference: the counting decoder must agree with it on
   the payload and on how many cells are blank and tampered, and the
   blank cells re-derived from the dots must be exactly its list. *)
type oracle = { o_payload : string; o_tampered : int list; o_blank : int list }

let oracle_decode ~heated ~n_bytes =
  let out = Bytes.make n_bytes '\x00' in
  let tampered = ref [] and blank = ref [] in
  for byte = 0 to n_bytes - 1 do
    let v = ref 0 in
    for bit = 0 to 7 do
      let cell = (byte * 8) + bit in
      let a = heated (2 * cell) and b = heated ((2 * cell) + 1) in
      (match (a, b) with
      | true, false -> ()
      | false, true -> v := !v lor (1 lsl (7 - bit))
      | false, false -> blank := cell :: !blank
      | true, true -> tampered := cell :: !tampered)
    done;
    Bytes.set out byte (Char.chr !v)
  done;
  {
    o_payload = Bytes.to_string out;
    o_tampered = List.rev !tampered;
    o_blank = List.rev !blank;
  }

(* Dot arrays of 1-32 bytes' worth of cells: random H/U per dot, all
   blank, all HH, a burned area torn after a random cell prefix, and a
   burned area with isolated blank holes. *)
let dots_gen =
  let open QCheck.Gen in
  let* n_bytes = int_range 1 32 in
  let n_cells = 8 * n_bytes in
  let burned = map Codec.Manchester.encode (string_size (return n_bytes)) in
  oneof
    [
      array_size (return (2 * n_cells)) bool;
      return (Array.make (2 * n_cells) false);
      return (Array.make (2 * n_cells) true);
      map2
        (fun dots k -> Array.mapi (fun i h -> h && i < 2 * k) dots)
        burned (int_range 0 n_cells);
      map2
        (fun dots holes ->
          List.iter
            (fun c ->
              dots.(2 * c) <- false;
              dots.((2 * c) + 1) <- false)
            holes;
          dots)
        burned
        (list_size (int_range 1 4) (int_bound (n_cells - 1)));
    ]

let manchester_oracle =
  QCheck.Test.make ~name:"counting decoder matches the list oracle" ~count:500
    (QCheck.make dots_gen
       ~print:(fun a ->
         String.init (Array.length a) (fun i -> if a.(i) then 'H' else 'U')))
    (fun dots ->
      let n_bytes = Array.length dots / 16 in
      let heated = heated_of_array dots in
      let d = Codec.Manchester.decode ~heated ~n_bytes in
      let o = oracle_decode ~heated ~n_bytes in
      let rederived =
        List.filter
          (fun c -> not (dots.(2 * c) || dots.((2 * c) + 1)))
          (List.init (8 * n_bytes) Fun.id)
      in
      String.equal d.Codec.Manchester.payload o.o_payload
      && d.Codec.Manchester.blank = List.length o.o_blank
      && d.Codec.Manchester.tampered = List.length o.o_tampered
      && rederived = o.o_blank)

let manchester_cases =
  [
    Alcotest.test_case "blank area decodes as all-blank cells" `Quick (fun () ->
        let d =
          Codec.Manchester.decode ~heated:(fun _ -> false) ~n_bytes:4
        in
        Alcotest.(check int) "blank cells" 32 d.Codec.Manchester.blank);
    Alcotest.test_case "fully heated area is all-tampered" `Quick (fun () ->
        let d = Codec.Manchester.decode ~heated:(fun _ -> true) ~n_bytes:2 in
        Alcotest.(check int) "tampered" 16 d.Codec.Manchester.tampered);
    Alcotest.test_case "encoded_length" `Quick (fun () ->
        Alcotest.(check int) "16 dots per byte" 160 (Codec.Manchester.encoded_length 10));
    Alcotest.test_case "cell convention: 0 -> HU, 1 -> UH (Fig. 3)" `Quick
      (fun () ->
        let dots = Codec.Manchester.encode "\x80" in
        (* MSB of 0x80 is 1 -> first cell UH; next bit 0 -> HU. *)
        Alcotest.(check (pair bool bool)) "cell 0 = UH" (false, true)
          (dots.(0), dots.(1));
        Alcotest.(check (pair bool bool)) "cell 1 = HU" (true, false)
          (dots.(2), dots.(3)));
  ]

(* {1 CRC-32} *)

let crc_cases =
  [
    Alcotest.test_case "known value: \"123456789\"" `Quick (fun () ->
        Alcotest.(check int32) "check value" 0xCBF43926l
          (Codec.Crc32.string "123456789"));
    Alcotest.test_case "empty string" `Quick (fun () ->
        Alcotest.(check int32) "zero" 0l (Codec.Crc32.string ""));
    Alcotest.test_case "incremental equals one-shot" `Quick (fun () ->
        let a = Codec.Crc32.string "hello world" in
        let b = Codec.Crc32.string ~crc:(Codec.Crc32.string "hello ") "world" in
        Alcotest.(check int32) "same" a b);
  ]

let crc_detects_flip =
  QCheck.Test.make ~name:"single byte flip changes the CRC" ~count:300
    QCheck.(pair (string_of_size Gen.(1 -- 100)) small_nat)
    (fun (s, i) ->
      let i = i mod String.length s in
      let b = Bytes.of_string s in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x5A));
      Codec.Crc32.string s <> Codec.Crc32.string (Bytes.to_string b))

(* {1 GF(256)} *)

let byte = QCheck.int_range 0 255
let nonzero = QCheck.int_range 1 255

let gf_tests =
  [
    QCheck.Test.make ~name:"mul commutative" ~count:500 (QCheck.pair byte byte)
      (fun (a, b) -> Codec.Gf256.mul a b = Codec.Gf256.mul b a);
    QCheck.Test.make ~name:"mul associative" ~count:500
      (QCheck.triple byte byte byte) (fun (a, b, c) ->
        Codec.Gf256.mul a (Codec.Gf256.mul b c)
        = Codec.Gf256.mul (Codec.Gf256.mul a b) c);
    QCheck.Test.make ~name:"distributive over add" ~count:500
      (QCheck.triple byte byte byte) (fun (a, b, c) ->
        Codec.Gf256.mul a (Codec.Gf256.add b c)
        = Codec.Gf256.add (Codec.Gf256.mul a b) (Codec.Gf256.mul a c));
    QCheck.Test.make ~name:"inverse" ~count:500 nonzero (fun a ->
        Codec.Gf256.mul a (Codec.Gf256.inv a) = 1);
    QCheck.Test.make ~name:"div is mul by inverse" ~count:500
      (QCheck.pair byte nonzero) (fun (a, b) ->
        Codec.Gf256.div a b = Codec.Gf256.mul a (Codec.Gf256.inv b));
    QCheck.Test.make ~name:"exp/log inverse" ~count:500 nonzero (fun a ->
        Codec.Gf256.exp (Codec.Gf256.log a) = a);
    QCheck.Test.make ~name:"pow matches repeated mul" ~count:200
      (QCheck.pair byte (QCheck.int_range 0 10)) (fun (a, n) ->
        let rec naive acc k = if k = 0 then acc else naive (Codec.Gf256.mul acc a) (k - 1) in
        Codec.Gf256.pow a n = if n = 0 then 1 else naive 1 n);
  ]

(* {1 Reed–Solomon} *)

let rs = Codec.Rs.make ~nparity:24

let corrupt rng cw nerr =
  (* Flip [nerr] distinct byte positions. *)
  let n = Bytes.length cw in
  let chosen = Hashtbl.create 8 in
  let flipped = ref 0 in
  while !flipped < nerr do
    let i = Sim.Prng.int rng n in
    if not (Hashtbl.mem chosen i) then begin
      Hashtbl.replace chosen i ();
      Bytes.set cw i
        (Char.chr (Char.code (Bytes.get cw i) lxor (1 + Sim.Prng.int rng 254)));
      incr flipped
    end
  done

let rs_corrects =
  QCheck.Test.make ~name:"corrects up to nparity/2 errors" ~count:200
    QCheck.(pair (string_of_size Gen.(1 -- 200)) (int_range 0 12))
    (fun (data, nerr) ->
      let data = if String.length data > Codec.Rs.max_data rs then String.sub data 0 200 else data in
      let cw = Bytes.of_string (data ^ Codec.Rs.parity rs data) in
      let rng = Sim.Prng.create (Hashtbl.hash (data, nerr)) in
      corrupt rng cw nerr;
      match Codec.Rs.decode rs cw with
      | Codec.Rs.Ok_clean -> nerr = 0
      | Codec.Rs.Corrected n ->
          n = nerr && String.equal (Bytes.sub_string cw 0 (String.length data)) data
      | Codec.Rs.Uncorrectable -> false)

let rs_overload =
  QCheck.Test.make ~name:"more than nparity/2 errors never mis-corrects" ~count:100
    QCheck.(pair (string_of_size Gen.(50 -- 200)) (int_range 13 20))
    (fun (data, nerr) ->
      let cw = Bytes.of_string (data ^ Codec.Rs.parity rs data) in
      let rng = Sim.Prng.create (Hashtbl.hash (data, nerr, "x")) in
      corrupt rng cw nerr;
      match Codec.Rs.decode rs cw with
      | Codec.Rs.Uncorrectable -> true
      | Codec.Rs.Ok_clean -> false
      | Codec.Rs.Corrected _ ->
          (* Miscorrection is possible in theory for RS beyond t, but it
             must never silently return different data claiming clean:
             accept only if it restored the exact original. *)
          String.equal (Bytes.sub_string cw 0 (String.length data)) data)

let rs_blocks_roundtrip =
  QCheck.Test.make ~name:"encode_blocks/decode_blocks roundtrip" ~count:100
    QCheck.(string_of_size Gen.(0 -- 1000))
    (fun data ->
      match
        Codec.Rs.decode_blocks rs
          (Bytes.of_string (Codec.Rs.encode_blocks rs data))
          ~data_len:(String.length data)
      with
      | Ok out -> String.equal out data
      | Error _ -> false)

let rs_erasures_correct =
  QCheck.Test.make ~name:"corrects up to nparity known erasures" ~count:100
    QCheck.(pair (string_of_size Gen.(50 -- 200)) (int_range 0 24))
    (fun (data, nerase) ->
      let cw = Bytes.of_string (data ^ Codec.Rs.parity rs data) in
      let rng = Sim.Prng.create (Hashtbl.hash (data, nerase, "era")) in
      let chosen = Hashtbl.create 8 in
      while Hashtbl.length chosen < nerase do
        Hashtbl.replace chosen (Sim.Prng.int rng (Bytes.length cw)) ()
      done;
      let erasures = Hashtbl.fold (fun k () acc -> k :: acc) chosen [] in
      List.iter
        (fun i ->
          Bytes.set cw i
            (Char.chr (Char.code (Bytes.get cw i) lxor (1 + Sim.Prng.int rng 254))))
        erasures;
      match Codec.Rs.decode_with_erasures rs cw ~erasures with
      | Codec.Rs.Ok_clean -> nerase = 0
      | Codec.Rs.Corrected _ ->
          String.equal (Bytes.sub_string cw 0 (String.length data)) data
      | Codec.Rs.Uncorrectable -> false)

let rs_erasures_plus_errors =
  QCheck.Test.make ~name:"e erasures + t errors while e + 2t <= nparity"
    ~count:100
    QCheck.(triple (string_of_size Gen.(50 -- 180)) (int_range 0 12) (int_range 0 6))
    (fun (data, nerase, nerr) ->
      QCheck.assume (nerase + (2 * nerr) <= 24);
      let cw = Bytes.of_string (data ^ Codec.Rs.parity rs data) in
      let rng = Sim.Prng.create (Hashtbl.hash (data, nerase, nerr)) in
      let chosen = Hashtbl.create 8 in
      while Hashtbl.length chosen < nerase + nerr do
        Hashtbl.replace chosen (Sim.Prng.int rng (Bytes.length cw)) ()
      done;
      let all = Hashtbl.fold (fun k () acc -> k :: acc) chosen [] in
      List.iter
        (fun i ->
          Bytes.set cw i
            (Char.chr (Char.code (Bytes.get cw i) lxor (1 + Sim.Prng.int rng 254))))
        all;
      let erasures = List.filteri (fun i _ -> i < nerase) all in
      match Codec.Rs.decode_with_erasures rs cw ~erasures with
      | Codec.Rs.Ok_clean -> nerase + nerr = 0
      | Codec.Rs.Corrected _ ->
          String.equal (Bytes.sub_string cw 0 (String.length data)) data
      | Codec.Rs.Uncorrectable -> false)

let rs_erasure_cases =
  [
    Alcotest.test_case "erasure positions beyond plain-decode limit" `Quick
      (fun () ->
        (* 20 corrupted known positions: plain decode fails (t=10 > 12 is
           fine actually, use 26 > 24/2*2...); use 20: plain decode can
           only fix 12, erasure decode fixes all 20. *)
        let data = String.init 100 (fun i -> Char.chr (i + 32)) in
        let cw = Bytes.of_string (data ^ Codec.Rs.parity rs data) in
        let erasures = List.init 20 (fun i -> 3 * i) in
        List.iter (fun i -> Bytes.set cw i '\xEE') erasures;
        (match Codec.Rs.decode rs (Bytes.copy cw) with
        | Codec.Rs.Uncorrectable -> ()
        | _ -> Alcotest.fail "plain decode should fail at 20 errors");
        match Codec.Rs.decode_with_erasures rs cw ~erasures with
        | Codec.Rs.Corrected _ ->
            Alcotest.(check string) "restored" data
              (Bytes.sub_string cw 0 (String.length data))
        | _ -> Alcotest.fail "erasure decode failed");
    Alcotest.test_case "too many erasures refused" `Quick (fun () ->
        let data = "x" in
        let cw = Bytes.of_string (data ^ Codec.Rs.parity rs data) in
        Bytes.set cw 0 'y';
        match
          Codec.Rs.decode_with_erasures rs cw
            ~erasures:(List.init 25 (fun i -> i mod Bytes.length cw))
        with
        | Codec.Rs.Uncorrectable -> ()
        | _ -> Alcotest.fail "accepted 25 erasures");
    Alcotest.test_case "out-of-range erasure raises" `Quick (fun () ->
        let data = "x" in
        let cw = Bytes.of_string (data ^ Codec.Rs.parity rs data) in
        Alcotest.check_raises "range"
          (Invalid_argument "Rs.decode_with_erasures: erasure position out of range")
          (fun () ->
            ignore (Codec.Rs.decode_with_erasures rs cw ~erasures:[ 999 ])));
  ]

let rs_cases =
  [
    Alcotest.test_case "parity length" `Quick (fun () ->
        Alcotest.(check int) "24" 24 (String.length (Codec.Rs.parity rs "hello")));
    Alcotest.test_case "nparity bounds" `Quick (fun () ->
        Alcotest.check_raises "zero"
          (Invalid_argument "Rs.make: nparity must be in 1..254") (fun () ->
            ignore (Codec.Rs.make ~nparity:0)));
    Alcotest.test_case "clean codeword decodes clean" `Quick (fun () ->
        let data = "the SERO device" in
        let cw = Bytes.of_string (data ^ Codec.Rs.parity rs data) in
        match Codec.Rs.decode rs cw with
        | Codec.Rs.Ok_clean -> ()
        | _ -> Alcotest.fail "expected clean");
  ]

(* {1 Sector framing} *)

let sector_roundtrip =
  QCheck.Test.make ~name:"sector encode/decode roundtrip" ~count:100
    QCheck.(pair (string_of_size Gen.(0 -- 512)) (int_range 0 100000))
    (fun (payload, pba) ->
      let image =
        Codec.Sector.encode ~pba ~kind:Codec.Sector.Data ~generation:3 payload
      in
      match Codec.Sector.decode image with
      | Ok d ->
          d.Codec.Sector.pba = pba
          && d.Codec.Sector.generation = 3
          && String.length d.Codec.Sector.payload = 512
          && String.equal (String.sub d.Codec.Sector.payload 0 (String.length payload)) payload
      | Error _ -> false)

let sector_error_correction =
  QCheck.Test.make ~name:"sector survives 12 byte errors per codeword" ~count:50
    QCheck.(string_of_size Gen.(0 -- 512))
    (fun payload ->
      let image =
        Codec.Sector.encode ~pba:7 ~kind:Codec.Sector.Inode ~generation:1 payload
      in
      let b = Bytes.of_string image in
      (* Corrupt 10 bytes of the first 255-byte codeword. *)
      let rng = Sim.Prng.create (Hashtbl.hash payload) in
      for _ = 1 to 10 do
        let i = Sim.Prng.int rng 255 in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xA5))
      done;
      match Codec.Sector.decode (Bytes.to_string b) with
      | Ok d -> d.Codec.Sector.pba = 7 && d.Codec.Sector.corrected_symbols > 0
      | Error _ -> false)

let sector_cases =
  [
    Alcotest.test_case "overhead about 15%" `Quick (fun () ->
        Alcotest.(check bool) "in range" true
          (Codec.Sector.overhead_fraction > 0.13
          && Codec.Sector.overhead_fraction < 0.17));
    Alcotest.test_case "physical size stable" `Quick (fun () ->
        Alcotest.(check int) "604 bytes" 604 Codec.Sector.physical_bytes);
    Alcotest.test_case "payload too long rejected" `Quick (fun () ->
        Alcotest.check_raises "513"
          (Invalid_argument "Sector.encode: payload longer than 512 bytes")
          (fun () ->
            ignore
              (Codec.Sector.encode ~pba:0 ~kind:Codec.Sector.Data ~generation:0
                 (String.make 513 'x'))));
    Alcotest.test_case "garbage image fails structured" `Quick (fun () ->
        match Codec.Sector.decode (String.make Codec.Sector.physical_bytes 'Z') with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "garbage decoded");
    Alcotest.test_case "kind roundtrips" `Quick (fun () ->
        List.iter
          (fun k ->
            Alcotest.(check bool)
              "kind" true
              (Codec.Sector.kind_of_int (Codec.Sector.kind_to_int k) = Some k))
          [ Codec.Sector.Data; Inode; Summary; Checkpoint; Hash_meta ]);
  ]

(* Every answer of [Sector.decode]/[decode_sub], pinned on crafted
   frames.  The 532 framed bytes (16-byte header, 512-byte payload,
   big-endian CRC-32) travel in three RS slices of 231, 231 and 70 data
   bytes, each followed by 24 parity bytes; [sector] below is the same
   code the sector layer uses. *)

let framed_len = 532
let slices = [ (0, 255); (255, 255); (510, 94) ] (* (offset, length) *)
let sample_payload = String.init 512 (fun i -> Char.chr ((i * 7) land 0xFF))

let sample_image () =
  Codec.Sector.encode ~pba:4242 ~kind:Codec.Sector.Summary ~generation:9
    sample_payload

(* The framed bytes of an image (its data slices without parity). *)
let framed_of image =
  let b = Buffer.create framed_len in
  List.iter
    (fun (off, len) -> Buffer.add_string b (String.sub image off (len - 24)))
    slices;
  Buffer.contents b

(* Re-seal the CRC over the first 528 bytes and re-parity every slice. *)
let reseal framed =
  let crc = Int32.to_int (Codec.Crc32.bytes framed 0 528) land 0xFFFFFFFF in
  for k = 0 to 3 do
    Bytes.set framed (528 + k) (Char.chr ((crc lsr (24 - (8 * k))) land 0xFF))
  done;
  Codec.Rs.encode_blocks rs (Bytes.to_string framed)

let flip_in_slice rng image (off, len) nflips =
  let b = Bytes.of_string image in
  let cw = Bytes.sub b off len in
  corrupt rng cw nflips;
  Bytes.blit cw 0 b off len;
  Bytes.to_string b

let expect_error what want = function
  | Ok _ -> Alcotest.failf "%s: decoded" what
  | Error e ->
      Alcotest.(check string) what
        (Format.asprintf "%a" Codec.Sector.pp_error want)
        (Format.asprintf "%a" Codec.Sector.pp_error e)

let sector_error_class_cases =
  [
    Alcotest.test_case "up to 12 flips per slice: Ok with exact count" `Quick
      (fun () ->
        let image = sample_image () in
        List.iteri
          (fun s slice ->
            for nflips = 0 to 12 do
              let rng = Sim.Prng.create ((100 * s) + nflips) in
              let bad = flip_in_slice rng image slice nflips in
              match Codec.Sector.decode bad with
              | Error _ -> Alcotest.failf "slice %d, %d flips: error" s nflips
              | Ok d ->
                  Alcotest.(check int)
                    (Printf.sprintf "slice %d, %d flips" s nflips)
                    nflips d.Codec.Sector.corrected_symbols;
                  Alcotest.(check bool) "payload" true
                    (String.equal d.Codec.Sector.payload sample_payload);
                  Alcotest.(check int) "pba" 4242 d.Codec.Sector.pba;
                  Alcotest.(check int) "generation" 9 d.Codec.Sector.generation
            done)
          slices);
    Alcotest.test_case "13 flips in one slice: Uncorrectable" `Quick (fun () ->
        let image = sample_image () in
        List.iteri
          (fun s slice ->
            for seed = 0 to 4 do
              let rng = Sim.Prng.create (1000 + (10 * s) + seed) in
              expect_error
                (Printf.sprintf "slice %d seed %d" s seed)
                Codec.Sector.Uncorrectable
                (Codec.Sector.decode (flip_in_slice rng image slice 13))
            done)
          slices);
    Alcotest.test_case "RS-clean payload change: Bad_crc" `Quick (fun () ->
        let image = sample_image () in
        List.iter
          (fun (pos, (off, len)) ->
            (* Change one payload byte inside its slice and recompute only
               that slice's parity: every slice is RS-clean, the CRC is not. *)
            let b = Bytes.of_string image in
            let data_len = len - 24 in
            let at = off + (pos - (off / 255 * 231)) in
            Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 0x5A));
            let data = Bytes.sub_string b off data_len in
            Bytes.blit_string (Codec.Rs.parity rs data) 0 b (off + data_len) 24;
            expect_error
              (Printf.sprintf "payload byte %d" pos)
              Codec.Sector.Bad_crc
              (Codec.Sector.decode (Bytes.to_string b)))
          [ (16, List.nth slices 0); (300, List.nth slices 1);
            (527, List.nth slices 2) ]);
    Alcotest.test_case "bad magic or kind under a valid CRC: Bad_header"
      `Quick (fun () ->
        let image = sample_image () in
        List.iter
          (fun (pos, v) ->
            let framed = Bytes.of_string (framed_of image) in
            Bytes.set framed pos (Char.chr v);
            let patched = reseal framed in
            (* Only slices 0 (header) and 2 (CRC) differ from the original. *)
            let (o1, l1) = List.nth slices 1 in
            Alcotest.(check bool) "slice 1 untouched" true
              (String.equal (String.sub patched o1 l1) (String.sub image o1 l1));
            expect_error
              (Printf.sprintf "byte %d := %d" pos v)
              Codec.Sector.Bad_header
              (Codec.Sector.decode patched))
          [ (0, 0x00); (1, 0x21); (2, 5); (2, 0xFF) ]);
    Alcotest.test_case "decode_sub inside a larger buffer leaves it intact"
      `Quick (fun () ->
        let image = sample_image () in
        let rng = Sim.Prng.create 77 in
        let bad = flip_in_slice rng image (List.nth slices 1) 12 in
        let pre = 37 and post = 11 in
        let np = Codec.Sector.physical_bytes in
        let buf = Bytes.make (pre + np + np + post) '\xC3' in
        Bytes.blit_string image 0 buf pre np;
        Bytes.blit_string bad 0 buf (pre + np) np;
        let before = Bytes.to_string buf in
        (match Codec.Sector.decode_sub buf ~off:pre with
        | Ok d ->
            Alcotest.(check int) "clean" 0 d.Codec.Sector.corrected_symbols
        | Error _ -> Alcotest.fail "clean frame failed");
        (match Codec.Sector.decode_sub buf ~off:(pre + np) with
        | Ok d ->
            Alcotest.(check int) "corrected" 12 d.Codec.Sector.corrected_symbols;
            Alcotest.(check bool) "payload" true
              (String.equal d.Codec.Sector.payload sample_payload)
        | Error _ -> Alcotest.fail "corrupted frame failed");
        expect_error "window past the end" Codec.Sector.Bad_header
          (Codec.Sector.decode_sub buf ~off:(pre + np + post + 1));
        Alcotest.(check bool) "buffer byte-identical" true
          (String.equal before (Bytes.to_string buf)));
  ]

(* {1 WOM code} *)

let wom_two_generations =
  QCheck.Test.make ~name:"any two successive values are storable" ~count:200
    QCheck.(pair (int_range 0 3) (int_range 0 3))
    (fun (v1, v2) ->
      let c1 = Codec.Wom.encode_first v1 in
      match Codec.Wom.decode c1 with
      | Some (v, 1) when v = v1 -> (
          match Codec.Wom.write c1 v2 with
          | Codec.Wom.Written c2 -> (
              match Codec.Wom.decode c2 with
              | Some (v, g) -> v = v2 && (g = 2 || v1 = v2)
              | None -> false)
          | Codec.Wom.Exhausted -> false)
      | _ -> false)

let wom_monotone =
  QCheck.Test.make ~name:"writes never clear cells" ~count:200
    QCheck.(pair (int_range 0 3) (int_range 0 3))
    (fun (v1, v2) ->
      let c1 = Codec.Wom.encode_first v1 in
      match Codec.Wom.write c1 v2 with
      | Codec.Wom.Written c2 ->
          c2.(0) >= c1.(0) && c2.(1) >= c1.(1) && c2.(2) >= c1.(2)
      | Codec.Wom.Exhausted -> true)

let wom_cases =
  [
    Alcotest.test_case "third distinct write exhausted" `Quick (fun () ->
        let c1 = Codec.Wom.encode_first 0 in
        match Codec.Wom.write c1 1 with
        | Codec.Wom.Written c2 -> (
            match Codec.Wom.write c2 2 with
            | Codec.Wom.Exhausted -> ()
            | Codec.Wom.Written _ -> Alcotest.fail "third write accepted")
        | Codec.Wom.Exhausted -> Alcotest.fail "second write refused");
    Alcotest.test_case "rate comparison" `Quick (fun () ->
        Alcotest.(check bool) "wom beats manchester" true
          (Codec.Wom.rate > 2. *. Codec.Wom.manchester_rate));
  ]

(* {1 Binio} *)

let binio_roundtrip =
  QCheck.Test.make ~name:"writer/reader roundtrip" ~count:300
    QCheck.(
      quad (int_range 0 255) (int_range 0 65535) (int_range 0 0xFFFFFFFF)
        (string_of_size Gen.(0 -- 80)))
    (fun (a, b, c, s) ->
      let w = Codec.Binio.W.create () in
      Codec.Binio.W.u8 w a;
      Codec.Binio.W.u16 w b;
      Codec.Binio.W.u32 w c;
      Codec.Binio.W.u64 w (c * 7);
      Codec.Binio.W.str w s;
      let r = Codec.Binio.R.of_string (Codec.Binio.W.contents w) in
      Codec.Binio.R.u8 r = a
      && Codec.Binio.R.u16 r = b
      && Codec.Binio.R.u32 r = c
      && Codec.Binio.R.u64 r = c * 7
      && String.equal (Codec.Binio.R.str r) s
      && Codec.Binio.R.remaining r = 0)

let binio_cases =
  [
    Alcotest.test_case "truncated read raises" `Quick (fun () ->
        let r = Codec.Binio.R.of_string "ab" in
        Alcotest.check_raises "u32" Codec.Binio.R.Truncated (fun () ->
            ignore (Codec.Binio.R.u32 r)));
    Alcotest.test_case "negative raw length raises" `Quick (fun () ->
        let r = Codec.Binio.R.of_string "abcd" in
        Alcotest.check_raises "raw" Codec.Binio.R.Truncated (fun () ->
            ignore (Codec.Binio.R.raw r (-1))));
  ]

let () =
  Alcotest.run "codec"
    [
      ( "manchester",
        manchester_cases
        @ List.map qtest
            [ manchester_roundtrip; manchester_spreading; manchester_density;
              manchester_tamper; manchester_oracle ] );
      ("crc32", crc_cases @ [ qtest crc_detects_flip ]);
      ("gf256", List.map qtest gf_tests);
      ( "reed-solomon",
        rs_cases @ rs_erasure_cases
        @ List.map qtest
            [ rs_corrects; rs_overload; rs_blocks_roundtrip;
              rs_erasures_correct; rs_erasures_plus_errors ] );
      ( "sector",
        sector_cases
        @ List.map qtest [ sector_roundtrip; sector_error_correction ]
        @ sector_error_class_cases );
      ("wom", wom_cases @ List.map qtest [ wom_two_generations; wom_monotone ]);
      ("binio", binio_cases @ [ qtest binio_roundtrip ]);
    ]
