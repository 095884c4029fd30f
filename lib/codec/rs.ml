type code = {
  npar : int;
  gen : int array; (* generator, highest degree first *)
  lanes : int; (* ceil(npar / 6): 48-bit lanes holding the remainder *)
  gpack : int array;
      (* 256 x lanes: row f is the npar bytes f * gen.(j+1), packed
         big-endian and left-justified into 48-bit integer lanes, so
         [parity] can shift and xor whole lanes instead of walking an
         npar-element byte array per input byte. *)
  stab : int array; (* npar x 256: stab.(i*256 + s) = s * alpha^i *)
}

let lane_bytes = 6
let mask48 = 0xFFFFFFFFFFFF

let make ~nparity =
  if nparity <= 0 || nparity >= 255 then
    invalid_arg "Rs.make: nparity must be in 1..254";
  (* g(x) = prod_{i=0}^{npar-1} (x - alpha^i) *)
  let gen = ref [| 1 |] in
  for i = 0 to nparity - 1 do
    gen := Gf256.poly_mul !gen [| 1; Gf256.exp i |]
  done;
  let gen = !gen in
  (* One GF multiply per table cell here buys multiply-free inner loops
     in [parity] and [syndromes] below. *)
  let lanes = (nparity + lane_bytes - 1) / lane_bytes in
  let gpack = Array.make (256 * lanes) 0 in
  for f = 0 to 255 do
    for j = 0 to nparity - 1 do
      let v = Gf256.mul f gen.(j + 1) in
      let lane = j / lane_bytes and byte = j mod lane_bytes in
      gpack.((f * lanes) + lane) <-
        gpack.((f * lanes) + lane) lor (v lsl (40 - (8 * byte)))
    done
  done;
  let stab = Array.make (nparity * 256) 0 in
  for i = 0 to nparity - 1 do
    let x = Gf256.exp i in
    for s = 0 to 255 do
      stab.((i * 256) + s) <- Gf256.mul s x
    done
  done;
  { npar = nparity; gen; lanes; gpack; stab }

let nparity c = c.npar
let max_data c = 255 - c.npar

(* Polynomial long division of data * x^npar by the generator; the
   remainder is the parity.

   The remainder lives in 48-bit integer lanes (6 bytes each,
   big-endian, left-justified; low pad bytes of the last lane stay
   zero), so the per-input-byte "shift remainder left one symbol and
   xor in factor * (gen minus lead)" step costs a few integer ops per
   lane instead of an npar-element byte-array walk. *)
let parity c data =
  let len = String.length data in
  if len > max_data c then invalid_arg "Rs.parity: data too long";
  let npar = c.npar in
  let gpack = c.gpack in
  let byte_of lanes i =
    (lanes.(i / lane_bytes) lsr (40 - (8 * (i mod lane_bytes)))) land 0xFF
  in
  if c.lanes = 4 then begin
    (* The hot shape (the sector code's npar = 24): four lanes kept in
       locals, fully unrolled. *)
    let r0 = ref 0 and r1 = ref 0 and r2 = ref 0 and r3 = ref 0 in
    for i = 0 to len - 1 do
      let factor = Char.code (String.unsafe_get data i) lxor (!r0 lsr 40) in
      let base = factor lsl 2 in
      let t0 =
        (((!r0 lsl 8) land mask48) lor (!r1 lsr 40))
        lxor Array.unsafe_get gpack base
      and t1 =
        (((!r1 lsl 8) land mask48) lor (!r2 lsr 40))
        lxor Array.unsafe_get gpack (base + 1)
      and t2 =
        (((!r2 lsl 8) land mask48) lor (!r3 lsr 40))
        lxor Array.unsafe_get gpack (base + 2)
      and t3 = ((!r3 lsl 8) land mask48) lxor Array.unsafe_get gpack (base + 3) in
      r0 := t0;
      r1 := t1;
      r2 := t2;
      r3 := t3
    done;
    let lanes = [| !r0; !r1; !r2; !r3 |] in
    String.init npar (fun i -> Char.chr (byte_of lanes i))
  end
  else begin
    let n_lanes = c.lanes in
    let rem = Array.make n_lanes 0 in
    for i = 0 to len - 1 do
      let factor =
        Char.code (String.unsafe_get data i) lxor (Array.unsafe_get rem 0 lsr 40)
      in
      let base = factor * n_lanes in
      for j = 0 to n_lanes - 2 do
        Array.unsafe_set rem j
          ((((Array.unsafe_get rem j lsl 8) land mask48)
           lor (Array.unsafe_get rem (j + 1) lsr 40))
          lxor Array.unsafe_get gpack (base + j))
      done;
      Array.unsafe_set rem (n_lanes - 1)
        (((Array.unsafe_get rem (n_lanes - 1) lsl 8) land mask48)
        lxor Array.unsafe_get gpack (base + n_lanes - 1))
    done;
    String.init npar (fun i -> Char.chr (byte_of rem i))
  end

type decode_outcome = Ok_clean | Corrected of int | Uncorrectable

let syndromes c cw =
  let n = Bytes.length cw in
  let npar = c.npar in
  let stab = c.stab in
  let synd = Array.make npar 0 in
  (* Horner per syndrome, bytes outermost so each input byte is loaded
     once for all npar accumulators. *)
  for j = 0 to n - 1 do
    let b = Char.code (Bytes.unsafe_get cw j) in
    for i = 0 to npar - 1 do
      Array.unsafe_set synd i
        (Array.unsafe_get stab ((i lsl 8) + Array.unsafe_get synd i) lxor b)
    done
  done;
  let all_zero = ref true in
  for i = 0 to npar - 1 do
    if synd.(i) <> 0 then all_zero := false
  done;
  (synd, !all_zero)

(* How many leading syndromes [probably_clean] evaluates. *)
let quick_syndromes = 4

let probably_clean c cw ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length cw then
    invalid_arg "Rs.probably_clean: out of bounds";
  if c.npar < quick_syndromes then
    let (_ : int array), clean = syndromes c (Bytes.sub cw off len) in
    clean
  else begin
    let stab = c.stab in
    (* alpha^0 = 1, so syndrome 0 is a plain running XOR. *)
    let s0 = ref 0 and s1 = ref 0 and s2 = ref 0 and s3 = ref 0 in
    for j = off to off + len - 1 do
      let b = Char.code (Bytes.unsafe_get cw j) in
      s0 := !s0 lxor b;
      s1 := Array.unsafe_get stab (256 + !s1) lxor b;
      s2 := Array.unsafe_get stab (512 + !s2) lxor b;
      s3 := Array.unsafe_get stab (768 + !s3) lxor b
    done;
    !s0 lor !s1 lor !s2 lor !s3 = 0
  end

(* Berlekamp–Massey: error-locator polynomial from the syndromes.
   Returns the locator with lowest degree first. *)
let berlekamp_massey synd =
  let n = Array.length synd in
  let c = Array.make (n + 1) 0 and b = Array.make (n + 1) 0 in
  c.(0) <- 1;
  b.(0) <- 1;
  let l = ref 0 and m = ref 1 and bb = ref 1 in
  for i = 0 to n - 1 do
    let d = ref synd.(i) in
    for j = 1 to !l do
      d := Gf256.add !d (Gf256.mul c.(j) synd.(i - j))
    done;
    if !d = 0 then incr m
    else if 2 * !l <= i then begin
      let t = Array.copy c in
      let coef = Gf256.div !d !bb in
      for j = 0 to n - !m do
        c.(j + !m) <- Gf256.add c.(j + !m) (Gf256.mul coef b.(j))
      done;
      l := i + 1 - !l;
      Array.blit t 0 b 0 (n + 1);
      bb := !d;
      m := 1
    end
    else begin
      let coef = Gf256.div !d !bb in
      for j = 0 to n - !m do
        c.(j + !m) <- Gf256.add c.(j + !m) (Gf256.mul coef b.(j))
      done;
      incr m
    end
  done;
  (Array.sub c 0 (!l + 1), !l)

(* Evaluate [p] (lowest degree first) at [x]. *)
let eval_low p x =
  let v = ref 0 and xp = ref 1 in
  Array.iter
    (fun coef ->
      v := Gf256.add !v (Gf256.mul coef !xp);
      xp := Gf256.mul !xp x)
    p;
  !v

(* Erasure-and-error decoding: build the erasure-locator polynomial,
   compute the modified (Forney) syndromes, run Berlekamp-Massey on
   those for the unknown errors, then correct at the union of both
   location sets with Forney's formula over the combined locator. *)
let decode_with_erasures c cw ~erasures =
  let n = Bytes.length cw in
  if n > 255 then invalid_arg "Rs.decode_with_erasures: codeword too long";
  List.iter
    (fun p ->
      if p < 0 || p >= n then
        invalid_arg "Rs.decode_with_erasures: erasure position out of range")
    erasures;
  let erasures = List.sort_uniq compare erasures in
  if List.length erasures > c.npar then Uncorrectable
  else begin
    let synd, clean = syndromes c cw in
    if clean then Ok_clean
    else begin
      (* Work lowest-degree-first throughout. *)
      let mul_low a b =
        let la = Array.length a and lb = Array.length b in
        let out = Array.make (la + lb - 1) 0 in
        for i = 0 to la - 1 do
          for j = 0 to lb - 1 do
            out.(i + j) <- Gf256.add out.(i + j) (Gf256.mul a.(i) b.(j))
          done
        done;
        out
      in
      (* Erasure locator: prod (1 + x * alpha^{n-1-pos}), lowest first. *)
      let gamma =
        List.fold_left
          (fun acc pos -> mul_low acc [| 1; Gf256.exp ((n - 1 - pos) mod 255) |])
          [| 1 |] erasures
      in
      (* S(x) * p(x) mod x^npar, with S(x) = sum synd_i x^i. *)
      let times_synd p =
        let out = Array.make c.npar 0 in
        for i = 0 to c.npar - 1 do
          let s = ref 0 in
          for j = 0 to min i (Array.length p - 1) do
            s := Gf256.add !s (Gf256.mul p.(j) synd.(i - j))
          done;
          out.(i) <- !s
        done;
        out
      in
      (* Modified syndromes T(x) = S(x) * gamma(x) mod x^npar. *)
      let t = times_synd gamma in
      let e = List.length erasures in
      (* BM on the modified syndromes, skipping the first e of them. *)
      let usable = c.npar - e in
      let t' = Array.sub t e usable in
      let sigma, nerrors = berlekamp_massey t' in
      if (2 * nerrors) + e > c.npar then Uncorrectable
      else begin
        (* Combined locator psi = sigma * gamma (lowest first). *)
        let psi = mul_low sigma gamma in
        (* Chien search: position [pos] (from the left) corresponds to
           x = alpha^(n-1-pos); it is an error location iff
           psi(alpha^{-(n-1-pos)}) = 0. *)
        let positions = ref [] in
        for pos = 0 to n - 1 do
          let xinv = Gf256.exp (255 - ((n - 1 - pos) mod 255)) in
          if eval_low psi xinv = 0 then positions := pos :: !positions
        done;
        let positions = !positions in
        if List.length positions <> Array.length psi - 1 then Uncorrectable
        else begin
          (* Forney: error magnitudes from Omega = (S(x) * psi(x)) mod
             x^npar and the formal derivative of psi, whose odd-degree
             terms survive. *)
          let omega = times_synd psi in
          let deriv =
            Array.init
              (max 0 (Array.length psi - 1))
              (fun i -> if i land 1 = 0 then psi.(i + 1) else 0)
          in
          let ok = ref true in
          List.iter
            (fun pos ->
              let xinv = Gf256.exp (255 - ((n - 1 - pos) mod 255)) in
              let num = eval_low omega xinv in
              let den = eval_low deriv xinv in
              if den = 0 then ok := false
              else begin
                let magnitude =
                  Gf256.mul (Gf256.exp ((n - 1 - pos) mod 255)) (Gf256.div num den)
                in
                Bytes.set cw pos
                  (Char.chr (Gf256.add (Char.code (Bytes.get cw pos)) magnitude))
              end)
            positions;
          if not !ok then Uncorrectable
          else
            let _, clean_now = syndromes c cw in
            if clean_now then Corrected (List.length positions)
            else Uncorrectable
        end
      end
    end
  end

(* With no known erasures the erasure locator is 1, the modified
   syndromes are the plain ones, and the combined locator is the
   Berlekamp–Massey one: classic errors-only decoding. *)
let decode c cw = decode_with_erasures c cw ~erasures:[]

let nslices c data_len =
  let m = max_data c in
  (data_len + m - 1) / m

let encoded_length c data_len =
  if data_len = 0 then 0 else data_len + (nslices c data_len * c.npar)

let encode_blocks c data =
  let m = max_data c in
  let len = String.length data in
  let buf = Buffer.create (encoded_length c len) in
  let off = ref 0 in
  while !off < len do
    let take = min m (len - !off) in
    let slice = String.sub data !off take in
    Buffer.add_string buf slice;
    Buffer.add_string buf (parity c slice);
    off := !off + take
  done;
  Buffer.contents buf

let decode_blocks c coded ~data_len =
  let m = max_data c in
  let out = Buffer.create data_len in
  let bad = ref 0 in
  let off = ref 0 and remaining = ref data_len in
  (try
     while !remaining > 0 do
       let take = min m !remaining in
       let cw_len = take + c.npar in
       if !off + cw_len > Bytes.length coded then raise Exit;
       let cw = Bytes.sub coded !off cw_len in
       (match decode c cw with
       | Ok_clean | Corrected _ -> ()
       | Uncorrectable -> incr bad);
       Buffer.add_subbytes out cw 0 take;
       off := !off + cw_len;
       remaining := !remaining - take
     done
   with Exit -> incr bad);
  if !bad = 0 then Ok (Buffer.contents out) else Error !bad
