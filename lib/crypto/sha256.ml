(* SHA-256 per FIPS 180-4. 32-bit words are held in native ints (OCaml
   ints are 63-bit here) and masked after every arithmetic operation;
   this avoids Int32 boxing in the compression loop. *)

let mask = 0xffffffff

(* Hot-path observability: one field increment per finalize. [bytes]
   counts message bytes only (credited at finalize time, so the padding
   block never inflates it). *)
let obs_scope = Obs.Scope.(v "crypto" / "sha256")
let c_digests = Obs.counter ~scope:obs_scope "digests"
let c_bytes = Obs.counter ~scope:obs_scope "bytes"

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
     0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
     0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
     0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
     0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
     0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
     0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
     0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
     0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
     0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
     0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

type ctx = {
  h : int array; (* 8 state words *)
  buf : Bytes.t; (* 64-byte block buffer *)
  mutable buf_len : int; (* bytes pending in [buf] *)
  mutable total : int; (* total message bytes absorbed *)
  w : int array; (* message schedule scratch *)
}

let init () =
  {
    h =
      [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
         0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |];
    buf = Bytes.create 64;
    buf_len = 0;
    total = 0;
    w = Array.make 64 0;
  }

let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask

(* Compress one 64-byte block starting at [off] in [src]. *)
let compress ctx src off =
  let w = ctx.w in
  for t = 0 to 15 do
    let i = off + (4 * t) in
    w.(t) <-
      (Char.code (Bytes.unsafe_get src i) lsl 24)
      lor (Char.code (Bytes.unsafe_get src (i + 1)) lsl 16)
      lor (Char.code (Bytes.unsafe_get src (i + 2)) lsl 8)
      lor Char.code (Bytes.unsafe_get src (i + 3))
  done;
  for t = 16 to 63 do
    let s0 =
      rotr w.(t - 15) 7 lxor rotr w.(t - 15) 18 lxor (w.(t - 15) lsr 3)
    in
    let s1 =
      rotr w.(t - 2) 17 lxor rotr w.(t - 2) 19 lxor (w.(t - 2) lsr 10)
    in
    w.(t) <- (w.(t - 16) + s0 + w.(t - 7) + s1) land mask
  done;
  let h = ctx.h in
  let a = ref h.(0)
  and b = ref h.(1)
  and c = ref h.(2)
  and d = ref h.(3)
  and e = ref h.(4)
  and f = ref h.(5)
  and g = ref h.(6)
  and hh = ref h.(7) in
  for t = 0 to 63 do
    let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
    let ch = (!e land !f) lxor (lnot !e land !g) in
    let t1 = (!hh + s1 + ch + k.(t) + w.(t)) land mask in
    let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
    let maj = (!a land !b) lxor (!a land !c) lxor (!b land !c) in
    let t2 = (s0 + maj) land mask in
    hh := !g;
    g := !f;
    f := !e;
    e := (!d + t1) land mask;
    d := !c;
    c := !b;
    b := !a;
    a := (t1 + t2) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask;
  h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask;
  h.(7) <- (h.(7) + !hh) land mask

let feed_bytes ctx src ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length src then
    invalid_arg "Sha256.feed_bytes";
  ctx.total <- ctx.total + len;
  let pos = ref off and remaining = ref len in
  (* Top up a partially filled block buffer first. *)
  if ctx.buf_len > 0 then begin
    let need = 64 - ctx.buf_len in
    let take = min need !remaining in
    Bytes.blit src !pos ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := !pos + take;
    remaining := !remaining - take;
    if ctx.buf_len = 64 then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  while !remaining >= 64 do
    compress ctx src !pos;
    pos := !pos + 64;
    remaining := !remaining - 64
  done;
  if !remaining > 0 then begin
    Bytes.blit src !pos ctx.buf 0 !remaining;
    ctx.buf_len <- !remaining
  end

let feed ctx s =
  feed_bytes ctx (Bytes.unsafe_of_string s) ~off:0 ~len:(String.length s)

let add_framed ctx s =
  let n = String.length s in
  let hdr = Bytes.create 4 in
  Bytes.unsafe_set hdr 0 (Char.unsafe_chr ((n lsr 24) land 0xff));
  Bytes.unsafe_set hdr 1 (Char.unsafe_chr ((n lsr 16) land 0xff));
  Bytes.unsafe_set hdr 2 (Char.unsafe_chr ((n lsr 8) land 0xff));
  Bytes.unsafe_set hdr 3 (Char.unsafe_chr (n land 0xff));
  feed_bytes ctx hdr ~off:0 ~len:4;
  feed ctx s

let finalize ctx =
  Obs.incr c_digests;
  Obs.incr c_bytes ~by:ctx.total;
  let bitlen = ctx.total * 8 in
  (* Padding: 0x80, zeros, then 64-bit big-endian bit length. *)
  let pad_len =
    let rem = (ctx.total + 1 + 8) mod 64 in
    if rem = 0 then 1 else 1 + (64 - rem)
  in
  let pad = Bytes.make (pad_len + 8) '\x00' in
  Bytes.set pad 0 '\x80';
  for i = 0 to 7 do
    Bytes.set pad
      (pad_len + i)
      (Char.chr ((bitlen lsr (8 * (7 - i))) land 0xff))
  done;
  (* Bypass the total counter: feed_bytes updates it but it is no longer
     meaningful after padding. *)
  feed_bytes ctx pad ~off:0 ~len:(Bytes.length pad);
  assert (ctx.buf_len = 0);
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    let v = ctx.h.(i) in
    Bytes.set out (4 * i) (Char.chr ((v lsr 24) land 0xff));
    Bytes.set out ((4 * i) + 1) (Char.chr ((v lsr 16) land 0xff));
    Bytes.set out ((4 * i) + 2) (Char.chr ((v lsr 8) land 0xff));
    Bytes.set out ((4 * i) + 3) (Char.chr (v land 0xff))
  done;
  Bytes.unsafe_to_string out

let digest s =
  let ctx = init () in
  feed ctx s;
  finalize ctx

let digest_list parts =
  let ctx = init () in
  List.iter (feed ctx) parts;
  finalize ctx
