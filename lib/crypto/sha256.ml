(* SHA-256 per FIPS 180-4. 32-bit words are held in native ints (OCaml
   ints are 63-bit here) and masked back to 32 bits after each sum and
   each Σ/σ; this avoids Int32 boxing in the compression loop. *)

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
  buf : Bytes.t; (* 64-byte block buffer; finalize pads in it too *)
  mutable buf_len : int; (* bytes pending in [buf] *)
  mutable total : int; (* total message bytes absorbed *)
  w : int array; (* the last 16 words of the message schedule *)
}

let init () =
  {
    h =
      [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
         0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |];
    buf = Bytes.create 64;
    buf_len = 0;
    total = 0;
    w = Array.make 16 0;
  }

(* Rotations read the doubled word [x lor (x lsl 32)], whose bits n to
   n+31 are [x] rotated right by n, so each Σ/σ needs one mask, not one
   per rotation. It is exact: a 63-bit int drops bit 63 of the doubled
   word, and no rotation here reads above bit 25+31 = 56. *)
let[@inline] big_sigma0 x =
  let d = x lor (x lsl 32) in
  ((d lsr 2) lxor (d lsr 13) lxor (d lsr 22)) land mask

let[@inline] big_sigma1 x =
  let d = x lor (x lsl 32) in
  ((d lsr 6) lxor (d lsr 11) lxor (d lsr 25)) land mask

let[@inline] small_sigma0 x =
  let d = x lor (x lsl 32) in
  ((d lsr 7) lxor (d lsr 18)) land mask lxor (x lsr 3)

let[@inline] small_sigma1 x =
  let d = x lor (x lsl 32) in
  ((d lsr 17) lxor (d lsr 19)) land mask lxor (x lsr 10)

(* Round [t] of 64, then the feed-forward into [ctx.h]. The working
   variables are arguments, so they stay in registers. From round 16 on,
   schedule word t replaces word t-16 in the 16-slot ring [ctx.w]. Ch is
   g ^ (e & (f ^ g)) and Maj is (a & b) | (c & (a | b)). The unchecked
   reads index [k] below 64 and [w] below 16. *)
let rec rounds ctx t a b c d e f g h =
  if t = 64 then begin
    let s = ctx.h in
    s.(0) <- (s.(0) + a) land mask;
    s.(1) <- (s.(1) + b) land mask;
    s.(2) <- (s.(2) + c) land mask;
    s.(3) <- (s.(3) + d) land mask;
    s.(4) <- (s.(4) + e) land mask;
    s.(5) <- (s.(5) + f) land mask;
    s.(6) <- (s.(6) + g) land mask;
    s.(7) <- (s.(7) + h) land mask
  end
  else
    let w = ctx.w in
    let wt =
      if t < 16 then Array.unsafe_get w t
      else
        let x =
          (Array.unsafe_get w (t land 15)
          + small_sigma0 (Array.unsafe_get w ((t - 15) land 15))
          + Array.unsafe_get w ((t - 7) land 15)
          + small_sigma1 (Array.unsafe_get w ((t - 2) land 15)))
          land mask
        in
        Array.unsafe_set w (t land 15) x;
        x
    in
    let t1 = h + big_sigma1 e + (g lxor (e land (f lxor g))) + Array.unsafe_get k t + wt in
    let t2 = big_sigma0 a + ((a land b) lor (c land (a lor b))) in
    rounds ctx (t + 1) ((t1 + t2) land mask) a b c ((d + t1) land mask) e f g

(* Compress one 64-byte block starting at [off] in [src]; each word
   load is bounds-checked. *)
let compress ctx src off =
  let w = ctx.w in
  for t = 0 to 15 do
    w.(t) <- Int32.to_int (Bytes.get_int32_be src (off + (4 * t))) land mask
  done;
  let s = ctx.h in
  rounds ctx 0 s.(0) s.(1) s.(2) s.(3) s.(4) s.(5) s.(6) s.(7)

(* Absorb [len] bytes of [src] from [off]: top up a partly filled block
   buffer, compress whole blocks straight from [src], keep the rest. *)
let rec feed_bytes ctx src off len =
  if ctx.buf_len = 0 && len >= 64 then begin
    compress ctx src off;
    feed_bytes ctx src (off + 64) (len - 64)
  end
  else if len > 0 then begin
    let take = min (64 - ctx.buf_len) len in
    Bytes.blit src off ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    if ctx.buf_len = 64 then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0;
      feed_bytes ctx src (off + take) (len - take)
    end
  end

let feed ctx s =
  ctx.total <- ctx.total + String.length s;
  feed_bytes ctx (Bytes.unsafe_of_string s) 0 (String.length s)

(* One byte into the block buffer, for the length prefix. *)
let add_byte ctx v =
  Bytes.set ctx.buf ctx.buf_len (Char.unsafe_chr (v land 0xff));
  if ctx.buf_len = 63 then begin
    compress ctx ctx.buf 0;
    ctx.buf_len <- 0
  end
  else ctx.buf_len <- ctx.buf_len + 1

let add_framed ctx s =
  let n = String.length s in
  ctx.total <- ctx.total + 4;
  add_byte ctx (n lsr 24);
  add_byte ctx (n lsr 16);
  add_byte ctx (n lsr 8);
  add_byte ctx n;
  feed ctx s

let finalize ctx =
  Obs.incr c_digests;
  Obs.add c_bytes ctx.total;
  (* Padding, in the block buffer: 0x80, zeros, then the 64-bit
     big-endian bit length in the last 8 bytes of the final block. *)
  let buf = ctx.buf and n = ctx.buf_len in
  Bytes.set buf n '\x80';
  Bytes.fill buf (n + 1) (63 - n) '\x00';
  if n >= 56 then begin
    compress ctx buf 0;
    Bytes.fill buf 0 56 '\x00'
  end;
  Bytes.set_int64_be buf 56 (Int64.of_int (ctx.total * 8));
  compress ctx buf 0;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (4 * i) (Int32.of_int ctx.h.(i))
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
