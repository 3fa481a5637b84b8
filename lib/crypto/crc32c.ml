(* CRC-32C (Castagnoli), reflected polynomial 0x82F63B78, computed
   slicing-by-8: eight 256-entry tables fold eight input bytes per
   step. [table.(k * 256 + b)] is the CRC of byte [b] followed by [k]
   zero bytes, so the eight lookups of one step combine by xor. *)

let table =
  let t = Array.make (8 * 256) 0 in
  for b = 0 to 255 do
    let c = ref b in
    for _ = 1 to 8 do
      c := if !c land 1 = 1 then (!c lsr 1) lxor 0x82F63B78 else !c lsr 1
    done;
    t.(b) <- !c
  done;
  for i = 256 to (8 * 256) - 1 do
    let prev = t.(i - 256) in
    t.(i) <- (prev lsr 8) lxor t.(prev land 0xff)
  done;
  t

let byte s i = Char.code (String.unsafe_get s i)

let update crc s ~off ~len =
  if off < 0 || len < 0 || off > String.length s - len then invalid_arg "Crc32c.update";
  let t = table in
  let c = ref (crc lxor 0xffffffff) and i = ref off in
  let stop = off + len in
  while !i + 8 <= stop do
    let p = !i in
    let lo =
      !c lxor (byte s p lor (byte s (p + 1) lsl 8) lor (byte s (p + 2) lsl 16)
               lor (byte s (p + 3) lsl 24))
    in
    c :=
      Array.unsafe_get t ((7 * 256) + (lo land 0xff))
      lxor Array.unsafe_get t ((6 * 256) + ((lo lsr 8) land 0xff))
      lxor Array.unsafe_get t ((5 * 256) + ((lo lsr 16) land 0xff))
      lxor Array.unsafe_get t ((4 * 256) + (lo lsr 24))
      lxor Array.unsafe_get t ((3 * 256) + byte s (p + 4))
      lxor Array.unsafe_get t ((2 * 256) + byte s (p + 5))
      lxor Array.unsafe_get t (256 + byte s (p + 6))
      lxor Array.unsafe_get t (byte s (p + 7));
    i := p + 8
  done;
  while !i < stop do
    c := Array.unsafe_get t ((!c lxor byte s !i) land 0xff) lxor (!c lsr 8);
    incr i
  done;
  !c lxor 0xffffffff

let string s = update 0 s ~off:0 ~len:(String.length s)
