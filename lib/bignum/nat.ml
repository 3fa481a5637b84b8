(* Little-endian limbs in base 2^26. The invariant maintained everywhere
   is that the most significant limb is non-zero (zero is [||]), so
   Array-level equality is numeric equality. 26-bit limbs keep every
   intermediate product within OCaml's 63-bit native int:
   2^26 * 2^26 + carries < 2^53. *)

type t = int array

let limb_bits = 26
let base = 1 lsl limb_bits
let limb_mask = base - 1
let zero : t = [||]

let normalize (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int i =
  if i < 0 then invalid_arg "Nat.of_int: negative";
  if i = 0 then zero
  else begin
    let rec limbs acc v = if v = 0 then List.rev acc else limbs ((v land limb_mask) :: acc) (v lsr limb_bits) in
    Array.of_list (limbs [] i)
  end

let one = of_int 1
let two = of_int 2
let is_zero a = Array.length a = 0

let to_int a =
  (* max_int has 62 bits: at most 3 limbs (78 bits) could overflow, so
     recompose carefully. *)
  let n = Array.length a in
  if n = 0 then Some 0
  else if n > 3 then None
  else begin
    let v = ref 0 and ok = ref true in
    for i = n - 1 downto 0 do
      if !v > max_int lsr limb_bits then ok := false
      else begin
        let shifted = !v lsl limb_bits in
        if shifted > max_int - a.(i) then ok := false else v := shifted + a.(i)
      end
    done;
    if !ok then Some !v else None
  end

let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)
  end

let equal a b = compare a b = 0

let bit_length a =
  let n = Array.length a in
  if n = 0 then 0
  else begin
    let top = a.(n - 1) in
    let rec width w = if top lsr w = 0 then w else width (w + 1) in
    ((n - 1) * limb_bits) + width 1
  end

let test_bit a i =
  let limb = i / limb_bits and off = i mod limb_bits in
  limb < Array.length a && (a.(limb) lsr off) land 1 = 1

let is_even a = Array.length a = 0 || a.(0) land 1 = 0

let add a b =
  let la = Array.length a and lb = Array.length b in
  let lr = max la lb + 1 in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 2 do
    let av = if i < la then a.(i) else 0 in
    let bv = if i < lb then b.(i) else 0 in
    let s = av + bv + !carry in
    r.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  r.(lr - 1) <- !carry;
  normalize r

let succ a = add a one

let sub a b =
  let la = Array.length a and lb = Array.length b in
  if compare a b < 0 then invalid_arg "Nat.sub: negative result";
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let bv = if i < lb then b.(i) else 0 in
    let d = a.(i) - bv - !borrow in
    if d < 0 then begin
      r.(i) <- d + base;
      borrow := 1
    end
    else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  normalize r

let pred a = sub a one

let mul_schoolbook a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let t = r.(i + j) + (ai * b.(j)) + !carry in
        r.(i + j) <- t land limb_mask;
        carry := t lsr limb_bits
      done;
      r.(i + lb) <- !carry
    done;
    normalize r
  end

let karatsuba_threshold = 32

(* Split a into (low [0,k), high [k,..)). *)
let split_at a k =
  let n = Array.length a in
  if n <= k then (a, zero)
  else (normalize (Array.sub a 0 k), Array.sub a k (n - k))

let shift_limbs a k =
  if is_zero a then zero
  else begin
    let n = Array.length a in
    let r = Array.make (n + k) 0 in
    Array.blit a 0 r k n;
    r
  end

let rec mul a b =
  let la = Array.length a and lb = Array.length b in
  if la < karatsuba_threshold || lb < karatsuba_threshold then
    mul_schoolbook a b
  else begin
    let k = (max la lb + 1) / 2 in
    let a0, a1 = split_at a k and b0, b1 = split_at b k in
    let z0 = mul a0 b0 in
    let z2 = mul a1 b1 in
    let z1 = sub (mul (add a0 a1) (add b0 b1)) (add z0 z2) in
    add (add z0 (shift_limbs z1 k)) (shift_limbs z2 (2 * k))
  end

let shift_left a bits =
  if bits < 0 then invalid_arg "Nat.shift_left: negative shift";
  if is_zero a || bits = 0 then a
  else begin
    let limb_shift = bits / limb_bits and bit_shift = bits mod limb_bits in
    let la = Array.length a in
    let r = Array.make (la + limb_shift + 1) 0 in
    for i = 0 to la - 1 do
      let v = a.(i) lsl bit_shift in
      r.(i + limb_shift) <- r.(i + limb_shift) lor (v land limb_mask);
      r.(i + limb_shift + 1) <- v lsr limb_bits
    done;
    normalize r
  end

let shift_right a bits =
  if bits < 0 then invalid_arg "Nat.shift_right: negative shift";
  if is_zero a || bits = 0 then a
  else begin
    let limb_shift = bits / limb_bits and bit_shift = bits mod limb_bits in
    let la = Array.length a in
    if limb_shift >= la then zero
    else begin
      let lr = la - limb_shift in
      let r = Array.make lr 0 in
      for i = 0 to lr - 1 do
        let lo = a.(i + limb_shift) lsr bit_shift in
        let hi =
          if bit_shift = 0 || i + limb_shift + 1 >= la then 0
          else (a.(i + limb_shift + 1) lsl (limb_bits - bit_shift)) land limb_mask
        in
        r.(i) <- lo lor hi
      done;
      normalize r
    end
  end

(* Short division by a single limb. *)
let divmod_limb a d =
  let la = Array.length a in
  let q = Array.make la 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!r lsl limb_bits) lor a.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (normalize q, of_int !r)

(* Knuth TAOCP 4.3.1 Algorithm D, specialised to base 2^26. Requires
   len b >= 2 and a >= b. *)
let divmod_knuth a b =
  let n = Array.length b in
  let m = Array.length a - n in
  (* D1: normalise so the top limb of v is >= base/2. *)
  let s =
    let top = b.(n - 1) in
    let rec leading w = if top lsr w <> 0 then limb_bits - 1 - w else leading (w - 1) in
    leading (limb_bits - 1)
  in
  let v =
    let v = Array.make n 0 in
    for i = n - 1 downto 0 do
      let hi = b.(i) lsl s in
      let lo = if i > 0 && s > 0 then b.(i - 1) lsr (limb_bits - s) else 0 in
      v.(i) <- (hi land limb_mask) lor lo
    done;
    v
  in
  let u =
    let u = Array.make (m + n + 1) 0 in
    u.(m + n) <- (if s > 0 then a.(m + n - 1) lsr (limb_bits - s) else 0);
    for i = m + n - 1 downto 0 do
      let hi = a.(i) lsl s in
      let lo = if i > 0 && s > 0 then a.(i - 1) lsr (limb_bits - s) else 0 in
      u.(i) <- (hi land limb_mask) lor lo
    done;
    u
  in
  let q = Array.make (m + 1) 0 in
  for j = m downto 0 do
    (* D3: estimate qhat from the top two limbs. *)
    let t = (u.(j + n) lsl limb_bits) lor u.(j + n - 1) in
    let qhat = ref (t / v.(n - 1)) and rhat = ref (t mod v.(n - 1)) in
    let rec adjust () =
      if
        !qhat >= base
        || !qhat * v.(n - 2) > (!rhat lsl limb_bits) lor u.(j + n - 2)
      then begin
        decr qhat;
        rhat := !rhat + v.(n - 1);
        if !rhat < base then adjust ()
      end
    in
    adjust ();
    (* D4: multiply and subtract. *)
    let borrow = ref 0 and carry = ref 0 in
    for i = 0 to n - 1 do
      let p = (!qhat * v.(i)) + !carry in
      carry := p lsr limb_bits;
      let d = u.(i + j) - (p land limb_mask) - !borrow in
      if d < 0 then begin
        u.(i + j) <- d + base;
        borrow := 1
      end
      else begin
        u.(i + j) <- d;
        borrow := 0
      end
    done;
    let d = u.(j + n) - !carry - !borrow in
    (* D5/D6: if the subtraction went negative, qhat was one too big. *)
    if d < 0 then begin
      u.(j + n) <- d + base;
      q.(j) <- !qhat - 1;
      let carry = ref 0 in
      for i = 0 to n - 1 do
        let sum = u.(i + j) + v.(i) + !carry in
        u.(i + j) <- sum land limb_mask;
        carry := sum lsr limb_bits
      done;
      u.(j + n) <- (u.(j + n) + !carry) land limb_mask
    end
    else begin
      u.(j + n) <- d;
      q.(j) <- !qhat
    end
  done;
  (* D8: denormalise the remainder. *)
  let r = normalize (Array.sub u 0 n) in
  (normalize q, shift_right r s)

let divmod a b =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else if Array.length b = 1 then divmod_limb a b.(0)
  else divmod_knuth a b

let rem a b = snd (divmod a b)

let mod_pow ~base:bse ~exp ~modulus =
  if is_zero modulus then raise Division_by_zero;
  if equal modulus one then zero
  else begin
    let nbits = bit_length exp in
    let result = ref one in
    let b = ref (rem bse modulus) in
    for i = 0 to nbits - 1 do
      if test_bit exp i then result := rem (mul !result !b) modulus;
      b := rem (mul !b !b) modulus
    done;
    !result
  end

(* Signed value for the extended-Euclid coefficients. *)
type signed = { neg : bool; mag : t }

let signed_of_nat mag = { neg = false; mag }

let signed_sub x y =
  (* x - y with signs. *)
  match (x.neg, y.neg) with
  | false, true -> { neg = false; mag = add x.mag y.mag }
  | true, false -> { neg = true; mag = add x.mag y.mag }
  | false, false ->
      if compare x.mag y.mag >= 0 then { neg = false; mag = sub x.mag y.mag }
      else { neg = true; mag = sub y.mag x.mag }
  | true, true ->
      if compare y.mag x.mag >= 0 then { neg = false; mag = sub y.mag x.mag }
      else { neg = true; mag = sub x.mag y.mag }

let signed_mul_nat x n = { x with mag = mul x.mag n }

let mod_inverse a ~modulus =
  if is_zero modulus then raise Division_by_zero;
  let a = rem a modulus in
  if is_zero a then None
  else begin
    (* Iterative extended Euclid on (r0, r1) with Bezout coefficients
       (t0, t1) for [a]. *)
    let rec go r0 r1 t0 t1 =
      if is_zero r1 then
        if equal r0 one then begin
          let v = if t0.neg then sub modulus (rem t0.mag modulus) else rem t0.mag modulus in
          Some (rem v modulus)
        end
        else None
      else begin
        let q, r2 = divmod r0 r1 in
        let t2 = signed_sub t0 (signed_mul_nat t1 q) in
        go r1 r2 t1 t2
      end
    in
    go modulus a (signed_of_nat zero) (signed_of_nat one)
  end

let of_bytes_be s =
  let n = String.length s in
  let acc = ref zero in
  for i = 0 to n - 1 do
    acc := add (shift_left !acc 8) (of_int (Char.code s.[i]))
  done;
  !acc

let to_bytes_be ?pad_to a =
  let nbytes = (bit_length a + 7) / 8 in
  let body = Bytes.create nbytes in
  let v = ref a in
  for i = nbytes - 1 downto 0 do
    let limb = if Array.length !v > 0 then (!v).(0) else 0 in
    Bytes.set body i (Char.chr (limb land 0xff));
    v := shift_right !v 8
  done;
  let body = Bytes.unsafe_to_string body in
  match pad_to with
  | None -> body
  | Some w ->
      if nbytes > w then invalid_arg "Nat.to_bytes_be: value too wide for pad_to";
      String.make (w - nbytes) '\x00' ^ body

let random rng ~bits =
  if bits <= 0 then invalid_arg "Nat.random: bits must be positive";
  let nbytes = (bits + 7) / 8 in
  let raw = Bytes.of_string (Crypto.Prng.bytes rng nbytes) in
  let excess = (8 * nbytes) - bits in
  Bytes.set raw 0 (Char.chr (Char.code (Bytes.get raw 0) land (0xff lsr excess)));
  of_bytes_be (Bytes.unsafe_to_string raw)

let random_below rng bound =
  if is_zero bound then invalid_arg "Nat.random_below: zero bound";
  let bits = bit_length bound in
  let rec draw () =
    let v = random rng ~bits in
    if compare v bound < 0 then v else draw ()
  in
  draw ()
