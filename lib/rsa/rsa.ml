module Nat = Bignum.Nat
module Prime = Bignum.Prime

type public_key = { n : Nat.t; e : Nat.t }

type private_key = {
  pub : public_key;
  d : Nat.t;
  p : Nat.t;
  q : Nat.t;
}

type keypair = { public : public_key; private_ : private_key }

let e_65537 = Nat.of_int 65537

let generate rng ~bits =
  if bits < 128 || bits mod 2 <> 0 then
    invalid_arg "Rsa.generate: bits must be even and >= 128";
  let half = bits / 2 in
  let rec attempt () =
    let p = Prime.generate rng ~bits:half in
    let q = Prime.generate rng ~bits:half in
    if Nat.equal p q then attempt ()
    else begin
      let n = Nat.mul p q in
      let phi = Nat.mul (Nat.pred p) (Nat.pred q) in
      match Nat.mod_inverse e_65537 ~modulus:phi with
      | None -> attempt ()
      | Some d ->
          let pub = { n; e = e_65537 } in
          { public = pub; private_ = { pub; d; p; q } }
    end
  in
  attempt ()

let key_bytes pub = (Nat.bit_length pub.n + 7) / 8

(* DER DigestInfo prefix for SHA-256 (RFC 8017 section 9.2 note 1). *)
let sha256_digest_info_prefix =
  Crypto.Hex.decode "3031300d060960864801650304020105000420"

(* EMSA-PKCS1-v1_5: 0x00 0x01 FF..FF 0x00 DigestInfo. *)
let emsa_encode ~em_len msg =
  let digest = Crypto.Sha256.digest msg in
  let t = sha256_digest_info_prefix ^ digest in
  let t_len = String.length t in
  if em_len < t_len + 11 then invalid_arg "Rsa: modulus too short for EMSA encoding";
  let ps = String.make (em_len - t_len - 3) '\xff' in
  "\x00\x01" ^ ps ^ "\x00" ^ t

let sign key msg =
  let em_len = key_bytes key.pub in
  let em = Nat.of_bytes_be (emsa_encode ~em_len msg) in
  let s = Nat.mod_pow ~base:em ~exp:key.d ~modulus:key.pub.n in
  Nat.to_bytes_be ~pad_to:em_len s

let verify pub msg ~signature =
  let em_len = key_bytes pub in
  if String.length signature <> em_len then false
  else begin
    let s = Nat.of_bytes_be signature in
    if Nat.compare s pub.n >= 0 then false
    else begin
      let em = Nat.mod_pow ~base:s ~exp:pub.e ~modulus:pub.n in
      match Nat.to_bytes_be ~pad_to:em_len em with
      | recovered -> Crypto.Ctime.equal recovered (emsa_encode ~em_len msg)
      | exception Invalid_argument _ -> false
    end
  end
