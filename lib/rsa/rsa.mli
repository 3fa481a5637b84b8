(** RSA signatures with SHA-256, in the style of RSASSA-PKCS1-v1_5.

    This realises the paper's PKI assumption (Section 4.2 cites RFC
    2459 [4]): users sign root digests with private keys whose public
    halves are distributed authentically by {!Pki.Keyring}. Key sizes
    here are a benchmark parameter, not a security recommendation —
    512-bit keys keep simulator experiments fast while exercising the
    same code path as 2048-bit keys. *)

type public_key = { n : Bignum.Nat.t; e : Bignum.Nat.t }
type private_key = {
  pub : public_key;
  d : Bignum.Nat.t;
  p : Bignum.Nat.t;
  q : Bignum.Nat.t;
}

type keypair = { public : public_key; private_ : private_key }

val generate : Crypto.Prng.t -> bits:int -> keypair
(** [generate rng ~bits] creates a keypair with a [bits]-bit modulus
    (e = 65537). [bits] must be at least 128 and even. *)

val key_bytes : public_key -> int
(** Width of the modulus in bytes; also the signature length. *)

val sign : private_key -> string -> string
(** [sign key msg] is the PKCS#1 v1.5-style SHA-256 signature of [msg],
    of length [key_bytes key.pub]. *)

val verify : public_key -> string -> signature:string -> bool
(** Constant-time comparison of the recovered encoding against the
    expected one. Returns [false] on any malformed input. *)
