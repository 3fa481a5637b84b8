(** Lamport one-time signatures (Lamport 1979, cited via Merkle [9]).

    A keypair signs exactly one message: the secret key is 256 pairs of
    random 32-byte preimages, the public key their hashes. Signing a
    message reveals one preimage per digest bit. Reusing a key leaks
    both preimages of differing bits, so {!Mss} layers a Merkle tree of
    one-time keys to obtain a many-time scheme. *)

type secret_key
type public_key

val generate : Crypto.Prng.t -> secret_key * public_key
val sign : secret_key -> string -> string
(** [sign sk msg] signs SHA-256(msg); the signature is 256 × 32 bytes. *)

val verify : public_key -> string -> signature:string -> bool

val signature_size : int
