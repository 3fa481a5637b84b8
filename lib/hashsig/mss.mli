(** Merkle Signature Scheme (Merkle, "A certified digital signature",
    CRYPTO 1989 — the paper's reference [9]).

    A binary hash tree over 2^height Winternitz one-time public keys
    turns one-time signatures into a many-time scheme whose public key
    is a single 32-byte root. The signer is stateful: each signature
    consumes one leaf, and exhausting the tree raises
    {!Keys_exhausted}. This gives the repository a signature scheme
    built from nothing but the hash function — matching the spirit of
    the paper, whose entire verification machinery is hash-based. *)

exception Keys_exhausted

type signer
type public_key = string
(** The 32-byte Merkle root. *)

val create : height:int -> w:int -> Crypto.Prng.t -> signer
(** [create ~height ~w rng] builds a signer able to produce 2^height
    signatures with Winternitz parameter [w].
    @raise Invalid_argument if [height] is not in [1, 20]. *)

val public_key : signer -> public_key
val capacity : signer -> int

val sign : signer -> string -> string
(** Consumes the next unused leaf. The returned signature encodes the
    leaf index, the WOTS signature, the WOTS public key and the
    authentication path. @raise Keys_exhausted once all leaves are
    spent. *)

val verify : public_key -> string -> signature:string -> bool

val signature_size : height:int -> w:int -> int
(** Size in bytes of every signature produced by such a signer. *)
