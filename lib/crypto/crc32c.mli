(** CRC-32C (Castagnoli; RFC 3720 §B.4), the checksum of the network
    frames, WAL records and snapshot files.

    It detects accidental corruption only: every single-bit error and
    every burst of up to 32 bits, and other damage with probability
    1 - 2{^-32}. It is not a cryptographic hash. Anyone who can change
    the bytes can recompute it, so nothing the protocols rely on may
    rest on it: the untrusted server is caught by SHA-256 Merkle roots
    and signatures ({!Sha256}). *)

val update : int -> string -> off:int -> len:int -> int
(** [update crc s ~off ~len] extends [crc], the CRC-32C of the bytes
    seen so far ([0] for none), over the [len] bytes of [s] starting at
    [off]. Splitting the input anywhere gives the one-shot result.
    @raise Invalid_argument if the slice is outside [s]. *)

val string : string -> int
(** [string s] is the CRC-32C of [s], in [0, 2{^32}). *)
