(** Hexadecimal encoding of byte strings.

    All protocol messages and digests in this repository are raw byte
    strings; this module provides the canonical lowercase hex
    representation used for logging, test vectors and the CLI. *)

val encode : string -> string
(** [encode s] is the lowercase hexadecimal rendering of [s]; its length
    is [2 * String.length s]. *)

val decode : string -> string
(** [decode h] parses a hex string (upper or lower case) back into raw
    bytes.

    @raise Invalid_argument if [h] has odd length or contains a
    character outside [0-9a-fA-F]. *)
