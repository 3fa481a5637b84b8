(** SHA-256 (FIPS 180-4), implemented from scratch.

    The Trusted CVS protocols only require a collision-intractable hash
    function (the paper cites Devanbu et al. [2]); SHA-256 plays that
    role throughout the repository: Merkle-tree digests, state hashes
    h(M(D) ‖ ctr ‖ j), HMAC, and hash-based signatures. *)

type ctx
(** Incremental hashing context. *)

val init : unit -> ctx
val feed : ctx -> string -> unit
(** [feed ctx s] absorbs the bytes of [s]. May be called repeatedly. *)

(** [add_framed ctx s] absorbs a 4-byte big-endian length prefix
    followed by the bytes of [s] — the injective length-framed
    encoding used by Merkle-tree digests — without building an
    intermediate buffer. *)
val add_framed : ctx -> string -> unit
val finalize : ctx -> string
(** [finalize ctx] returns the 32-byte digest. The context must not be
    used afterwards. *)

val digest : string -> string
(** [digest s] is the 32-byte SHA-256 digest of [s]. *)

val digest_list : string list -> string
(** [digest_list parts] hashes the concatenation of [parts] without
    building the intermediate string. *)
