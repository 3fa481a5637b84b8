(** Authentic public-key directory — the simulated certificate
    authority.

    The paper assumes "the existence of a public key infrastructure,
    for example as in [RFC 2459]". A keyring is the end product of such
    a PKI from the protocols' point of view: an authentic, shared map
    from user identity to verification key that the untrusted server
    cannot influence. Users are identified by small integer ids, as in
    the paper's "user i", "user j". *)

type user_id = int

type t

val create : unit -> t

val register : t -> user_id -> Signer.verifier -> unit
(** @raise Invalid_argument if the user is already registered (keys are
    immutable once certified, matching a CA issuing one cert per
    user). *)

val find : t -> user_id -> Signer.verifier option

val verify : t -> user_id -> string -> signature:string -> bool
(** [verify ring i msg ~signature] is [false] when [i] is unknown —
    an unknown signer is never legitimate. *)

val setup : scheme:Signer.scheme -> users:int -> Crypto.Prng.t -> t * Signer.t array
(** [setup ~scheme ~users rng] performs the trusted-setup ceremony:
    generates a keypair per user (ids [0 .. users-1]), registers all
    verifiers, and returns the keyring together with each user's
    private signer. *)
