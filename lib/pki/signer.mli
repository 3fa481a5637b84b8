(** Unified signature interface over the schemes built in this
    repository.

    Protocol I needs "unforgeable signatures with authentically known
    verification keys" and nothing more, so protocols are written
    against this interface and the concrete scheme is an experiment
    parameter:

    - {b RSA} — the paper's PKI assumption (RFC 2459 [4]);
    - {b MSS} — hash-based many-time signatures (Merkle [9]), no
      number theory;
    - {b HMAC-shared} — one shared secret across users; cheapest, but a
      compromised user can frame the server (kept for the `sig-schemes`
      cost comparison and deployments where users are one principal). *)

type scheme =
  | Rsa of { bits : int }
  | Mss of { height : int; w : int }
  | Hmac_shared of { key : string }

type t
(** Private signing capability of one user. *)

type verifier
(** Public verification data for one user. *)

val scheme_name : scheme -> string

val generate : scheme -> Crypto.Prng.t -> t * verifier
(** Fresh keypair (or shared-key wrapper) for one user. *)

val sign : t -> string -> string
(** @raise Hashsig.Mss.Keys_exhausted if an MSS signer runs out of
    one-time leaves. *)

val verify : verifier -> string -> signature:string -> bool
val signature_size : scheme -> int
(** Size in bytes of signatures under [scheme] (constant per scheme). *)
