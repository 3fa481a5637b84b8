type scheme =
  | Rsa of { bits : int }
  | Mss of { height : int; w : int }
  | Hmac_shared of { key : string }

type t =
  | Rsa_signer of Rsa.private_key
  | Mss_signer of Hashsig.Mss.signer
  | Hmac_signer of string

type verifier =
  | Rsa_verifier of Rsa.public_key
  | Mss_verifier of Hashsig.Mss.public_key
  | Hmac_verifier of string

let scheme_name = function
  | Rsa { bits } -> Printf.sprintf "rsa-%d" bits
  | Mss { height; w } -> Printf.sprintf "mss-h%d-w%d" height w
  | Hmac_shared _ -> "hmac-shared"

let obs_scope = Obs.Scope.v "pki"
let c_sign_ops = Obs.counter ~scope:obs_scope "sign_ops"
let c_verify_ops = Obs.counter ~scope:obs_scope "verify_ops"
let c_keygens = Obs.counter ~scope:obs_scope "keygens"

let generate scheme rng =
  Obs.incr c_keygens;
  match scheme with
  | Rsa { bits } ->
      let kp = Rsa.generate rng ~bits in
      (Rsa_signer kp.private_, Rsa_verifier kp.public)
  | Mss { height; w } ->
      let signer = Hashsig.Mss.create ~height ~w rng in
      (Mss_signer signer, Mss_verifier (Hashsig.Mss.public_key signer))
  | Hmac_shared { key } -> (Hmac_signer key, Hmac_verifier key)

let sign signer msg =
  Obs.incr c_sign_ops;
  match signer with
  | Rsa_signer key -> Rsa.sign key msg
  | Mss_signer s -> Hashsig.Mss.sign s msg
  | Hmac_signer key -> Crypto.Hmac.mac ~key msg

let verify verifier msg ~signature =
  Obs.incr c_verify_ops;
  match verifier with
  | Rsa_verifier pub -> Rsa.verify pub msg ~signature
  | Mss_verifier root -> Hashsig.Mss.verify root msg ~signature
  | Hmac_verifier key -> Crypto.Hmac.verify ~key msg ~tag:signature

let signature_size = function
  | Rsa { bits } -> bits / 8
  | Mss { height; w } -> Hashsig.Mss.signature_size ~height ~w
  | Hmac_shared _ -> 32
