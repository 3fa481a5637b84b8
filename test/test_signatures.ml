(* Tests for the signature stack: RSA, Lamport/Winternitz one-time
   signatures, the Merkle signature scheme, and the unified
   Signer/Keyring layer that plays the paper's PKI. *)

let rng = Crypto.Prng.create ~seed:"test-signatures"

let flip_byte s i =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
  Bytes.to_string b

(* ---- RSA -------------------------------------------------------------- *)

let keypair = lazy (Rsa.generate rng ~bits:512)

let test_rsa_sign_verify () =
  let kp = Lazy.force keypair in
  let s = Rsa.sign kp.Rsa.private_ "the quick brown fox" in
  Alcotest.(check int) "signature length = modulus width" (Rsa.key_bytes kp.Rsa.public)
    (String.length s);
  Alcotest.(check bool) "verifies" true
    (Rsa.verify kp.Rsa.public "the quick brown fox" ~signature:s)

let test_rsa_rejects_wrong_message () =
  let kp = Lazy.force keypair in
  let s = Rsa.sign kp.Rsa.private_ "message A" in
  Alcotest.(check bool) "wrong message" false (Rsa.verify kp.Rsa.public "message B" ~signature:s)

let test_rsa_rejects_corrupted_signature () =
  let kp = Lazy.force keypair in
  let s = Rsa.sign kp.Rsa.private_ "msg" in
  for i = 0 to String.length s - 1 do
    if i mod 7 = 0 then
      Alcotest.(check bool)
        (Printf.sprintf "flipped byte %d" i)
        false
        (Rsa.verify kp.Rsa.public "msg" ~signature:(flip_byte s i))
  done

let test_rsa_rejects_wrong_key () =
  let kp = Lazy.force keypair in
  let other = Rsa.generate rng ~bits:512 in
  let s = Rsa.sign kp.Rsa.private_ "msg" in
  Alcotest.(check bool) "wrong key" false (Rsa.verify other.Rsa.public "msg" ~signature:s)

let test_rsa_rejects_bad_lengths () =
  let kp = Lazy.force keypair in
  Alcotest.(check bool) "short signature" false (Rsa.verify kp.Rsa.public "m" ~signature:"xx");
  Alcotest.(check bool) "empty signature" false (Rsa.verify kp.Rsa.public "m" ~signature:"")

let test_rsa_deterministic () =
  let kp = Lazy.force keypair in
  Alcotest.(check string) "PKCS#1 v1.5 signing is deterministic"
    (Rsa.sign kp.Rsa.private_ "same") (Rsa.sign kp.Rsa.private_ "same")

(* ---- Lamport ----------------------------------------------------------- *)

let test_lamport_sign_verify () =
  let sk, pk = Hashsig.Lamport.generate rng in
  let s = Hashsig.Lamport.sign sk "hello" in
  Alcotest.(check int) "signature size" Hashsig.Lamport.signature_size (String.length s);
  Alcotest.(check bool) "verifies" true (Hashsig.Lamport.verify pk "hello" ~signature:s);
  Alcotest.(check bool) "wrong message" false (Hashsig.Lamport.verify pk "hellp" ~signature:s)

let test_lamport_rejects_corruption () =
  let sk, pk = Hashsig.Lamport.generate rng in
  let s = Hashsig.Lamport.sign sk "m" in
  Alcotest.(check bool) "flipped preimage byte" false
    (Hashsig.Lamport.verify pk "m" ~signature:(flip_byte s 100));
  Alcotest.(check bool) "truncated" false
    (Hashsig.Lamport.verify pk "m" ~signature:(String.sub s 0 64))

let test_lamport_keys_independent () =
  let sk1, _ = Hashsig.Lamport.generate rng in
  let _, pk2 = Hashsig.Lamport.generate rng in
  let s = Hashsig.Lamport.sign sk1 "m" in
  Alcotest.(check bool) "wrong public key" false (Hashsig.Lamport.verify pk2 "m" ~signature:s)

(* ---- Winternitz --------------------------------------------------------- *)

let test_winternitz_all_w () =
  List.iter
    (fun w ->
      let p = Hashsig.Winternitz.params ~w in
      let sk, pk = Hashsig.Winternitz.generate p rng in
      let s = Hashsig.Winternitz.sign sk "message" in
      Alcotest.(check int)
        (Printf.sprintf "w=%d signature size" w)
        (Hashsig.Winternitz.signature_size p)
        (String.length s);
      Alcotest.(check bool) (Printf.sprintf "w=%d verifies" w) true
        (Hashsig.Winternitz.verify pk "message" ~signature:s);
      Alcotest.(check bool)
        (Printf.sprintf "w=%d rejects wrong message" w)
        false
        (Hashsig.Winternitz.verify pk "messagf" ~signature:s))
    [ 4; 8; 16; 64; 256 ]

let test_winternitz_bad_params () =
  List.iter
    (fun w ->
      match Hashsig.Winternitz.params ~w with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "w=%d should be rejected" w)
    [ 0; 1; 2; 3; 5; 7; 512 ]

let test_winternitz_chain_counts_decrease () =
  (* Larger w means fewer chains (smaller signatures). *)
  let count w = Hashsig.Winternitz.chain_count (Hashsig.Winternitz.params ~w) in
  Alcotest.(check bool) "w=4 > w=16 > w=256" true (count 4 > count 16 && count 16 > count 256)

let test_winternitz_corruption () =
  let p = Hashsig.Winternitz.params ~w:16 in
  let sk, pk = Hashsig.Winternitz.generate p rng in
  let s = Hashsig.Winternitz.sign sk "m" in
  Alcotest.(check bool) "flipped byte" false
    (Hashsig.Winternitz.verify pk "m" ~signature:(flip_byte s 33))

(* ---- MSS ----------------------------------------------------------------- *)

let test_mss_capacity_and_exhaustion () =
  let signer = Hashsig.Mss.create ~height:3 ~w:16 rng in
  Alcotest.(check int) "capacity 2^3" 8 (Hashsig.Mss.capacity signer);
  let pk = Hashsig.Mss.public_key signer in
  for i = 1 to 8 do
    let msg = Printf.sprintf "message %d" i in
    let s = Hashsig.Mss.sign signer msg in
    Alcotest.(check bool) (Printf.sprintf "signature %d verifies" i) true
      (Hashsig.Mss.verify pk msg ~signature:s)
  done;
  Alcotest.check_raises "exhausted" Hashsig.Mss.Keys_exhausted (fun () ->
      ignore (Hashsig.Mss.sign signer "one too many"))

let test_mss_rejections () =
  let signer = Hashsig.Mss.create ~height:2 ~w:16 rng in
  let pk = Hashsig.Mss.public_key signer in
  let s = Hashsig.Mss.sign signer "genuine" in
  Alcotest.(check bool) "wrong message" false (Hashsig.Mss.verify pk "forged" ~signature:s);
  Alcotest.(check bool) "wrong root" false
    (Hashsig.Mss.verify (Crypto.Sha256.digest "other root") "genuine" ~signature:s);
  Alcotest.(check bool) "truncated" false
    (Hashsig.Mss.verify pk "genuine" ~signature:(String.sub s 0 40));
  Alcotest.(check bool) "empty" false (Hashsig.Mss.verify pk "genuine" ~signature:"");
  (* Corrupt the auth path (the tail of the wire format). *)
  Alcotest.(check bool) "corrupt auth path" false
    (Hashsig.Mss.verify pk "genuine" ~signature:(flip_byte s (String.length s - 1)))

let test_mss_signature_size_constant () =
  let signer = Hashsig.Mss.create ~height:3 ~w:16 rng in
  let expected = Hashsig.Mss.signature_size ~height:3 ~w:16 in
  for i = 1 to 4 do
    let s = Hashsig.Mss.sign signer (Printf.sprintf "m%d" i) in
    Alcotest.(check int) "constant size" expected (String.length s)
  done

let test_mss_distinct_leaves_both_verify () =
  let signer = Hashsig.Mss.create ~height:2 ~w:16 rng in
  let pk = Hashsig.Mss.public_key signer in
  let s1 = Hashsig.Mss.sign signer "same message" in
  let s2 = Hashsig.Mss.sign signer "same message" in
  Alcotest.(check bool) "distinct signatures" true (s1 <> s2);
  Alcotest.(check bool) "first verifies" true
    (Hashsig.Mss.verify pk "same message" ~signature:s1);
  Alcotest.(check bool) "second verifies" true
    (Hashsig.Mss.verify pk "same message" ~signature:s2)

(* ---- Signer / Keyring ---------------------------------------------------- *)

let schemes =
  [
    Pki.Signer.Rsa { bits = 512 };
    Pki.Signer.Mss { height = 4; w = 16 };
    Pki.Signer.Hmac_shared { key = "shared-secret" };
  ]

let test_signer_all_schemes () =
  List.iter
    (fun scheme ->
      let name = Pki.Signer.scheme_name scheme in
      let signer, verifier = Pki.Signer.generate scheme rng in
      let s = Pki.Signer.sign signer "payload" in
      Alcotest.(check int)
        (name ^ ": declared size")
        (Pki.Signer.signature_size scheme)
        (String.length s);
      Alcotest.(check bool) (name ^ ": verifies") true
        (Pki.Signer.verify verifier "payload" ~signature:s);
      Alcotest.(check bool)
        (name ^ ": rejects wrong message")
        false
        (Pki.Signer.verify verifier "payloae" ~signature:s))
    schemes

let test_signer_cross_scheme_rejection () =
  let s1, _ = Pki.Signer.generate (Pki.Signer.Hmac_shared { key = "k1" }) rng in
  let _, v2 = Pki.Signer.generate (Pki.Signer.Hmac_shared { key = "k2" }) rng in
  let s = Pki.Signer.sign s1 "m" in
  Alcotest.(check bool) "different shared keys reject" false
    (Pki.Signer.verify v2 "m" ~signature:s)

let test_keyring_setup () =
  let ring, signers = Pki.Keyring.setup ~scheme:(Pki.Signer.Hmac_shared { key = "k" }) ~users:5 rng in
  Alcotest.(check (list int)) "user ids" [ 0; 1; 2; 3; 4 ]
    (List.filter (fun id -> Pki.Keyring.find ring id <> None) (List.init 8 Fun.id));
  let s = Pki.Signer.sign signers.(3) "hello" in
  Alcotest.(check bool) "verify by id" true (Pki.Keyring.verify ring 3 "hello" ~signature:s);
  Alcotest.(check bool) "unknown user never verifies" false
    (Pki.Keyring.verify ring 99 "hello" ~signature:s)

let test_keyring_per_user_keys () =
  (* With per-user schemes, one user's signature must not verify under
     another user's identity. *)
  let ring, signers = Pki.Keyring.setup ~scheme:(Pki.Signer.Rsa { bits = 512 }) ~users:3 rng in
  let s = Pki.Signer.sign signers.(0) "m" in
  Alcotest.(check bool) "user 0 ok" true (Pki.Keyring.verify ring 0 "m" ~signature:s);
  Alcotest.(check bool) "user 1 rejects" false (Pki.Keyring.verify ring 1 "m" ~signature:s)

let test_keyring_duplicate_registration () =
  let ring = Pki.Keyring.create () in
  let _, v = Pki.Signer.generate (Pki.Signer.Hmac_shared { key = "k" }) rng in
  Pki.Keyring.register ring 0 v;
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Keyring.register: user 0 already registered") (fun () ->
      Pki.Keyring.register ring 0 v)

let suite =
  let quick name f = Alcotest.test_case name `Quick f in
  [
    quick "rsa: sign/verify" test_rsa_sign_verify;
    quick "rsa: rejects wrong message" test_rsa_rejects_wrong_message;
    quick "rsa: rejects corrupted signature" test_rsa_rejects_corrupted_signature;
    quick "rsa: rejects wrong key" test_rsa_rejects_wrong_key;
    quick "rsa: rejects bad lengths" test_rsa_rejects_bad_lengths;
    quick "rsa: deterministic" test_rsa_deterministic;
    quick "lamport: sign/verify" test_lamport_sign_verify;
    quick "lamport: rejects corruption" test_lamport_rejects_corruption;
    quick "lamport: keys independent" test_lamport_keys_independent;
    quick "winternitz: all parameters" test_winternitz_all_w;
    quick "winternitz: invalid parameters" test_winternitz_bad_params;
    quick "winternitz: chain counts shrink with w" test_winternitz_chain_counts_decrease;
    quick "winternitz: rejects corruption" test_winternitz_corruption;
    quick "mss: capacity and exhaustion" test_mss_capacity_and_exhaustion;
    quick "mss: rejections" test_mss_rejections;
    quick "mss: constant signature size" test_mss_signature_size_constant;
    quick "mss: distinct leaves verify" test_mss_distinct_leaves_both_verify;
    quick "signer: all schemes" test_signer_all_schemes;
    quick "signer: cross-scheme rejection" test_signer_cross_scheme_rejection;
    quick "keyring: setup" test_keyring_setup;
    quick "keyring: per-user keys" test_keyring_per_user_keys;
    quick "keyring: duplicate registration" test_keyring_duplicate_registration;
  ]
