(* Tests for the crypto substrate: SHA-256 against FIPS 180-4 vectors,
   CRC-32C against RFC 3720 vectors and a bitwise reference, HMAC
   against RFC 4231 vectors, hex codec, constant-time compare and
   the deterministic ChaCha20 PRNG. *)

let check_hex name expected got = Alcotest.(check string) name expected (Crypto.Hex.encode got)

(* ---- SHA-256 ------------------------------------------------------- *)

let test_sha_empty () =
  check_hex "empty string"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Crypto.Sha256.digest "")

let test_sha_abc () =
  check_hex "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Crypto.Sha256.digest "abc")

let test_sha_448bit () =
  check_hex "448-bit message"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Crypto.Sha256.digest "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")

let test_sha_896bit () =
  check_hex "896-bit message"
    "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
    (Crypto.Sha256.digest
       "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
        ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")

let test_sha_million_a () =
  check_hex "one million 'a'"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Crypto.Sha256.digest (String.make 1_000_000 'a'))

let test_sha_incremental () =
  (* Feeding in arbitrary chunk sizes must equal one-shot hashing. *)
  let message = String.init 1000 (fun i -> Char.chr (i mod 256)) in
  let one_shot = Crypto.Sha256.digest message in
  List.iter
    (fun chunk ->
      let ctx = Crypto.Sha256.init () in
      let rec feed pos =
        if pos < String.length message then begin
          let len = min chunk (String.length message - pos) in
          Crypto.Sha256.feed ctx (String.sub message pos len);
          feed (pos + len)
        end
      in
      feed 0;
      Alcotest.(check string)
        (Printf.sprintf "chunk size %d" chunk)
        (Crypto.Hex.encode one_shot)
        (Crypto.Hex.encode (Crypto.Sha256.finalize ctx)))
    [ 1; 3; 7; 63; 64; 65; 128; 999 ]

let test_sha_digest_list () =
  Alcotest.(check string)
    "digest_list = digest of concatenation"
    (Crypto.Hex.encode (Crypto.Sha256.digest "foobarbaz"))
    (Crypto.Hex.encode (Crypto.Sha256.digest_list [ "foo"; "bar"; "baz" ]))

let test_sha_boundary_lengths () =
  (* Padding edge cases: messages near the 64-byte block boundary. *)
  List.iter
    (fun n ->
      let m = String.make n 'x' in
      let ctx = Crypto.Sha256.init () in
      Crypto.Sha256.feed ctx m;
      Alcotest.(check string)
        (Printf.sprintf "length %d" n)
        (Crypto.Hex.encode (Crypto.Sha256.digest m))
        (Crypto.Hex.encode (Crypto.Sha256.finalize ctx)))
    [ 54; 55; 56; 57; 63; 64; 65; 119; 120; 127; 128 ]

(* Every padding branch and the multi-block path, against an outside
   implementation: the 1025 prefixes (lengths 0..1024) of the bytes
   (7i+3) land 255 are hashed and their digests concatenated; the
   expected SHA-256 of that string comes from Python's hashlib. *)
let test_sha_prefix_known_answer () =
  let src = String.init 1024 (fun i -> Char.chr (((7 * i) + 3) land 255)) in
  let digests =
    String.concat "" (List.init 1025 (fun n -> Crypto.Sha256.digest (String.sub src 0 n)))
  in
  check_hex "digest of the 1025 prefix digests"
    "66b93985351e0d35eb39e3c4698e513dae169491196dde1bcca4f2d58b5c84e7"
    (Crypto.Sha256.digest digests)

(* [add_framed] absorbs a 4-byte big-endian length, then the field. *)
let framed s =
  let n = String.length s in
  String.init 4 (fun i -> Char.chr ((n lsr (8 * (3 - i))) land 0xff)) ^ s

let prop_sha_split_feeds =
  QCheck.Test.make ~name:"sha256: feed/add_framed splits = one-shot framed digest" ~count:300
    QCheck.(list_of_size (Gen.int_bound 12) (pair bool (string_of_size (Gen.int_bound 150))))
    (fun parts ->
      let ctx = Crypto.Sha256.init () in
      List.iter
        (fun (frame, s) ->
          if frame then Crypto.Sha256.add_framed ctx s else Crypto.Sha256.feed ctx s)
        parts;
      let whole = String.concat "" (List.map (fun (frame, s) -> if frame then framed s else s) parts) in
      Crypto.Sha256.finalize ctx = Crypto.Sha256.digest whole)

(* Exact allocation of one 64-byte digest, in minor-heap words: the
   context (record, state, block buffer, 16-word schedule ring), the
   32-byte result and the [~by] option of the bytes counter. A change
   either way fails here until this figure is updated. *)
let test_sha_minor_words () =
  let s = String.make 64 'a' and n = 1000 in
  ignore (Sys.opaque_identity (Crypto.Sha256.digest s));
  let before = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Crypto.Sha256.digest s))
  done;
  let words = int_of_float (Gc.minor_words () -. before) in
  Alcotest.(check int) "minor words per 64-byte digest" 50 (words / n)

(* ---- CRC-32C --------------------------------------------------------- *)

let check_crc name expected got = Alcotest.(check string) name expected (Printf.sprintf "%08x" got)

(* RFC 3720 §B.4, plus the customary check value. *)
let test_crc_known_answers () =
  check_crc "32 x 0x00" "8a9136aa" (Crypto.Crc32c.string (String.make 32 '\x00'));
  check_crc "32 x 0xff" "62a8ab43" (Crypto.Crc32c.string (String.make 32 '\xff'));
  check_crc "bytes 0..31" "46dd794e" (Crypto.Crc32c.string (String.init 32 Char.chr));
  check_crc "bytes 31..0" "113fdb5c"
    (Crypto.Crc32c.string (String.init 32 (fun i -> Char.chr (31 - i))));
  check_crc "123456789" "e3069283" (Crypto.Crc32c.string "123456789");
  check_crc "empty" "00000000" (Crypto.Crc32c.string "")

(* The definition, one bit at a time: the reflected register shifts
   right and takes the polynomial whenever a 1 falls out. *)
let crc_bitwise s ~off ~len =
  let c = ref 0xffffffff in
  for i = off to off + len - 1 do
    c := !c lxor Char.code s.[i];
    for _ = 1 to 8 do
      c := if !c land 1 = 1 then (!c lsr 1) lxor 0x82F63B78 else !c lsr 1
    done
  done;
  !c lxor 0xffffffff

(* Every length up to 300 at every alignment: the 8-byte steps, the
   byte tail, and the slice bounds. *)
let test_crc_matches_bitwise () =
  let g = Crypto.Prng.create ~seed:"crc32c" in
  let src = String.init 320 (fun _ -> Char.chr (Crypto.Prng.int g 256)) in
  for off = 0 to 7 do
    for len = 0 to 300 do
      let want = crc_bitwise src ~off ~len in
      let got = Crypto.Crc32c.update 0 src ~off ~len in
      if got <> want then
        Alcotest.failf "off %d len %d: slicing-by-8 %08x, bitwise %08x" off len got want
    done
  done

let test_crc_split_updates () =
  let g = Crypto.Prng.create ~seed:"crc32c-split" in
  let s = String.init 200 (fun _ -> Char.chr (Crypto.Prng.int g 256)) in
  let n = String.length s in
  let one_shot = Crypto.Crc32c.string s in
  for cut = 0 to n do
    let head = Crypto.Crc32c.update 0 s ~off:0 ~len:cut in
    Alcotest.(check int)
      (Printf.sprintf "split at %d" cut)
      one_shot
      (Crypto.Crc32c.update head s ~off:cut ~len:(n - cut))
  done;
  Alcotest.check_raises "slice past the end" (Invalid_argument "Crc32c.update") (fun () ->
      ignore (Crypto.Crc32c.update 0 s ~off:(n - 1) ~len:2))

(* ---- HMAC (RFC 4231) ------------------------------------------------ *)

let test_hmac_rfc4231_case1 () =
  check_hex "RFC 4231 #1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Crypto.Hmac.mac ~key:(String.make 20 '\x0b') "Hi There")

let test_hmac_rfc4231_case2 () =
  check_hex "RFC 4231 #2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Crypto.Hmac.mac ~key:"Jefe" "what do ya want for nothing?")

let test_hmac_rfc4231_case3 () =
  check_hex "RFC 4231 #3"
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (Crypto.Hmac.mac ~key:(String.make 20 '\xaa') (String.make 50 '\xdd'))

let test_hmac_long_key () =
  (* RFC 4231 #6: key longer than the block size is hashed first. *)
  check_hex "RFC 4231 #6"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Crypto.Hmac.mac ~key:(String.make 131 '\xaa')
       "Test Using Larger Than Block-Size Key - Hash Key First")

let test_hmac_verify () =
  let key = "secret" and msg = "message" in
  let tag = Crypto.Hmac.mac ~key msg in
  Alcotest.(check bool) "accepts valid tag" true (Crypto.Hmac.verify ~key msg ~tag);
  Alcotest.(check bool) "rejects wrong message" false (Crypto.Hmac.verify ~key "massage" ~tag);
  Alcotest.(check bool) "rejects wrong key" false (Crypto.Hmac.verify ~key:"other" msg ~tag);
  let flipped = Bytes.of_string tag in
  Bytes.set flipped 0 (Char.chr (Char.code (Bytes.get flipped 0) lxor 1));
  Alcotest.(check bool) "rejects flipped bit" false
    (Crypto.Hmac.verify ~key msg ~tag:(Bytes.to_string flipped))

let test_hmac_mac_list () =
  Alcotest.(check string)
    "mac_list = mac of concatenation"
    (Crypto.Hex.encode (Crypto.Hmac.mac ~key:"k" "abcdef"))
    (Crypto.Hex.encode (Crypto.Hmac.mac_list ~key:"k" [ "ab"; "cd"; "ef" ]))

(* ---- Hex ------------------------------------------------------------ *)

let test_hex_known () =
  Alcotest.(check string) "encode" "00ff10ab" (Crypto.Hex.encode "\x00\xff\x10\xab");
  Alcotest.(check string) "decode" "\x00\xff\x10\xab" (Crypto.Hex.decode "00ff10ab");
  Alcotest.(check string) "decode uppercase" "\xde\xad" (Crypto.Hex.decode "DEAD")

let test_hex_errors () =
  Alcotest.check_raises "odd length" (Invalid_argument "Hex.decode: odd length") (fun () ->
      ignore (Crypto.Hex.decode "abc"));
  Alcotest.check_raises "bad char" (Invalid_argument "Hex.decode: invalid character 'g'")
    (fun () -> ignore (Crypto.Hex.decode "ag"))

let prop_hex_roundtrip =
  QCheck.Test.make ~name:"hex decode∘encode = id" ~count:500 QCheck.string (fun s ->
      Crypto.Hex.decode (Crypto.Hex.encode s) = s)

(* ---- Constant-time compare ----------------------------------------- *)

let test_ctime () =
  Alcotest.(check bool) "equal strings" true (Crypto.Ctime.equal "abcd" "abcd");
  Alcotest.(check bool) "unequal strings" false (Crypto.Ctime.equal "abcd" "abce");
  Alcotest.(check bool) "different lengths" false (Crypto.Ctime.equal "abc" "abcd");
  Alcotest.(check bool) "empty strings" true (Crypto.Ctime.equal "" "")

let prop_ctime_matches_equality =
  QCheck.Test.make ~name:"ctime agrees with (=)" ~count:500
    QCheck.(pair (string_of_size (Gen.int_bound 16)) (string_of_size (Gen.int_bound 16)))
    (fun (a, b) -> Crypto.Ctime.equal a b = (a = b))

(* ---- PRNG ----------------------------------------------------------- *)

let test_prng_determinism () =
  let a = Crypto.Prng.create ~seed:"seed" and b = Crypto.Prng.create ~seed:"seed" in
  Alcotest.(check string) "same seed, same stream" (Crypto.Prng.bytes a 256)
    (Crypto.Prng.bytes b 256)

let test_prng_seeds_differ () =
  let a = Crypto.Prng.create ~seed:"seed-1" and b = Crypto.Prng.create ~seed:"seed-2" in
  Alcotest.(check bool) "different seeds, different streams" false
    (Crypto.Prng.bytes a 64 = Crypto.Prng.bytes b 64)

let test_prng_split_independent () =
  let parent = Crypto.Prng.create ~seed:"seed" in
  let child1 = Crypto.Prng.split parent ~label:"a" in
  let child2 = Crypto.Prng.split parent ~label:"b" in
  let child1' = Crypto.Prng.split parent ~label:"a" in
  Alcotest.(check bool) "distinct labels differ" false
    (Crypto.Prng.bytes child1 32 = Crypto.Prng.bytes child2 32);
  let fresh = Crypto.Prng.split (Crypto.Prng.create ~seed:"seed") ~label:"a" in
  Alcotest.(check string) "same label is reproducible" (Crypto.Prng.bytes child1' 32)
    (Crypto.Prng.bytes fresh 32)

let test_prng_int_uniformity () =
  let g = Crypto.Prng.create ~seed:"uniformity" in
  let buckets = Array.make 10 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let v = Crypto.Prng.int g 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i count ->
      let expected = n / 10 in
      if abs (count - expected) > expected / 10 then
        Alcotest.failf "bucket %d has %d hits, expected about %d" i count expected)
    buckets

let test_prng_bounds () =
  let g = Crypto.Prng.create ~seed:"bounds" in
  for _ = 1 to 1000 do
    let v = Crypto.Prng.int g 7 in
    if v < 0 || v >= 7 then Alcotest.failf "int out of range: %d" v;
    let f = Crypto.Prng.float g in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "float out of range: %f" f
  done;
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Crypto.Prng.int g 0))

let test_prng_exponential_mean () =
  let g = Crypto.Prng.create ~seed:"expo" in
  let n = 20_000 in
  let total = ref 0.0 in
  for _ = 1 to n do
    total := !total +. Crypto.Prng.exponential g ~mean:5.0
  done;
  let mean = !total /. float_of_int n in
  if mean < 4.5 || mean > 5.5 then Alcotest.failf "exponential mean drifted: %f" mean

let test_prng_shuffle_permutes () =
  let g = Crypto.Prng.create ~seed:"shuffle" in
  let arr = Array.init 50 Fun.id in
  let copy = Array.copy arr in
  Crypto.Prng.shuffle g copy;
  Alcotest.(check bool) "same multiset" true
    (List.sort compare (Array.to_list copy) = Array.to_list arr);
  Alcotest.(check bool) "order changed" true (copy <> arr)

let test_prng_bernoulli_extremes () =
  let g = Crypto.Prng.create ~seed:"bern" in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 never" false (Crypto.Prng.bernoulli g ~p:0.0);
    Alcotest.(check bool) "p=1 always" true (Crypto.Prng.bernoulli g ~p:1.0)
  done

let suite =
  let quick name f = Alcotest.test_case name `Quick f in
  [
    quick "sha256: empty" test_sha_empty;
    quick "sha256: abc" test_sha_abc;
    quick "sha256: 448-bit vector" test_sha_448bit;
    quick "sha256: 896-bit vector" test_sha_896bit;
    Alcotest.test_case "sha256: million a" `Slow test_sha_million_a;
    quick "sha256: incremental feeding" test_sha_incremental;
    quick "sha256: digest_list" test_sha_digest_list;
    quick "sha256: padding boundaries" test_sha_boundary_lengths;
    quick "crc32c: known answers" test_crc_known_answers;
    quick "crc32c: slicing-by-8 = bitwise" test_crc_matches_bitwise;
    quick "crc32c: split updates" test_crc_split_updates;
    quick "hmac: rfc4231 case 1" test_hmac_rfc4231_case1;
    quick "hmac: rfc4231 case 2" test_hmac_rfc4231_case2;
    quick "hmac: rfc4231 case 3" test_hmac_rfc4231_case3;
    quick "hmac: long key" test_hmac_long_key;
    quick "hmac: verify accepts/rejects" test_hmac_verify;
    quick "hmac: mac_list" test_hmac_mac_list;
    quick "hex: known vectors" test_hex_known;
    quick "hex: error cases" test_hex_errors;
    QCheck_alcotest.to_alcotest prop_hex_roundtrip;
    quick "ctime: cases" test_ctime;
    QCheck_alcotest.to_alcotest prop_ctime_matches_equality;
    quick "prng: determinism" test_prng_determinism;
    quick "prng: seeds differ" test_prng_seeds_differ;
    quick "prng: split independence" test_prng_split_independent;
    quick "prng: uniformity" test_prng_int_uniformity;
    quick "prng: bounds" test_prng_bounds;
    quick "prng: exponential mean" test_prng_exponential_mean;
    quick "prng: shuffle permutes" test_prng_shuffle_permutes;
    quick "prng: bernoulli extremes" test_prng_bernoulli_extremes;
    quick "sha256: 1025-prefix known answer" test_sha_prefix_known_answer;
    QCheck_alcotest.to_alcotest prop_sha_split_feeds;
    quick "sha256: minor words per 64-byte digest" test_sha_minor_words;
  ]
