(* Runtime sanitizer tests: each check must catch its corruption hook,
   stay silent on honest state, and the end-to-end bitrot scenario must
   show the headline property — silent storage corruption under stale
   cached digests is invisible to every protocol but caught by the
   sanitized run. *)

open Tcvs
module T = Mtree.Merkle_btree
module S = Workload.Schedule

let contains ~needle haystack =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.equal (String.sub haystack i nn) needle || go (i + 1)) in
  go 0

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

let with_sanitize f =
  Sanitize.set_enabled true;
  Fun.protect ~finally:(fun () -> Sanitize.set_enabled false) f

(* ---- Merkle invariants -------------------------------------------------- *)

let sample_tree () =
  T.of_alist (List.init 64 (fun i -> (Printf.sprintf "k%03d" i, Printf.sprintf "v%d" i)))

let test_merkle_clean_passes () =
  Alcotest.(check bool)
    "clean tree passes" true
    (Result.is_ok (T.check_invariants (sample_tree ())))

let test_merkle_bitrot_invisible_to_plain_ops () =
  let db = sample_tree () in
  let rotten = T.debug_bitrot db in
  (* Every cached digest is stale, so ordinary operations cannot tell. *)
  Alcotest.(check string) "root digest unchanged" (T.root_digest db) (T.root_digest rotten);
  Alcotest.(check int) "size unchanged" (T.size db) (T.size rotten);
  Alcotest.(check bool) "lookups still answer" true (Option.is_some (T.find rotten "k000"))

let test_merkle_bitrot_caught_by_invariants () =
  let rotten = T.debug_bitrot (sample_tree ()) in
  match T.check_invariants rotten with
  | Ok () -> Alcotest.fail "check_invariants missed injected bitrot"
  | Error reason ->
      Alcotest.(check bool)
        "reason names the digest cache" true
        (contains ~needle:"digest" reason)

(* ---- Protocol II register ledger ---------------------------------------- *)

let test_protocol2_register_ledger () =
  let trace = Sim.Trace.create () in
  let config = Protocol2.default_config ~n:2 ~k:4 ~initial_root:"r0" in
  let p = Protocol2.create config ~user:0 ~trace ~send:ignore ~broadcast:ignore ~alarm:ignore in
  Alcotest.(check bool)
    "fresh registers consistent" true
    (Result.is_ok (Protocol2.check_registers p));
  Protocol2.debug_corrupt_sigma p;
  Alcotest.(check bool)
    "corrupted sigma caught" true
    (Result.is_error (Protocol2.check_registers p))

(* ---- Protocol III epoch bookkeeping -------------------------------------- *)

let test_protocol3_epoch_assignment () =
  let trace = Sim.Trace.create () in
  let prng = Crypto.Prng.create ~seed:"sanitize-test" in
  let keyring, signers =
    Pki.Keyring.setup ~scheme:(Pki.Signer.Hmac_shared { key = "shared" }) ~users:2 prng
  in
  let config =
    { Protocol3.n = 2; epoch_len = 50; initial_root = "r0" }
  in
  let p =
    Protocol3.create config ~user:1 ~trace ~keyring ~signer:signers.(1) ~send:ignore
      ~broadcast:ignore ~alarm:ignore
  in
  Alcotest.(check bool)
    "fresh bookkeeping consistent" true
    (Result.is_ok (Protocol3.check_epochs p));
  Protocol3.debug_corrupt_assignment p;
  Alcotest.(check bool)
    "drifted assignment caught" true
    (Result.is_error (Protocol3.check_epochs p))

(* ---- Protocol IV witness rings -------------------------------------------- *)

let test_protocol4_witness_rings () =
  let trace = Sim.Trace.create () in
  let config = Protocol4.default_config ~n:2 ~initial_root:"r0" in
  let p = Protocol4.create config ~user:0 ~trace ~send:ignore ~broadcast:ignore ~alarm:ignore in
  Alcotest.(check bool)
    "fresh rings consistent" true
    (Result.is_ok (Protocol4.check_witnesses p));
  Protocol4.debug_corrupt_witness p;
  (match Protocol4.check_witnesses p with
  | Ok () -> Alcotest.fail "duplicate witness position missed"
  | Error reason ->
      Alcotest.(check bool)
        "reason names the duplicate" true
        (contains ~needle:"duplicate" reason))

(* ---- end to end: bitrot vs the harness ----------------------------------- *)

let workload seed =
  S.generate
    { S.default_profile with S.users = 4; files = 24; mean_think = 4.0;
      offline_probability = 0.02; mean_offline = 30.0 }
    ~seed ~rounds:300

let run protocol adversary events =
  Harness.run (Harness.default_setup ~protocol ~users:4 ~adversary) ~events

let test_bitrot_needs_sanitizer () =
  let events = workload "bitrot-e2e" in
  let adversary = Adversary.Bitrot { at_op = 10 } in
  List.iter
    (fun protocol ->
      (* The plain run serves corrupted bytes under stale digests:
         ground truth deviates, yet no protocol alarm fires — by
         construction the digest arithmetic stays self-consistent.
         This holds for Protocol IV too: its witness chains are built
         from the same stale digests. *)
      let plain = run protocol adversary events in
      Alcotest.(check int)
        (Harness.protocol_name protocol ^ ": plain run raises no alarm")
        0 (List.length plain.Harness.alarms);
      Alcotest.(check bool) "yet ground truth deviates" true
        plain.Harness.oracle.Sim.Oracle.deviated;
      (* The sanitized run recomputes digests from raw bytes and
         alarms. *)
      with_sanitize (fun () ->
          let o = run protocol adversary events in
          match o.Harness.alarms with
          | [] -> Alcotest.fail "sanitized run missed the bitrot"
          | a :: _ ->
              Alcotest.(check bool)
                "alarm is attributed to the sanitizer" true
                (has_prefix ~prefix:"sanitize:" a.Sim.Engine.reason)))
    [ Harness.Protocol_1 { k = 8 }; Harness.Protocol_4 { announce_every = 4 } ]

let test_sanitizer_no_false_positives () =
  (* Honest runs under every protocol must stay alarm-free with the
     sanitizers on: the checks run after every mutation, so any
     over-strict invariant would trip here. *)
  let events = workload "sanitize-honest" in
  with_sanitize (fun () ->
      List.iter
        (fun protocol ->
          let o = run protocol Adversary.Honest events in
          Alcotest.(check int)
            (Printf.sprintf "%s honest+sanitize: no alarms" (Harness.protocol_name protocol))
            0
            (List.length o.Harness.alarms))
        [
          Harness.Protocol_1 { k = 8 };
          Harness.Protocol_2
            { k = 8; tag_mode = `Tagged; check_gctr = true; sync_trigger = `Per_user };
          Harness.Protocol_3 { epoch_len = 120 };
          Harness.Protocol_4 { announce_every = 4 };
        ])

let test_sanitizer_catches_protocol_adversaries_too () =
  (* Sanitizers must not mask ordinary detection: a tampering server is
     still caught (by the protocol or the server-side checks). *)
  let events = workload "sanitize-tamper" in
  with_sanitize (fun () ->
      let o = run (Harness.Protocol_1 { k = 8 }) (Adversary.Tamper_value { at_op = 10 }) events in
      Alcotest.(check bool) "tamper still alarms" true (List.length o.Harness.alarms > 0))

let test_toggle () =
  Alcotest.(check bool) "off by default in tests" false (Sanitize.enabled ());
  with_sanitize (fun () ->
      Alcotest.(check bool) "on inside with_sanitize" true (Sanitize.enabled ()));
  Alcotest.(check bool) "restored" false (Sanitize.enabled ())

let suite =
  [
    Alcotest.test_case "merkle: clean tree passes" `Quick test_merkle_clean_passes;
    Alcotest.test_case "merkle: bitrot invisible to plain ops" `Quick
      test_merkle_bitrot_invisible_to_plain_ops;
    Alcotest.test_case "merkle: bitrot caught by invariants" `Quick
      test_merkle_bitrot_caught_by_invariants;
    Alcotest.test_case "protocol2: register ledger" `Quick test_protocol2_register_ledger;
    Alcotest.test_case "protocol3: epoch assignment" `Quick test_protocol3_epoch_assignment;
    Alcotest.test_case "protocol4: witness rings" `Quick test_protocol4_witness_rings;
    Alcotest.test_case "bitrot: detected only with sanitizer" `Quick
      test_bitrot_needs_sanitizer;
    Alcotest.test_case "sanitizer: no false positives" `Quick
      test_sanitizer_no_false_positives;
    Alcotest.test_case "sanitizer: protocol detection intact" `Quick
      test_sanitizer_catches_protocol_adversaries_too;
    Alcotest.test_case "sanitizer: toggle" `Quick test_toggle;
  ]
