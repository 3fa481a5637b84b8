(* Integration tests for the Trusted CVS protocols: the soundness /
   completeness matrix the paper's theorems promise, the ablations that
   motivated Protocol II's design, and the CVS session layer. These run
   whole simulations through the experiment harness. *)

open Tcvs
module S = Workload.Schedule

let workload ?(users = 4) ?(rounds = 500) seed =
  S.generate
    { S.default_profile with S.users; files = 24; mean_think = 4.0; offline_probability = 0.02;
      mean_offline = 30.0 }
    ~seed ~rounds

let protocols k =
  [
    Harness.Protocol_1 { k };
    Harness.Protocol_2 { k; tag_mode = `Tagged; check_gctr = true; sync_trigger = `Per_user };
    Harness.Protocol_3 { epoch_len = 120 };
    Harness.Protocol_4 { announce_every = 4 };
  ]

let run ?(users = 4) protocol adversary events =
  Harness.run (Harness.default_setup ~protocol ~users ~adversary) ~events

(* ---- soundness: honest servers never trip an alarm ---------------------- *)

let test_soundness_all_protocols () =
  List.iter
    (fun seed ->
      let events = workload seed in
      List.iter
        (fun protocol ->
          let o = run protocol Adversary.Honest events in
          Alcotest.(check int)
            (Printf.sprintf "%s/%s: no alarms" (Harness.protocol_name protocol) seed)
            0 (List.length o.Harness.alarms);
          Alcotest.(check bool) "no deviation" false o.Harness.oracle.Sim.Oracle.deviated;
          Alcotest.(check int) "all transactions complete" o.Harness.issued_transactions
            o.Harness.completed_transactions)
        (Harness.Unverified :: protocols 8))
    [ "s1"; "s2"; "s3" ]

let test_soundness_token () =
  (* Token protocol with a sparse scripted workload. *)
  let events =
    List.init 12 (fun i ->
        { S.round = (i * 13) + 1; user = i mod 3; intent = S.Write (i mod 6) })
  in
  let o = run ~users:3 (Harness.Token_baseline { slot_len = 4 }) Adversary.Honest events in
  Alcotest.(check int) "no alarms" 0 (List.length o.Harness.alarms);
  Alcotest.(check int) "all turns served" 12 o.Harness.completed_transactions

let test_soundness_protocol3_long () =
  (* Many epochs, every user active every epoch: epoch audits must all
     pass. *)
  let events =
    List.concat
      (List.init 8 (fun e ->
           List.concat
             (List.init 4 (fun u ->
                  [
                    { S.round = (e * 120) + (u * 14) + 3; user = u; intent = S.Write u };
                    { S.round = (e * 120) + (u * 14) + 9; user = u; intent = S.Read u };
                  ]))))
  in
  let o = run (Harness.Protocol_3 { epoch_len = 120 }) Adversary.Honest events in
  Alcotest.(check int) "no alarms over 8 epochs" 0 (List.length o.Harness.alarms)

(* ---- completeness: every adversary class is caught ----------------------- *)

let adversaries =
  [
    Adversary.Tamper_value { at_op = 10 };
    Adversary.Drop_update { at_op = 10 };
    Adversary.Fork { at_op = 10; group_a = [ 0; 1 ] };
    Adversary.Rollback { at_op = 12; depth = 4; repeat = 1 };
  ]

let test_completeness_matrix () =
  let events = workload "matrix" in
  List.iter
    (fun protocol ->
      List.iter
        (fun adversary ->
          let o = run protocol adversary events in
          Alcotest.(check bool)
            (Printf.sprintf "%s detects %s" (Harness.protocol_name protocol)
               (Adversary.name adversary))
            true o.Harness.detected)
        adversaries)
    (protocols 8)

let test_unverified_misses_everything () =
  let events = workload "blind" in
  List.iter
    (fun adversary ->
      let o = run Harness.Unverified adversary events in
      Alcotest.(check bool)
        (Printf.sprintf "unverified misses %s" (Adversary.name adversary))
        false o.Harness.detected)
    adversaries

let test_token_detects () =
  let events =
    List.init 12 (fun i ->
        { S.round = (i * 13) + 1; user = i mod 3; intent = S.Write (i mod 6) })
  in
  List.iter
    (fun adversary ->
      let o = run ~users:3 (Harness.Token_baseline { slot_len = 4 }) adversary events in
      Alcotest.(check bool)
        (Printf.sprintf "token detects %s" (Adversary.name adversary))
        true o.Harness.detected)
    [ Adversary.Tamper_value { at_op = 4 }; Adversary.Drop_update { at_op = 4 } ]

(* ---- the theorem bounds --------------------------------------------------- *)

let test_k_bounded_detection () =
  (* Theorem 4.1/4.2: detection before any user completes more than k
     transactions issued after the violation. *)
  let events = workload ~rounds:800 "kbound" in
  List.iter
    (fun k ->
      List.iter
        (fun protocol ->
          List.iter
            (fun adversary ->
              let o = run protocol adversary events in
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s detected" (Harness.protocol_name protocol)
                   (Adversary.name adversary))
                true o.Harness.detected;
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s within k=%d (saw %d)"
                   (Harness.protocol_name protocol) (Adversary.name adversary) k
                   o.Harness.ops_after_violation)
                true
                (o.Harness.ops_after_violation <= k))
            adversaries)
        [
          Harness.Protocol_1 { k };
          Harness.Protocol_2 { k; tag_mode = `Tagged; check_gctr = true; sync_trigger = `Per_user };
        ])
    [ 4; 16 ]

let test_protocol3_two_epoch_bound () =
  (* Theorem 4.3: detection within two epochs of the fault, under the
     two-ops-per-user-per-epoch assumption. *)
  let epoch_len = 100 in
  let events =
    List.concat
      (List.init 8 (fun e ->
           List.concat
             (List.init 4 (fun u ->
                  [
                    { S.round = (e * epoch_len) + (u * 12) + 3; user = u; intent = S.Write u };
                    {
                      S.round = (e * epoch_len) + (u * 12) + 8;
                      user = u;
                      intent = S.Write (u + 4);
                    };
                  ]))))
  in
  List.iter
    (fun adversary ->
      let setup =
        {
          (Harness.default_setup ~protocol:(Harness.Protocol_3 { epoch_len }) ~users:4
             ~adversary)
          with
          Harness.tail_rounds = 4 * epoch_len;
        }
      in
      let o = Harness.run setup ~events in
      Alcotest.(check bool) (Adversary.name adversary ^ " detected") true o.Harness.detected;
      match (o.Harness.violation_round, o.Harness.detection_round) with
      | Some v, Some d ->
          let epochs_late = (d / epoch_len) - (v / epoch_len) in
          Alcotest.(check bool)
            (Printf.sprintf "%s within 2 epochs (was %d)" (Adversary.name adversary)
               epochs_late)
            true (epochs_late <= 2)
      | _ -> Alcotest.fail "missing rounds")
    [
      Adversary.Tamper_value { at_op = 17 };
      Adversary.Fork { at_op = 17; group_a = [ 0; 1 ] };
      Adversary.Drop_update { at_op = 17 };
    ]

(* ---- ablations ------------------------------------------------------------- *)

(* The Figure 3 replay: identical writes served from an identical
   replayed state. Untagged registers cancel; tagged ones do not. *)
let replay_script =
  let set r u k v = { Harness.at = r; by = u; what = Mtree.Vo.Set (k, v) } in
  [
    set 1 0 "a" "v"; set 3 0 "b" "v"; set 5 0 "c" "v"; set 7 0 "d" "v";
    set 9 1 "shared" "x";  (* genuine *)
    set 11 2 "shared" "x";  (* replayed *)
    set 13 3 "shared" "x";  (* replayed *)
    set 15 0 "e" "v"; set 17 1 "f" "v"; set 19 0 "g" "v"; set 21 0 "h" "v"; set 23 0 "i" "v";
  ]

let run_replay tag_mode =
  Harness.run_script
    (Harness.default_setup
       ~protocol:(Harness.Protocol_2 { k = 3; tag_mode; check_gctr = true; sync_trigger = `Per_user })
       ~users:4
       ~adversary:(Adversary.Rollback { at_op = 5; depth = 1; repeat = 2 }))
    ~script:replay_script

let test_ablation_untagged_misses_replay () =
  let o = run_replay `Untagged in
  Alcotest.(check bool) "untagged XOR cancels: replay missed" false o.Harness.detected

let test_ablation_tagged_catches_replay () =
  let o = run_replay `Tagged in
  Alcotest.(check bool) "user tagging exposes the replay" true o.Harness.detected

let test_ablation_gctr_check () =
  (* A deep rollback served to the same user is caught instantly by the
     ctr monotonicity check; without the check it still falls to the
     sync, later. *)
  let events = workload "gctr" in
  let adversary = Adversary.Rollback { at_op = 12; depth = 6; repeat = 1 } in
  let with_check =
    run (Harness.Protocol_2 { k = 8; tag_mode = `Tagged; check_gctr = true; sync_trigger = `Per_user }) adversary events
  in
  let without_check =
    run (Harness.Protocol_2 { k = 8; tag_mode = `Tagged; check_gctr = false; sync_trigger = `Per_user }) adversary events
  in
  Alcotest.(check bool) "with check detects" true with_check.Harness.detected;
  Alcotest.(check bool) "without check still detects (at sync)" true
    without_check.Harness.detected;
  match (with_check.Harness.detection_round, without_check.Harness.detection_round) with
  | Some a, Some b -> Alcotest.(check bool) "check detects no later" true (a <= b)
  | _ -> Alcotest.fail "missing detection rounds"

(* ---- workload preservation -------------------------------------------------- *)

let test_token_latency_blowup () =
  (* Section 2.2.3: a user with back-to-back intents under the token
     baseline waits a full rotation; under Protocol II it does not. *)
  let burst =
    [
      { S.round = 1; user = 0; intent = S.Write 1 };
      { S.round = 2; user = 0; intent = S.Write 2 };
      { S.round = 3; user = 0; intent = S.Write 3 };
    ]
  in
  let users = 6 in
  let token = run ~users (Harness.Token_baseline { slot_len = 4 }) Adversary.Honest burst in
  let p2 =
    run ~users
      (Harness.Protocol_2 { k = 50; tag_mode = `Tagged; check_gctr = true; sync_trigger = `Per_user })
      Adversary.Honest burst
  in
  let max_latency o =
    List.fold_left (fun acc (_, l) -> max acc l) 0 o.Harness.latencies
  in
  Alcotest.(check int) "token completes the burst" 3 token.Harness.completed_transactions;
  Alcotest.(check int) "p2 completes the burst" 3 p2.Harness.completed_transactions;
  (* Token: the third write waits ~2 full rotations (2 * 6 slots * 4
     rounds); Protocol II: a few rounds. *)
  Alcotest.(check bool)
    (Printf.sprintf "token latency (%d) dwarfs protocol-2 latency (%d)" (max_latency token)
       (max_latency p2))
    true
    (max_latency token > 5 * max_latency p2)

let test_protocol1_blocking_overhead () =
  (* Protocol I's per-operation extra message blocks the server; the
     same workload takes more messages (and no fewer rounds) than
     Protocol II. *)
  let events = workload "overhead" in
  let p1 = run (Harness.Protocol_1 { k = 1000 }) Adversary.Honest events in
  let p2 =
    run (Harness.Protocol_2 { k = 1000; tag_mode = `Tagged; check_gctr = true; sync_trigger = `Per_user })
      Adversary.Honest events
  in
  Alcotest.(check bool) "p1 sends more messages" true
    (p1.Harness.messages_sent > p2.Harness.messages_sent);
  Alcotest.(check int) "both complete everything" p1.Harness.completed_transactions
    p2.Harness.completed_transactions

(* ---- partition attack (Theorem 3.1 witness) ---------------------------------- *)

let test_partition_attack_needs_communication () =
  let schedule =
    S.partitionable
      { S.group_a = [ 0 ]; group_b = [ 1 ]; shared_file = 7; k = 4; private_files = 16 }
      ~seed:"thm31"
  in
  let fork_at = List.length (S.events_for_user schedule ~user:0) - 1 in
  let adversary = Adversary.Fork { at_op = fork_at; group_a = [ 0 ] } in
  let blind = run ~users:2 Harness.Unverified adversary schedule in
  Alcotest.(check bool) "without external communication: undetected" false
    blind.Harness.detected;
  Alcotest.(check bool) "yet the run deviates (oracle)" true
    blind.Harness.oracle.Sim.Oracle.deviated;
  List.iter
    (fun protocol ->
      let o = run ~users:2 protocol adversary schedule in
      Alcotest.(check bool)
        (Harness.protocol_name protocol ^ " detects the partition")
        true o.Harness.detected;
      Alcotest.(check bool) "within k" true (o.Harness.ops_after_violation <= 4))
    [ Harness.Protocol_1 { k = 4 }; Harness.Protocol_2 { k = 4; tag_mode = `Tagged; check_gctr = true; sync_trigger = `Per_user } ]

(* ---- exhaustive detection grid ------------------------------------------------ *)

let test_detection_grid () =
  (* Every (protocol, adversary-class, injection point, seed) cell must
     classify as a true alarm — never a false alarm, never a miss
     (injection points are chosen early enough that post-violation
     traffic reaches the next sync). *)
  List.iter
    (fun seed ->
      let events = workload ~rounds:700 seed in
      List.iter
        (fun protocol ->
          List.iter
            (fun at_op ->
              List.iter
                (fun mk ->
                  let adversary = mk at_op in
                  let o = run protocol adversary events in
                  match Harness.classify o with
                  | `True_alarm -> ()
                  | `False_alarm ->
                      Alcotest.failf "%s/%s/%s: FALSE alarm" seed
                        (Harness.protocol_name protocol) (Adversary.name adversary)
                  | `Missed ->
                      Alcotest.failf "%s/%s/%s: missed" seed
                        (Harness.protocol_name protocol) (Adversary.name adversary)
                  | `Clean ->
                      Alcotest.failf "%s/%s/%s: classified clean" seed
                        (Harness.protocol_name protocol) (Adversary.name adversary))
                [
                  (fun at_op -> Adversary.Tamper_value { at_op });
                  (fun at_op -> Adversary.Drop_update { at_op });
                  (fun at_op -> Adversary.Fork { at_op; group_a = [ 0 ] });
                  (fun at_op -> Adversary.Rollback { at_op; depth = 3; repeat = 1 });
                ])
            [ 5; 25; 60 ])
        [
          Harness.Protocol_1 { k = 6 };
          Harness.Protocol_2
            { k = 6; tag_mode = `Tagged; check_gctr = true; sync_trigger = `Per_user };
        ])
    [ "grid-a"; "grid-b" ]

(* ---- false-alarm regression under many seeds --------------------------------- *)

let test_no_false_alarms_many_seeds () =
  List.iter
    (fun seed ->
      let events = workload ~users:3 ~rounds:300 (Printf.sprintf "fa-%d" seed) in
      List.iter
        (fun protocol ->
          let o = run ~users:3 protocol Adversary.Honest events in
          if o.Harness.detected then
            Alcotest.failf "false alarm: %s seed %d: %s" (Harness.protocol_name protocol) seed
              (match o.Harness.alarms with a :: _ -> a.Sim.Engine.reason | [] -> "?"))
        (protocols 5))
    [ 1; 2; 3; 4; 5 ]

(* ---- CVS session layer --------------------------------------------------------- *)

let make_cvs_pair ?(adversary = Adversary.Honest) () =
  let engine = Sim.Engine.create ~measure:Message.encoded_size () in
  let trace = Sim.Trace.create () in
  let server =
    Server.create
      { Server.mode = `Plain; epoch_len = None; adversary }
      ~engine ~db:(Store.Shard_db.create ~branching:8 ~shards:1 [])
  in
  let config = Protocol2.default_config ~n:2 ~k:6 ~initial_root:(Server.initial_root server) in
  let s0 = Cvs.session ~engine ~base:(Protocol2.base (Protocol2.create config ~user:0 ~engine ~trace)) in
  let s1 = Cvs.session ~engine ~base:(Protocol2.base (Protocol2.create config ~user:1 ~engine ~trace)) in
  (s0, s1)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "cvs error: %a" Cvs.pp_error e

let test_cvs_commit_checkout_log () =
  let alice, bob = make_cvs_pair () in
  let r1 = ok (Cvs.commit alice ~path:"f.ml" ~content:"v1" ~log:"one") in
  Alcotest.(check int) "first revision" 1 r1;
  let content, history = ok (Cvs.checkout bob ~path:"f.ml") in
  Alcotest.(check string) "bob sees v1" "v1" content;
  Alcotest.(check int) "history head" 1 (Vcs.File_history.head_revision history);
  let r2 = ok (Cvs.commit bob ~path:"f.ml" ~content:"v2" ~log:"two") in
  Alcotest.(check int) "second revision" 2 r2;
  let entries = ok (Cvs.log alice ~path:"f.ml") in
  Alcotest.(check int) "two log entries" 2 (List.length entries)

let test_cvs_conflict_and_update () =
  let alice, bob = make_cvs_pair () in
  let _ = ok (Cvs.commit alice ~path:"f.ml" ~content:"top\nmid\nbot" ~log:"base") in
  let _ = ok (Cvs.checkout alice ~path:"f.ml") in
  let _ = ok (Cvs.checkout bob ~path:"f.ml") in
  (* Bob commits first; Alice's commit must then conflict. *)
  let _ = ok (Cvs.commit bob ~path:"f.ml" ~content:"top-bob\nmid\nbot" ~log:"bob") in
  (match Cvs.commit alice ~path:"f.ml" ~content:"top\nmid\nbot-alice" ~log:"alice" with
  | Error (Cvs.Conflict _) -> ()
  | Ok _ -> Alcotest.fail "stale commit accepted"
  | Error e -> Alcotest.failf "wrong error: %a" Cvs.pp_error e);
  (* After updating (non-overlapping edits merge), the commit goes
     through. *)
  let merged = ok (Cvs.update alice ~path:"f.ml") in
  Alcotest.(check string) "merged content" "top-bob\nmid\nbot" merged;
  let r = ok (Cvs.commit alice ~path:"f.ml" ~content:"top-bob\nmid\nbot-alice" ~log:"merged") in
  Alcotest.(check int) "third revision" 3 r

let test_cvs_list_files () =
  let alice, _ = make_cvs_pair () in
  let _ = ok (Cvs.commit alice ~path:"src/a.ml" ~content:"a" ~log:"a") in
  let _ = ok (Cvs.commit alice ~path:"src/b.ml" ~content:"b" ~log:"b") in
  let _ = ok (Cvs.commit alice ~path:"doc/readme" ~content:"r" ~log:"r") in
  Alcotest.(check (list string)) "src files" [ "src/a.ml"; "src/b.ml" ]
    (ok (Cvs.list_files alice ~prefix:"src/"));
  Alcotest.(check (list string)) "doc files" [ "doc/readme" ]
    (ok (Cvs.list_files alice ~prefix:"doc/"))

let test_cvs_detects_tamper () =
  let alice, bob = make_cvs_pair ~adversary:(Adversary.Tamper_value { at_op = 1 }) () in
  let _ = ok (Cvs.commit alice ~path:"f.ml" ~content:"v1" ~log:"one") in
  (* Operation 1 is tampered; subsequent verified traffic must
     eventually fail — at the latest when the registers sync, but the
     tampered state breaks the very next VO-root check too. *)
  let rec poke i =
    if i > 12 then Alcotest.fail "tampering never surfaced"
    else begin
      match Cvs.commit bob ~path:(Printf.sprintf "g%d.ml" i) ~content:"x" ~log:"w" with
      | Error (Cvs.Server_compromised _) -> ()
      | Ok _ | Error _ -> poke (i + 1)
    end
  in
  poke 0

let test_history_cap_bounds_snapshots () =
  (* The server keeps pre-operation snapshots for the Rollback
     adversary; the cap must bound that spine regardless of how many
     operations run. *)
  let engine = Sim.Engine.create ~measure:Message.encoded_size () in
  let trace = Sim.Trace.create () in
  let cap = Server.history_cap in
  let server =
    Server.create
      { Server.mode = `Plain; epoch_len = None; adversary = Adversary.Honest }
      ~engine ~db:(Store.Shard_db.create ~branching:8 ~shards:1 [])
  in
  let config = Protocol2.default_config ~n:1 ~k:1000 ~initial_root:(Server.initial_root server) in
  let s = Cvs.session ~engine ~base:(Protocol2.base (Protocol2.create config ~user:0 ~engine ~trace)) in
  for i = 1 to cap + 16 do
    ignore (ok (Cvs.commit s ~path:"f.ml" ~content:(string_of_int i) ~log:"c"))
  done;
  Alcotest.(check bool) "snapshots retained" true (Server.history_length server > 0);
  Alcotest.(check bool)
    (Printf.sprintf "spine bounded by cap (%d <= %d)" (Server.history_length server) cap)
    true
    (Server.history_length server <= cap)

(* ---- sync driver: one real user among scripted peers ---------------------- *)

(* User 1 runs the real Protocol I or II agent; every other user is a
   scripted peer that broadcasts [(round, peer, message)] entries of
   [script] when activated in that round (delivery is the next round).
   Returns the real user's completed sync sessions and the alarms after
   [rounds] rounds. *)
let scripted_sync protocol ~n ?timeout ~script ~rounds () =
  let engine = Sim.Engine.create () in
  let trace = Sim.Trace.create () in
  let peer id =
    Sim.Engine.register engine (Sim.Id.User id)
      {
        Sim.Engine.on_message = (fun ~round:_ ~src:_ _ -> ());
        on_activate =
          (fun ~round ->
            List.iter
              (fun (at, from, msg) ->
                if at = round && from = id then
                  Sim.Engine.broadcast engine ~src:(Sim.Id.User id) msg)
              script);
      }
  in
  peer 0;
  let syncs =
    match protocol with
    | `P1 ->
        let keyring, signers =
          Pki.Keyring.setup ~scheme:(Pki.Signer.Hmac_shared { key = "sync" }) ~users:n
            (Crypto.Prng.create ~seed:"sync")
        in
        let p =
          Protocol1.create
            { Protocol1.n; k = 8; initial_root = State_tag.zero; elected_signer = 0 }
            ~user:1 ~engine ~trace ~keyring ~signer:signers.(1)
        in
        Sync_session.set_timeout (Protocol1.sync p) ~rounds:timeout;
        fun () -> Sync_session.syncs_completed (Protocol1.sync p)
    | `P2 ->
        let p =
          Protocol2.create
            (Protocol2.default_config ~n ~k:8 ~initial_root:State_tag.zero)
            ~user:1 ~engine ~trace
        in
        Sync_session.set_timeout (Protocol2.sync p) ~rounds:timeout;
        fun () -> Sync_session.syncs_completed (Protocol2.sync p)
  in
  for id = 2 to n - 1 do
    peer id
  done;
  for _ = 1 to rounds do
    Sim.Engine.step engine
  done;
  (syncs (), Sim.Engine.alarms engine)

let sync_begin ~session ~from = Message.Sync_begin { session; initiator = from }

let sync_report protocol ~session ~from =
  match protocol with
  | `P1 -> Message.Sync_count { session; reporter = from; lctr = 0 }
  | `P2 -> Message.Sync_registers { session; reporter = from; registers = State_tag.no_registers }

let sync_verdict ~session ~from = Message.Sync_verdict { session; reporter = from; success = true }

let protocol_label = function `P1 -> "protocol 1" | `P2 -> "protocol 2"

(* The TCP wedge: peer A (user 0) resolves session 0 and starts session
   1 while peer C's (user 2) session-0 verdict is still on its way to
   user B (user 1). In wedge order A's session-1 begin and report reach
   B before C's verdict; in benign order they arrive after it. B must
   complete both sessions either way: merged into session 0, A's
   session-1 report would be lost when session 0 resolves, and B would
   wait for it forever. *)
let test_sync_next_session_held protocol () =
  let report = sync_report protocol in
  let script ~wedge =
    let a_next, c_verdict = if wedge then (4, 5) else (5, 4) in
    [
      (1, 0, sync_begin ~session:0 ~from:0);
      (1, 0, report ~session:0 ~from:0);
      (1, 2, report ~session:0 ~from:2);
      (3, 0, sync_verdict ~session:0 ~from:0);
      (a_next, 0, sync_begin ~session:1 ~from:0);
      (a_next, 0, report ~session:1 ~from:0);
      (c_verdict, 2, sync_verdict ~session:0 ~from:2);
      (7, 2, report ~session:1 ~from:2);
      (9, 0, sync_verdict ~session:1 ~from:0);
      (9, 2, sync_verdict ~session:1 ~from:2);
    ]
  in
  List.iter
    (fun wedge ->
      let syncs, alarms = scripted_sync protocol ~n:3 ~script:(script ~wedge) ~rounds:15 () in
      let order = if wedge then "wedge order" else "benign order" in
      Alcotest.(check int)
        (Printf.sprintf "%s, %s: both sessions complete" (protocol_label protocol) order)
        2 syncs;
      Alcotest.(check int) (order ^ ": no alarm") 0 (List.length alarms))
    [ true; false ]

(* A peer that starts a session and never reports. B activates the
   session in round 2, so a 5-round timeout fires in round 8 and not
   before; without a timeout B blocks silently, the bare paper
   protocol. *)
let test_sync_timeout protocol () =
  let script = [ (1, 0, sync_begin ~session:0 ~from:0) ] in
  let name = match protocol with `P1 -> "protocol-1" | `P2 -> "protocol-2" in
  let _, early = scripted_sync protocol ~n:2 ~timeout:5 ~script ~rounds:7 () in
  Alcotest.(check int) "no alarm within the limit" 0 (List.length early);
  (match scripted_sync protocol ~n:2 ~timeout:5 ~script ~rounds:8 () with
  | _, [ alarm ] ->
      Alcotest.(check int) "alarm round" 8 alarm.Sim.Engine.at_round;
      Alcotest.(check string) "alarm text"
        (name
       ^ " sync stuck for 6 rounds — external broadcast channel partitioned or a peer is \
          withholding its report")
        alarm.Sim.Engine.reason
  | _, alarms -> Alcotest.failf "expected one alarm, got %d" (List.length alarms));
  let syncs, silent = scripted_sync protocol ~n:2 ~script ~rounds:200 () in
  Alcotest.(check int) "no timeout: no alarm" 0 (List.length silent);
  Alcotest.(check int) "no timeout: the session never resolves" 0 syncs

(* ---- edge cases ------------------------------------------------------------ *)

let test_k_equals_one () =
  (* k = 1: a sync after every operation; maximal detection speed,
     maximal broadcast cost, still sound. *)
  let events = workload ~rounds:200 "k1" in
  let honest =
    run (Harness.Protocol_2 { k = 1; tag_mode = `Tagged; check_gctr = true; sync_trigger = `Per_user })
      Adversary.Honest events
  in
  Alcotest.(check bool) "honest clean at k=1" false honest.Harness.detected;
  let attacked =
    run (Harness.Protocol_2 { k = 1; tag_mode = `Tagged; check_gctr = true; sync_trigger = `Per_user })
      (Adversary.Fork { at_op = 10; group_a = [ 0; 1 ] })
      events
  in
  Alcotest.(check bool) "detected at k=1" true attacked.Harness.detected;
  Alcotest.(check bool) "within one op" true (attacked.Harness.ops_after_violation <= 1)

let test_single_user () =
  (* n = 1 degenerates to authenticated data publishing: Protocol II's
     sync check is a self-check, still sound and complete. *)
  let events = workload ~users:1 ~rounds:200 "solo" in
  let honest =
    run ~users:1
      (Harness.Protocol_2 { k = 4; tag_mode = `Tagged; check_gctr = true; sync_trigger = `Per_user })
      Adversary.Honest events
  in
  Alcotest.(check bool) "solo honest clean" false honest.Harness.detected;
  let attacked =
    run ~users:1
      (Harness.Protocol_2 { k = 4; tag_mode = `Tagged; check_gctr = true; sync_trigger = `Per_user })
      (Adversary.Drop_update { at_op = 5 })
      events
  in
  Alcotest.(check bool) "solo drop detected" true attacked.Harness.detected

let test_adversary_at_first_op () =
  (* The very first operation is already protected (the elected user's
     signature / the initial state tag). *)
  let events = workload "first-op" in
  List.iter
    (fun protocol ->
      let o = run protocol (Adversary.Tamper_value { at_op = 0 }) events in
      Alcotest.(check bool)
        (Harness.protocol_name protocol ^ " catches tamper@0")
        true o.Harness.detected)
    (protocols 4)

let test_eight_users () =
  let events = workload ~users:8 ~rounds:400 "crowd" in
  List.iter
    (fun protocol ->
      let honest = run ~users:8 protocol Adversary.Honest events in
      Alcotest.(check bool)
        (Harness.protocol_name protocol ^ " clean with 8 users")
        false honest.Harness.detected;
      let attacked =
        run ~users:8 protocol (Adversary.Fork { at_op = 20; group_a = [ 0; 1; 2; 3 ] }) events
      in
      Alcotest.(check bool)
        (Harness.protocol_name protocol ^ " detects with 8 users")
        true attacked.Harness.detected)
    [ Harness.Protocol_1 { k = 8 }; Harness.Protocol_2 { k = 8; tag_mode = `Tagged; check_gctr = true; sync_trigger = `Per_user } ]

let test_protocol1_with_real_signatures () =
  (* The behaviour experiments use HMAC for speed; spot-check the whole
     protocol stack over RSA and hash-based signatures. *)
  let events = workload ~rounds:150 "real-sigs" in
  List.iter
    (fun scheme ->
      let honest_setup =
        {
          (Harness.default_setup ~protocol:(Harness.Protocol_1 { k = 6 }) ~users:4
             ~adversary:Adversary.Honest)
          with
          Harness.scheme;
        }
      in
      let honest = Harness.run honest_setup ~events in
      Alcotest.(check bool)
        (Pki.Signer.scheme_name scheme ^ ": honest clean")
        false honest.Harness.detected;
      let attacked_setup =
        {
          (Harness.default_setup ~protocol:(Harness.Protocol_1 { k = 6 }) ~users:4
             ~adversary:(Adversary.Tamper_value { at_op = 8 }))
          with
          Harness.scheme;
        }
      in
      let attacked = Harness.run attacked_setup ~events in
      Alcotest.(check bool)
        (Pki.Signer.scheme_name scheme ^ ": tamper detected")
        true attacked.Harness.detected)
    [ Pki.Signer.Rsa { bits = 512 }; Pki.Signer.Mss { height = 8; w = 16 } ]

let test_set_many_through_protocol () =
  (* Atomic batches flow end to end: one trace transaction, verified,
     counted once. *)
  let script =
    [
      { Harness.at = 1; by = 0; what = Mtree.Vo.Set ("a", "1") };
      {
        Harness.at = 3;
        by = 1;
        what = Mtree.Vo.Set_many [ ("b", "2"); ("c", "3"); ("d", "4") ];
      };
      { Harness.at = 5; by = 0; what = Mtree.Vo.Get "c" };
    ]
  in
  let o =
    Harness.run_script
      (Harness.default_setup
         ~protocol:(Harness.Protocol_2 { k = 50; tag_mode = `Tagged; check_gctr = true; sync_trigger = `Per_user })
         ~users:2 ~adversary:Adversary.Honest)
      ~script
  in
  Alcotest.(check int) "three transactions" 3 o.Harness.completed_transactions;
  Alcotest.(check bool) "clean" false o.Harness.detected;
  Alcotest.(check bool) "oracle agrees (read sees the batch)" false
    o.Harness.oracle.Sim.Oracle.deviated

let test_global_k_trigger () =
  (* The stronger requirement of Section 2.2.1: with the global trigger,
     detection happens before k further operations occur on the data
     *in total*, not merely k per user. *)
  let events = workload ~users:4 ~rounds:800 "global-k" in
  let adversary = Adversary.Fork { at_op = 15; group_a = [ 0; 1 ] } in
  let k = 6 in
  let strong =
    run
      (Harness.Protocol_2
         { k; tag_mode = `Tagged; check_gctr = true; sync_trigger = `Global })
      adversary events
  in
  Alcotest.(check bool) "strong trigger detects" true strong.Harness.detected;
  (* A forking server splits the counter, so the trigger bounds the
     total per branch: <= 2k + n under a two-way fork (vs up to n*k for
     the per-user trigger). *)
  Alcotest.(check bool)
    (Printf.sprintf "total ops after violation %d <= 2k + n"
       strong.Harness.total_ops_after_violation)
    true
    (strong.Harness.total_ops_after_violation <= (2 * k) + 4);
  (* Honest runs stay clean under the global trigger too. *)
  let honest =
    run
      (Harness.Protocol_2
         { k; tag_mode = `Tagged; check_gctr = true; sync_trigger = `Global })
      Adversary.Honest events
  in
  Alcotest.(check bool) "honest clean under global trigger" false honest.Harness.detected

let test_freeze_epoch_detected () =
  (* A server that stops announcing new epochs postpones Protocol III's
     audits forever; the users' partial-synchrony cross-check catches
     the lag within about one epoch. *)
  let epoch_len = 100 in
  let events =
    List.concat
      (List.init 6 (fun e ->
           List.concat
             (List.init 4 (fun u ->
                  [
                    { S.round = (e * epoch_len) + (u * 12) + 3; user = u; intent = S.Write u };
                    {
                      S.round = (e * epoch_len) + (u * 12) + 8;
                      user = u;
                      intent = S.Write (u + 4);
                    };
                  ]))))
  in
  let o =
    run (Harness.Protocol_3 { epoch_len }) (Adversary.Freeze_epoch { at_epoch = 1 }) events
  in
  Alcotest.(check bool) "frozen epoch detected" true o.Harness.detected;
  (match o.Harness.alarms with
  | a :: _ ->
      Alcotest.(check bool)
        ("alarm names the lag: " ^ a.Sim.Engine.reason)
        true
        (String.length a.Sim.Engine.reason > 10
        && String.sub a.Sim.Engine.reason 0 12 = "server epoch")
  | [] -> Alcotest.fail "no alarm");
  (* A freeze far in the future is indistinguishable from honesty. *)
  let quiet =
    run (Harness.Protocol_3 { epoch_len }) (Adversary.Freeze_epoch { at_epoch = 1000 })
      events
  in
  Alcotest.(check bool) "harmless freeze stays clean" false quiet.Harness.detected

(* ---- availability violations (stall) and response timeouts -------------- *)

let test_stall_detected_by_timeout () =
  let events = workload "stall" in
  List.iter
    (fun protocol ->
      let o = run protocol (Adversary.Stall { at_op = 10 }) events in
      Alcotest.(check bool)
        (Harness.protocol_name protocol ^ " detects the stalled transaction")
        true o.Harness.detected;
      match o.Harness.alarms with
      | a :: _ ->
          Alcotest.(check bool) "alarm mentions availability" true
            (String.length a.Sim.Engine.reason > 0
            && String.starts_with ~prefix:"availability" a.Sim.Engine.reason)
      | [] -> Alcotest.fail "no alarm")
    (Harness.Unverified :: protocols 8)

let test_stall_missed_without_timeout () =
  (* The bare paper protocols (no timeout) cannot see a pure stall: the
     victim just waits forever and other users' views stay perfectly
     consistent. *)
  let events = workload "stall-2" in
  let setup =
    {
      (Harness.default_setup
         ~protocol:(Harness.Protocol_2 { k = 8; tag_mode = `Tagged; check_gctr = true; sync_trigger = `Per_user })
         ~users:4
         ~adversary:(Adversary.Stall { at_op = 10 }))
      with
      Harness.response_timeout = None;
    }
  in
  let o = Harness.run setup ~events in
  Alcotest.(check bool) "no timeout, no detection" false o.Harness.detected

let test_timeout_no_false_positive () =
  (* Honest servers answer within 2 rounds; a 64-round budget must never
     fire, even for Protocol I's blocked queues and token slots. *)
  let events = workload "timeout-fp" in
  List.iter
    (fun protocol ->
      let o = run protocol Adversary.Honest events in
      Alcotest.(check bool)
        (Harness.protocol_name protocol ^ ": no timeout false alarm")
        false o.Harness.detected)
    (protocols 8)

(* ---- fault localisation (future direction 1) ----------------------------- *)

let test_fault_localization_window () =
  (* With k = 4, the fault at op 20 happens after at least one
     successful sync; the alarm must name a non-trivial certified
     prefix. *)
  let events = workload "localize" in
  let o =
    run
      (Harness.Protocol_2 { k = 4; tag_mode = `Tagged; check_gctr = true; sync_trigger = `Per_user })
      (Adversary.Fork { at_op = 20; group_a = [ 0; 1 ] })
      events
  in
  Alcotest.(check bool) "detected" true o.Harness.detected;
  match o.Harness.alarms with
  | a :: _ ->
      let r = a.Sim.Engine.reason in
      (* Expect "... fault after operation N ..." with N >= 4 (a sync at
         k = 4 certified a prefix before the op-20 fork). *)
      let marker = "fault after operation " in
      let window =
        let rec find i =
          if i + String.length marker > String.length r then None
          else if String.sub r i (String.length marker) = marker then begin
            let start = i + String.length marker in
            let rec digits j = if j < String.length r && r.[j] >= '0' && r.[j] <= '9' then digits (j + 1) else j in
            let stop = digits start in
            int_of_string_opt (String.sub r start (stop - start))
          end
          else find (i + 1)
        in
        find 0
      in
      (match window with
      | Some n -> Alcotest.(check bool) ("certified prefix >= 4 in: " ^ r) true (n >= 4)
      | None -> Alcotest.failf "alarm lacks a localisation window: %s" r)
  | [] -> Alcotest.fail "no alarm"

(* ---- extended CVS verbs ---------------------------------------------------- *)

let test_cvs_edit_and_workspace_commit () =
  let alice, _ = make_cvs_pair () in
  let _ = ok (Cvs.commit alice ~path:"f.ml" ~content:"v1" ~log:"one") in
  let _ = ok (Cvs.checkout alice ~path:"f.ml") in
  ok (Cvs.edit alice ~path:"f.ml" ~content:"v1 locally edited");
  let p = ok (Cvs.diff_local alice ~path:"f.ml") in
  Alcotest.(check bool) "diff shows a change" true
    (List.exists (function Vdiff.Patch.Copy _ -> false | _ -> true) (Vdiff.Patch.ops p));
  let rev = ok (Cvs.commit_workspace alice ~path:"f.ml" ~log:"local work") in
  Alcotest.(check int) "second revision" 2 rev;
  let content, _ = ok (Cvs.checkout alice ~path:"f.ml") in
  Alcotest.(check string) "committed the local edit" "v1 locally edited" content;
  match Cvs.edit alice ~path:"never-seen" ~content:"x" with
  | Error (Cvs.Conflict _) -> ()
  | _ -> Alcotest.fail "editing a non-checked-out file must fail"

let test_cvs_checkout_at_revision () =
  let alice, _ = make_cvs_pair () in
  let _ = ok (Cvs.commit alice ~path:"f.ml" ~content:"v1" ~log:"r1") in
  let _ = ok (Cvs.commit alice ~path:"f.ml" ~content:"v2" ~log:"r2") in
  let _ = ok (Cvs.commit alice ~path:"f.ml" ~content:"v3" ~log:"r3") in
  Alcotest.(check string) "revision 1" "v1" (ok (Cvs.checkout_at alice ~path:"f.ml" ~revision:1));
  Alcotest.(check string) "revision 2" "v2" (ok (Cvs.checkout_at alice ~path:"f.ml" ~revision:2));
  match Cvs.checkout_at alice ~path:"f.ml" ~revision:9 with
  | Error (Cvs.Corrupt_history _) -> ()
  | _ -> Alcotest.fail "out-of-range revision must fail"

let test_cvs_commit_many () =
  let alice, _ = make_cvs_pair () in
  let revs =
    ok
      (Cvs.commit_many alice
         ~files:[ ("a.ml", "a"); ("b.ml", "b"); ("c.ml", "c") ]
         ~log:"bulk import")
  in
  Alcotest.(check (list int)) "all at revision 1" [ 1; 1; 1 ] revs;
  Alcotest.(check (list string)) "all present" [ "a.ml"; "b.ml"; "c.ml" ]
    (ok (Cvs.list_files alice ~prefix:""))

let test_cvs_commit_atomic () =
  let alice, bob = make_cvs_pair () in
  let revs =
    ok
      (Cvs.commit_atomic alice
         ~files:[ ("x.ml", "x1"); ("y.ml", "y1") ]
         ~log:"atomic pair")
  in
  Alcotest.(check (list int)) "both at revision 1" [ 1; 1 ] revs;
  (* One protocol operation for the whole commit: bob sees both files. *)
  let cx, _ = ok (Cvs.checkout bob ~path:"x.ml") in
  let cy, _ = ok (Cvs.checkout bob ~path:"y.ml") in
  Alcotest.(check string) "x" "x1" cx;
  Alcotest.(check string) "y" "y1" cy;
  (* Up-to-date check guards the whole batch: alice's stale base on x
     blocks the pair even though y would be fine. *)
  let _ = ok (Cvs.checkout alice ~path:"x.ml") in
  let _ = ok (Cvs.commit bob ~path:"x.ml" ~content:"x2" ~log:"bob moves x") in
  (match
     Cvs.commit_atomic alice ~files:[ ("x.ml", "x-stale"); ("y.ml", "y2") ] ~log:"stale"
   with
  | Error (Cvs.Conflict _) -> ()
  | Ok _ -> Alcotest.fail "stale atomic commit accepted"
  | Error e -> Alcotest.failf "wrong error: %a" Cvs.pp_error e);
  (* y must not have moved. *)
  let cy', _ = ok (Cvs.checkout bob ~path:"y.ml") in
  Alcotest.(check string) "y unchanged after failed batch" "y1" cy';
  Alcotest.(check (list int)) "empty batch" [] (ok (Cvs.commit_atomic alice ~files:[] ~log:"x"))

let test_cvs_tags () =
  let alice, bob = make_cvs_pair () in
  let _ = ok (Cvs.commit alice ~path:"a.ml" ~content:"a1" ~log:"a") in
  let _ = ok (Cvs.commit alice ~path:"b.ml" ~content:"b1" ~log:"b") in
  let n = ok (Cvs.tag alice ~name:"release-1") in
  Alcotest.(check int) "tag covers both files" 2 n;
  (* Development continues past the tag. *)
  let _ = ok (Cvs.commit bob ~path:"a.ml" ~content:"a2" ~log:"more") in
  Alcotest.(check string) "tagged content is the old one" "a1"
    (ok (Cvs.checkout_tag bob ~name:"release-1" ~path:"a.ml"));
  let entries = ok (Cvs.tagged_files bob ~name:"release-1") in
  Alcotest.(check int) "two entries" 2 (List.length entries);
  (* Tags are invisible to file listing and protected paths. *)
  Alcotest.(check (list string)) "listing hides tags" [ "a.ml"; "b.ml" ]
    (ok (Cvs.list_files bob ~prefix:""));
  (match Cvs.commit alice ~path:"tag!sneaky" ~content:"x" ~log:"no" with
  | Error (Cvs.Conflict _) -> ()
  | _ -> Alcotest.fail "reserved prefix must be rejected");
  match Cvs.checkout_tag bob ~name:"nope" ~path:"a.ml" with
  | Error (Cvs.Conflict _) -> ()
  | _ -> Alcotest.fail "unknown tag must fail"

(* ---- Protocol IV: wait-free verification of commuting operations ---------- *)

let p4 = Harness.Protocol_4 { announce_every = 4 }

(* 4 writers x 8 private files covers default_setup's 32 initial files
   exactly; with [shards = Some 2] users {0,1} share shard 0 and {2,3}
   share shard 1. *)
let disjoint_events seed =
  S.disjoint_writers { S.default_disjoint with S.writers = 4; files_each = 8 } ~seed

let run_p4 ?(shards = Some 2) protocol adversary events =
  let setup =
    { (Harness.default_setup ~protocol ~users:4 ~adversary) with Harness.shards }
  in
  Harness.run setup ~events

let test_protocol4_wait_free_disjoint () =
  (* The workload class Protocol IV exists for: concurrent writers on
     disjoint key ranges. Protocol IV completes everything without ever
     withholding a due operation; Protocol II on the same traffic spends
     rounds blocked in sync sessions. *)
  let events = disjoint_events "p4-wf" in
  let run_counting protocol =
    let o = run_p4 protocol Adversary.Honest events in
    (o, Obs.value "run.blocked_rounds")
  in
  let o4, blocked4 = run_counting p4 in
  Alcotest.(check int) "p4: no alarms" 0 (List.length o4.Harness.alarms);
  Alcotest.(check bool) "p4: no deviation" false o4.Harness.oracle.Sim.Oracle.deviated;
  Alcotest.(check int) "p4: all transactions complete" o4.Harness.issued_transactions
    o4.Harness.completed_transactions;
  Alcotest.(check int) "p4: zero blocked rounds (wait-free)" 0 blocked4;
  let o2, blocked2 =
    run_counting
      (Harness.Protocol_2 { k = 2; tag_mode = `Tagged; check_gctr = true; sync_trigger = `Per_user })
  in
  Alcotest.(check bool) "p2: clean" false o2.Harness.detected;
  Alcotest.(check bool)
    (Printf.sprintf "p2 blocks where p4 does not (saw %d blocked rounds)" blocked2)
    true (blocked2 > 0)

let test_protocol4_fork_commutativity () =
  (* The Cachin–Ohrimenko boundary, both sides. A fork that separates
     two users sharing a shard forks non-commuting operations: their
     witness chains collide and Protocol IV must alarm. A fork along the
     shard boundary only reorders commuting operations — no conflict
     point ever exists, so no wait-free verifier can see it; the global
     serialization oracle still records the deviation. *)
  let events = disjoint_events "p4-fork" in
  let run_fork group_a =
    run_p4 p4 (Adversary.Fork { at_op = 12; group_a }) events
  in
  let conflicting = run_fork [ 0 ] in
  Alcotest.(check bool) "conflicting fork detected" true conflicting.Harness.detected;
  (match conflicting.Harness.alarms with
  | a :: _ ->
      Alcotest.(check bool) ("typed alarm: " ^ a.Sim.Engine.reason) true
        (String.starts_with ~prefix:"protocol-4" a.Sim.Engine.reason)
  | [] -> Alcotest.fail "no alarm");
  let aligned = run_fork [ 0; 1 ] in
  Alcotest.(check bool) "shard-aligned fork invisible wait-free" false
    aligned.Harness.detected;
  Alcotest.(check bool) "but the global serialization deviates" true
    aligned.Harness.oracle.Sim.Oracle.deviated

let test_protocol4_detection_bound () =
  (* The wait-free analogue of the k-bound: on conflicting operations a
     violation is caught before any user completes more than
     announce_every transactions issued after it. *)
  let events = workload "p4-bound" in
  List.iter
    (fun adversary ->
      let o = run p4 adversary events in
      Alcotest.(check bool) (Adversary.name adversary ^ " detected") true o.Harness.detected;
      Alcotest.(check bool)
        (Printf.sprintf "%s within the announce window (saw %d)" (Adversary.name adversary)
           o.Harness.ops_after_violation)
        true
        (o.Harness.ops_after_violation <= 4))
    (adversaries @ [ Adversary.Rollback { at_op = 15; depth = 6; repeat = 1 } ])

let test_protocol4_typed_alarms () =
  (* Every Protocol IV verdict is a typed protocol-4 alarm, not a
     generic mismatch. *)
  let events = workload "p4-typed" in
  List.iter
    (fun adversary ->
      let o = run p4 adversary events in
      Alcotest.(check bool) (Adversary.name adversary ^ " detected") true o.Harness.detected;
      match o.Harness.alarms with
      | a :: _ ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: typed reason %S" (Adversary.name adversary)
               a.Sim.Engine.reason)
            true
            (String.starts_with ~prefix:"protocol-4" a.Sim.Engine.reason)
      | [] -> Alcotest.fail "no alarm")
    adversaries

let test_protocol4_oracle_equivalence () =
  (* Honest runs replay identically against the serialization oracle,
     flat and sharded: every answer Protocol IV certified is the answer
     a correct sequential server would have given. *)
  List.iter
    (fun shards ->
      let o = run_p4 ~shards p4 Adversary.Honest (workload "p4-oracle") in
      Alcotest.(check bool) "no deviation" false o.Harness.oracle.Sim.Oracle.deviated;
      Alcotest.(check int) "no alarms" 0 (List.length o.Harness.alarms);
      Alcotest.(check int) "all complete" o.Harness.issued_transactions
        o.Harness.completed_transactions)
    [ None; Some 4 ]

let test_protocol4_announce_cadence () =
  (* The batch size trades announcement traffic against cross-user
     detection lag; correctness must hold at both extremes. *)
  let events = workload "p4-cadence" in
  List.iter
    (fun announce_every ->
      let p = Harness.Protocol_4 { announce_every } in
      let honest = run p Adversary.Honest events in
      Alcotest.(check bool)
        (Printf.sprintf "a=%d: clean" announce_every)
        false honest.Harness.detected;
      let forked = run p (Adversary.Fork { at_op = 10; group_a = [ 0; 1 ] }) events in
      Alcotest.(check bool)
        (Printf.sprintf "a=%d: fork detected" announce_every)
        true forked.Harness.detected)
    [ 1; 16 ]

let suite =
  let quick name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  [
    slow "soundness: honest server, all protocols, 3 seeds" test_soundness_all_protocols;
    quick "soundness: token baseline" test_soundness_token;
    quick "soundness: protocol 3 over 8 epochs" test_soundness_protocol3_long;
    slow "completeness: protocol x adversary matrix" test_completeness_matrix;
    quick "unverified baseline misses everything" test_unverified_misses_everything;
    quick "token baseline detects" test_token_detects;
    slow "theorem 4.1/4.2: k-bounded detection" test_k_bounded_detection;
    slow "theorem 4.3: two-epoch bound" test_protocol3_two_epoch_bound;
    quick "ablation: untagged XOR misses the figure-3 replay" test_ablation_untagged_misses_replay;
    quick "ablation: tagged XOR catches the figure-3 replay" test_ablation_tagged_catches_replay;
    quick "ablation: gctr monotonicity check" test_ablation_gctr_check;
    quick "workload preservation: token latency blowup" test_token_latency_blowup;
    quick "workload preservation: protocol 1 blocking costs messages"
      test_protocol1_blocking_overhead;
    quick "theorem 3.1: partition attack witness" test_partition_attack_needs_communication;
    slow "no false alarms across seeds" test_no_false_alarms_many_seeds;
    slow "exhaustive detection grid (48 cells)" test_detection_grid;
    quick "cvs: commit/checkout/log" test_cvs_commit_checkout_log;
    quick "cvs: conflict and merge-on-update" test_cvs_conflict_and_update;
    quick "cvs: list files" test_cvs_list_files;
    quick "cvs: tampering surfaces as Server_compromised" test_cvs_detects_tamper;
    quick "server: history cap bounds rollback snapshots" test_history_cap_bounds_snapshots;
    quick "edge: k = 1" test_k_equals_one;
    quick "edge: single user" test_single_user;
    quick "edge: adversary at the first operation" test_adversary_at_first_op;
    slow "edge: eight users" test_eight_users;
    slow "protocol 1 over RSA and MSS signatures" test_protocol1_with_real_signatures;
    quick "set_many flows through the protocol" test_set_many_through_protocol;
    quick "stronger requirement: global-k sync trigger" test_global_k_trigger;
    quick "protocol 3: frozen epoch counter detected" test_freeze_epoch_detected;
    quick "availability: stall detected by timeout" test_stall_detected_by_timeout;
    quick "availability: stall invisible without timeout" test_stall_missed_without_timeout;
    quick "availability: timeout has no false positives" test_timeout_no_false_positive;
    quick "fault localisation: alarm names the certified prefix" test_fault_localization_window;
    quick "protocol 4: wait-free on disjoint writers" test_protocol4_wait_free_disjoint;
    quick "protocol 4: conflicting forks caught, commuting forks invisible"
      test_protocol4_fork_commutativity;
    quick "protocol 4: detection within the announce window" test_protocol4_detection_bound;
    quick "protocol 4: typed alarms for every adversary" test_protocol4_typed_alarms;
    quick "protocol 4: oracle replay equivalence, flat and sharded"
      test_protocol4_oracle_equivalence;
    quick "protocol 4: announce cadence extremes" test_protocol4_announce_cadence;
    quick "cvs: edit / diff / commit_workspace" test_cvs_edit_and_workspace_commit;
    quick "cvs: checkout_at revision" test_cvs_checkout_at_revision;
    quick "cvs: commit_many" test_cvs_commit_many;
    quick "cvs: commit_atomic (multi-key Set_many)" test_cvs_commit_atomic;
    quick "cvs: tags" test_cvs_tags;
    quick "sync: next-session messages held until the session resolves (protocol 1)"
      (test_sync_next_session_held `P1);
    quick "sync: next-session messages held until the session resolves (protocol 2)"
      (test_sync_next_session_held `P2);
    quick "sync: timeout alarms on a withholding peer (protocol 1)" (test_sync_timeout `P1);
    quick "sync: timeout alarms on a withholding peer (protocol 2)" (test_sync_timeout `P2);
  ]
