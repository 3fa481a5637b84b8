(* Tests for the simulation engine, trace bookkeeping and the
   ground-truth deviation oracle. *)

module E = Sim.Engine
module Vo = Mtree.Vo

let run engine ~rounds =
  for _ = 1 to rounds do
    E.step engine
  done

(* A simple echo setup: one "server" agent replying to pings. *)
let echo_setup () =
  let engine : string E.t = E.create ~measure:String.length () in
  let received = ref [] in
  E.register engine Sim.Id.Server
    {
      E.on_message =
        (fun ~round ~src msg ->
          received := (round, src, msg) :: !received;
          E.send engine ~src:Sim.Id.Server ~dst:src ("echo:" ^ msg));
      on_activate = (fun ~round:_ -> ());
    };
  (engine, received)

let test_delivery_next_round () =
  let engine, received = echo_setup () in
  let got_reply = ref None in
  E.register engine (Sim.Id.User 0)
    {
      E.on_message = (fun ~round ~src:_ msg -> got_reply := Some (round, msg));
      on_activate =
        (fun ~round ->
          if round = 1 then E.send engine ~src:(Sim.Id.User 0) ~dst:Sim.Id.Server "ping");
    };
  run engine ~rounds:4;
  (match !received with
  | [ (2, Sim.Id.User 0, "ping") ] -> ()
  | _ -> Alcotest.fail "server should receive exactly one ping in round 2");
  match !got_reply with
  | Some (3, "echo:ping") -> ()
  | _ -> Alcotest.fail "user should get the echo in round 3"

let test_determinism () =
  let run () =
    let engine, received = echo_setup () in
    E.register engine (Sim.Id.User 0)
      {
        E.on_message = (fun ~round:_ ~src:_ _ -> ());
        on_activate =
          (fun ~round ->
            if round mod 3 = 0 then
              E.send engine ~src:(Sim.Id.User 0) ~dst:Sim.Id.Server (string_of_int round));
      };
    run engine ~rounds:20;
    (!received, E.messages_sent engine, E.bytes_sent engine)
  in
  Alcotest.(check bool) "two identical runs" true (run () = run ())

let test_broadcast_semantics () =
  let engine : string E.t = E.create () in
  let seen = Array.make 3 [] in
  let server_saw = ref [] in
  E.register engine Sim.Id.Server
    {
      E.on_message = (fun ~round:_ ~src:_ m -> server_saw := m :: !server_saw);
      on_activate = (fun ~round:_ -> ());
    };
  for u = 0 to 2 do
    E.register engine (Sim.Id.User u)
      {
        E.on_message = (fun ~round:_ ~src:_ m -> seen.(u) <- m :: seen.(u));
        on_activate =
          (fun ~round -> if round = 1 && u = 0 then E.broadcast engine ~src:(Sim.Id.User 0) "hi");
      }
  done;
  run engine ~rounds:3;
  Alcotest.(check (list string)) "sender does not hear itself" [] seen.(0);
  Alcotest.(check (list string)) "user 1 hears" [ "hi" ] seen.(1);
  Alcotest.(check (list string)) "user 2 hears" [ "hi" ] seen.(2);
  Alcotest.(check (list string)) "server never hears broadcasts" [] !server_saw;
  Alcotest.(check int) "broadcasts counted per recipient" 2 (E.broadcasts_sent engine)

let test_unregistered_destination_dropped () =
  let engine : string E.t = E.create () in
  E.register engine (Sim.Id.User 0)
    {
      E.on_message = (fun ~round:_ ~src:_ _ -> ());
      on_activate =
        (fun ~round ->
          if round = 1 then E.send engine ~src:(Sim.Id.User 0) ~dst:(Sim.Id.User 9) "void");
    };
  run engine ~rounds:3 (* must not raise *)

let test_duplicate_registration_rejected () =
  let engine : string E.t = E.create () in
  let handlers =
    { E.on_message = (fun ~round:_ ~src:_ _ -> ()); on_activate = (fun ~round:_ -> ()) }
  in
  E.register engine (Sim.Id.User 0) handlers;
  Alcotest.check_raises "duplicate" (Invalid_argument "Engine.register: user-0 already registered")
    (fun () -> E.register engine (Sim.Id.User 0) handlers)

let test_run_until () =
  let engine : string E.t = E.create () in
  E.register engine (Sim.Id.User 0)
    { E.on_message = (fun ~round:_ ~src:_ _ -> ()); on_activate = (fun ~round:_ -> ()) };
  let reached = E.run_until engine ~max_rounds:50 (fun () -> E.round engine >= 10) in
  Alcotest.(check bool) "predicate reached" true reached;
  Alcotest.(check int) "stopped at 10" 10 (E.round engine);
  let timed_out = E.run_until engine ~max_rounds:5 (fun () -> false) in
  Alcotest.(check bool) "times out" false timed_out

let test_alarms () =
  let engine : string E.t = E.create () in
  E.register engine (Sim.Id.User 0)
    {
      E.on_message = (fun ~round:_ ~src:_ _ -> ());
      on_activate =
        (fun ~round -> if round = 5 then E.alarm engine ~agent:(Sim.Id.User 0) ~reason:"boom");
    };
  run engine ~rounds:10;
  match E.first_alarm engine with
  | Some { E.agent = Sim.Id.User 0; at_round = 5; reason = "boom" } -> ()
  | _ -> Alcotest.fail "alarm not recorded correctly"

let test_bytes_accounting () =
  let engine, _ = echo_setup () in
  E.register engine (Sim.Id.User 0)
    {
      E.on_message = (fun ~round:_ ~src:_ _ -> ());
      on_activate =
        (fun ~round ->
          if round = 1 then E.send engine ~src:(Sim.Id.User 0) ~dst:Sim.Id.Server "12345");
    };
  run engine ~rounds:3;
  (* "12345" (5) + "echo:12345" (10) *)
  Alcotest.(check int) "bytes measured" 15 (E.bytes_sent engine)

let test_fifo_ordering () =
  (* Messages sent within one round are delivered next round in send
     order. *)
  let engine : int E.t = E.create () in
  let received = ref [] in
  E.register engine Sim.Id.Server
    {
      E.on_message = (fun ~round:_ ~src:_ m -> received := m :: !received);
      on_activate = (fun ~round:_ -> ());
    };
  E.register engine (Sim.Id.User 0)
    {
      E.on_message = (fun ~round:_ ~src:_ _ -> ());
      on_activate =
        (fun ~round ->
          if round = 1 then
            List.iter (fun m -> E.send engine ~src:(Sim.Id.User 0) ~dst:Sim.Id.Server m)
              [ 1; 2; 3; 4; 5 ]);
    };
  run engine ~rounds:3;
  Alcotest.(check (list int)) "in order" [ 1; 2; 3; 4; 5 ] (List.rev !received)

(* ---- Trace ---------------------------------------------------------------- *)

let test_trace_lifecycle () =
  let tr = Sim.Trace.create () in
  let s1 = Sim.Trace.issue tr ~user:0 ~op:(Vo.Get "a") ~round:1 in
  let s2 = Sim.Trace.issue tr ~user:1 ~op:(Vo.Set ("b", "v")) ~round:2 in
  Alcotest.(check int) "two issued" 2 (Sim.Trace.count tr);
  Alcotest.(check int) "none completed" 0 (List.length (Sim.Trace.completed tr));
  Sim.Trace.complete tr ~seq:s1 ~round:3 ~answer:(Vo.Value None) ();
  Alcotest.(check int) "one completed" 1 (List.length (Sim.Trace.completed tr));
  Alcotest.(check int) "one pending" 1
    (Sim.Trace.count tr - List.length (Sim.Trace.completed tr));
  Sim.Trace.complete tr ~seq:s2 ~round:4 ~answer:Vo.Updated ();
  Alcotest.(check int) "per-user count" 1
    (List.length
       (List.filter (fun tx -> tx.Sim.Trace.user = 1) (Sim.Trace.completed tr)));
  Alcotest.(check int) "completed after round 1" 1
    (Sim.Trace.completed_after tr ~round:1 ~user:1);
  Alcotest.check_raises "double completion"
    (Invalid_argument "Trace.complete: transaction already completed") (fun () ->
      Sim.Trace.complete tr ~seq:s1 ~round:5 ~answer:Vo.Updated ());
  Alcotest.check_raises "unknown seq" (Invalid_argument "Trace.complete: unknown transaction")
    (fun () -> Sim.Trace.complete tr ~seq:99 ~round:5 ~answer:Vo.Updated ())

(* ---- Oracle ---------------------------------------------------------------- *)

let complete_with tr ~seq ~answer = Sim.Trace.complete tr ~seq ~round:(seq + 10) ~answer ()

let test_oracle_honest_run () =
  let tr = Sim.Trace.create () in
  let s1 = Sim.Trace.issue tr ~user:0 ~op:(Vo.Set ("k", "v1")) ~round:1 in
  complete_with tr ~seq:s1 ~answer:Vo.Updated;
  let s2 = Sim.Trace.issue tr ~user:1 ~op:(Vo.Get "k") ~round:2 in
  complete_with tr ~seq:s2 ~answer:(Vo.Value (Some "v1"));
  let v = Sim.Oracle.replay ~initial:[] tr in
  Alcotest.(check bool) "no deviation" false v.Sim.Oracle.deviated

let test_oracle_detects_wrong_answer () =
  let tr = Sim.Trace.create () in
  let s1 = Sim.Trace.issue tr ~user:0 ~op:(Vo.Set ("k", "v1")) ~round:1 in
  complete_with tr ~seq:s1 ~answer:Vo.Updated;
  let s2 = Sim.Trace.issue tr ~user:1 ~op:(Vo.Get "k") ~round:2 in
  complete_with tr ~seq:s2 ~answer:(Vo.Value (Some "stale"));
  let v = Sim.Oracle.replay ~initial:[] tr in
  Alcotest.(check bool) "deviation found" true v.Sim.Oracle.deviated;
  match v.Sim.Oracle.first_deviation with
  | Some tx -> Alcotest.(check int) "the read deviates" s2 tx.Sim.Trace.seq
  | None -> Alcotest.fail "missing first_deviation"

let test_oracle_detects_root_chain_break () =
  (* Write-only traffic: answers are all Updated, but the recorded root
     transitions expose a fork. *)
  let db0 = Mtree.Merkle_btree.of_alist [] in
  let db1 = Mtree.Merkle_btree.set db0 ~key:"a" ~value:"1" in
  let db2 = Mtree.Merkle_btree.set db1 ~key:"b" ~value:"2" in
  let r0 = Mtree.Merkle_btree.root_digest db0 in
  let r1 = Mtree.Merkle_btree.root_digest db1 in
  let r2 = Mtree.Merkle_btree.root_digest db2 in
  let tr = Sim.Trace.create () in
  let s1 = Sim.Trace.issue tr ~user:0 ~op:(Vo.Set ("a", "1")) ~round:1 in
  Sim.Trace.complete tr ~seq:s1 ~round:2 ~answer:Vo.Updated ~roots:(r0, r1) ();
  (* The server then pretends user 0's write never happened: user 1's
     write is rooted at r0, not r1. *)
  let db2' = Mtree.Merkle_btree.set db0 ~key:"b" ~value:"2" in
  let r2' = Mtree.Merkle_btree.root_digest db2' in
  let s2 = Sim.Trace.issue tr ~user:1 ~op:(Vo.Set ("b", "2")) ~round:3 in
  Sim.Trace.complete tr ~seq:s2 ~round:4 ~answer:Vo.Updated ~roots:(r0, r2') ();
  let v = Sim.Oracle.replay ~initial:[] tr in
  Alcotest.(check bool) "fork exposed by root chain" true v.Sim.Oracle.deviated;
  (* Same trace with consistent roots: clean. *)
  let tr2 = Sim.Trace.create () in
  let s1 = Sim.Trace.issue tr2 ~user:0 ~op:(Vo.Set ("a", "1")) ~round:1 in
  Sim.Trace.complete tr2 ~seq:s1 ~round:2 ~answer:Vo.Updated ~roots:(r0, r1) ();
  let s2 = Sim.Trace.issue tr2 ~user:1 ~op:(Vo.Set ("b", "2")) ~round:3 in
  Sim.Trace.complete tr2 ~seq:s2 ~round:4 ~answer:Vo.Updated ~roots:(r1, r2) ();
  let v2 = Sim.Oracle.replay ~initial:[] tr2 in
  Alcotest.(check bool) "consistent chain is clean" false v2.Sim.Oracle.deviated

let test_oracle_serial_order_is_issue_order () =
  (* Two users write the same key; trusted replay must apply them in
     issue order, so a later read sees the second value. *)
  let tr = Sim.Trace.create () in
  let s1 = Sim.Trace.issue tr ~user:0 ~op:(Vo.Set ("k", "first")) ~round:1 in
  complete_with tr ~seq:s1 ~answer:Vo.Updated;
  let s2 = Sim.Trace.issue tr ~user:1 ~op:(Vo.Set ("k", "second")) ~round:2 in
  complete_with tr ~seq:s2 ~answer:Vo.Updated;
  let s3 = Sim.Trace.issue tr ~user:0 ~op:(Vo.Get "k") ~round:3 in
  complete_with tr ~seq:s3 ~answer:(Vo.Value (Some "second"));
  Alcotest.(check bool) "clean" false (Sim.Oracle.replay ~initial:[] tr).Sim.Oracle.deviated

let test_oracle_incomplete_ignored () =
  let tr = Sim.Trace.create () in
  let _ = Sim.Trace.issue tr ~user:0 ~op:(Vo.Set ("k", "v")) ~round:1 in
  let v = Sim.Oracle.replay ~initial:[] tr in
  Alcotest.(check bool) "in-flight transactions do not deviate" false v.Sim.Oracle.deviated

let suite =
  let quick name f = Alcotest.test_case name `Quick f in
  [
    quick "engine: one-round delivery" test_delivery_next_round;
    quick "engine: determinism" test_determinism;
    quick "engine: broadcast semantics" test_broadcast_semantics;
    quick "engine: unregistered destination dropped" test_unregistered_destination_dropped;
    quick "engine: duplicate registration" test_duplicate_registration_rejected;
    quick "engine: run_until" test_run_until;
    quick "engine: alarms" test_alarms;
    quick "engine: byte accounting" test_bytes_accounting;
    quick "engine: FIFO delivery order" test_fifo_ordering;
    quick "trace: lifecycle" test_trace_lifecycle;
    quick "oracle: honest run" test_oracle_honest_run;
    quick "oracle: wrong answer" test_oracle_detects_wrong_answer;
    quick "oracle: root-chain fork" test_oracle_detects_root_chain_break;
    quick "oracle: serial order" test_oracle_serial_order_is_issue_order;
    quick "oracle: incomplete ignored" test_oracle_incomplete_ignored;
  ]
