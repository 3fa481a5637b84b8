(* Tests for the sharded deployment: the router's proof composition
   must be byte-identical to a single daemon running the same key-range
   partition in-process — first as a pure data-structure fact (two
   1-shard databases composed with [Vo.of_parts] against one 2-shard
   database), then end to end over loopback TCP against forked shard
   daemons and a forked router. The kill -9 test pins the cluster's
   safety claim: after a shard dies mid-stream and restarts from its
   durable store, every reply still extends the verified root chain or
   the session ends in a TRUE ALARM — a stale composed root is never
   served. *)

module Codec = Net.Codec
module Conn = Net.Conn
module M = Tcvs.Message
module Vo = Mtree.Vo
module Node = Mtree.Node

let branching = 8
let files = 32
let initial = Tcvs.Harness.initial_files files

(* A little op mix that crosses shard boundaries: single-key reads and
   writes on both sides, a cross-shard atomic commit, cross-shard
   ranges, and a remove. *)
let script =
  let key i = Tcvs.Harness.file_key (i mod files) in
  [
    Vo.Get (key 3);
    Vo.Set (key 3, "cluster-v1");
    Vo.Set (key 29, "cluster-v2");
    Vo.Range (key 0, key 31);
    Vo.Set_many [ (key 1, "both-a"); (key 30, "both-b") ];
    Vo.Get (key 30);
    Vo.Remove (key 7);
    Vo.Range (key 5, key 9);
    Vo.Set (key 7, "rewritten");
    Vo.Get (key 7);
  ]

(* ---- composition as a pure data-structure fact ------------------------ *)

let test_compose_equivalence () =
  let sharded = ref (Store.Shard_db.create ~branching ~shards:2 initial) in
  let map =
    Store.Shard_map.create ~branching ~shards:2 ~keys:(List.map fst initial)
  in
  let boundaries = Store.Shard_map.boundaries map in
  let slice i = List.filter (fun (k, _) -> Store.Shard_map.route map k = i) initial in
  let parts =
    Array.init 2 (fun i -> ref (Store.Shard_db.create ~branching ~shards:1 (slice i)))
  in
  let part_roots () = Array.map (fun p -> Store.Shard_db.root_digest !p) parts in
  Alcotest.(check string)
    "initial roots compose"
    (Store.Shard_db.root_digest !sharded)
    (Vo.compose_root boundaries (part_roots ()));
  List.iteri
    (fun n op ->
      let ctx = Printf.sprintf "op %d" n in
      (* the single sharded daemon's proof, pre-op *)
      let vo_one = Store.Shard_db.generate_vo !sharded op in
      let db', answer_one = Store.Shard_db.apply !sharded op in
      sharded := db';
      (* the cluster's: each owning shard proves its sub-op over its own
         flat tree; idle shards contribute root stubs *)
      let touched = Vo.shards_for boundaries op in
      let nodes = Array.map Node.(fun r -> Stub r) (part_roots ()) in
      let answers =
        List.map
          (fun i ->
            let sub = Vo.sub_op_for boundaries i op in
            let vo_i = Store.Shard_db.generate_vo !(parts.(i)) sub in
            Alcotest.(check bool)
              (ctx ^ ": shard proof is flat") true (Vo.is_flat vo_i);
            nodes.(i) <- Vo.root_node vo_i;
            let p', a = Store.Shard_db.apply !(parts.(i)) sub in
            parts.(i) := p';
            a)
          touched
      in
      let vo_cluster = Vo.of_parts ~branching ~boundaries ~parts:nodes in
      Alcotest.(check string)
        (ctx ^ ": composed VO is byte-identical")
        (Vo.encode vo_one) (Vo.encode vo_cluster);
      let answer_cluster =
        match op with
        | Vo.Range _ ->
            Vo.Entries
              (List.concat_map
                 (function Vo.Entries es -> es | _ -> [])
                 answers)
        | _ -> ( match answers with [] -> Vo.Updated | a :: _ -> a)
      in
      Alcotest.(check bool)
        (ctx ^ ": composed answer matches") true (answer_one = answer_cluster);
      Alcotest.(check string)
        (ctx ^ ": post-op roots compose")
        (Store.Shard_db.root_digest !sharded)
        (Vo.compose_root boundaries (part_roots ())))
    script

(* ---- forked-cluster plumbing ------------------------------------------ *)

open Live

let shard_daemon ~dir ~i ~count ?(listen = 0) ?store () =
  fork_proc (fun () ->
      ignore
        (Net.Daemon.run
           {
             Net.Daemon.default_config with
             listen_port = listen;
             port_file = Some (Filename.concat dir (Printf.sprintf "shard%d.port" i));
             protocol = Tcvs.Harness.Unverified;
             shard_id = Some i;
             shard_count = count;
             store_dir = store;
           }))

let router ~dir ~ports =
  fork_proc (fun () ->
      ignore
        (Net.Router.run
           {
             (Net.Router.default_config
                ~shard_addrs:(Array.of_list (List.map (fun p -> ("127.0.0.1", p)) ports)))
             with
             Net.Router.port_file = Some (Filename.concat dir "router.port");
             users = 1;
           }))

let single_daemon ~dir ~shards =
  fork_proc (fun () ->
      ignore
        (Net.Daemon.run
           {
             Net.Daemon.default_config with
             port_file = Some (Filename.concat dir "single.port");
             protocol = Tcvs.Harness.Unverified;
             shards;
             users = 1;
           }))

(* A free-mode session: Hello as user 0 of 1, then one Query per op,
   returning each reply message's encoded bytes. *)
let free_hello conn =
  Conn.send conn
    (Codec.Hello
       {
         Codec.h_version = Codec.protocol_version;
         h_role = Codec.Free;
         h_user = 0;
         h_users = 1;
         h_round = 0;
       });
  match next_frame conn with
  | Some (Codec.Welcome w) -> w
  | Some f -> Alcotest.failf "expected Welcome, got %s" (Codec.frame_kind f)
  | None -> Alcotest.fail "connection closed before Welcome"

let query conn ~seq op =
  Conn.send conn
    (Codec.Request
       {
         seq;
         ctx = { Codec.x_round = 0; x_user = 0; x_span = seq };
         msg = M.Query { op; piggyback = [] };
       });
  let rec await () =
    match next_frame conn with
    | Some (Codec.Reply { seq = rseq; msg; _ }) when rseq = seq -> Some msg
    | Some (Codec.Session_end { alarmed; reason; _ }) ->
        if alarmed then None
        else Alcotest.failf "clean session end mid-stream (%s)" reason
    | Some (Codec.Error_frame { code; detail }) ->
        Alcotest.failf "error frame: %s: %s" (Codec.error_code_to_string code) detail
    | Some _ -> await ()
    | None -> None
  in
  await ()

let run_script_against port =
  let conn = connect port in
  let w = free_hello conn in
  let replies =
    List.mapi
      (fun i op ->
        match query conn ~seq:(i + 1) op with
        | Some msg -> Codec.encode_message msg
        | None -> Alcotest.fail "session died mid-script")
      script
  in
  Conn.send conn Codec.Bye;
  Conn.flush conn;
  Conn.close conn;
  (w.Codec.w_root, replies)

let test_cluster_byte_identity () =
  let dir = fresh_dir () in
  let s0 = shard_daemon ~dir ~i:0 ~count:2 () in
  let s1 = shard_daemon ~dir ~i:1 ~count:2 () in
  let single = single_daemon ~dir ~shards:2 in
  let finally () = List.iter kill_wait [ s0; s1; single ] in
  Fun.protect ~finally (fun () ->
      let p0 = wait_port_file (Filename.concat dir "shard0.port") in
      let p1 = wait_port_file (Filename.concat dir "shard1.port") in
      let r = router ~dir ~ports:[ p0; p1 ] in
      Fun.protect
        ~finally:(fun () -> kill_wait r)
        (fun () ->
          let rport = wait_port_file (Filename.concat dir "router.port") in
          let sport = wait_port_file (Filename.concat dir "single.port") in
          let root_single, replies_single = run_script_against sport in
          let root_cluster, replies_cluster = run_script_against rport in
          Alcotest.(check string)
            "welcome roots agree" root_single root_cluster;
          List.iteri
            (fun i (a, b) ->
              Alcotest.(check string)
                (Printf.sprintf "reply %d byte-identical" i)
                a b)
            (List.combine replies_single replies_cluster)))

(* Drive the reply stream like a verifying client: every VO must replay
   its op from exactly the root the previous reply left us at. *)
let verify_reply ~boundaries ~root op bytes =
  match Codec.decode_message bytes with
  | Some (M.Response { vo; _ }) -> (
      match Vo.apply vo op with
      | Error e -> Alcotest.failf "VO replay failed: %a" Vo.pp_error e
      | Ok (_, old_root, new_root) ->
          ignore boundaries;
          Alcotest.(check string) "reply extends the verified chain" root old_root;
          new_root)
  | _ -> Alcotest.fail "reply is not a Response"

let test_cluster_kill9 () =
  let dir = fresh_dir () in
  let store i = Filename.concat dir (Printf.sprintf "store%d" i) in
  let s0 = shard_daemon ~dir ~i:0 ~count:2 ~store:(store 0) () in
  let s1 = ref (shard_daemon ~dir ~i:1 ~count:2 ~store:(store 1) ()) in
  let finally () = List.iter kill_wait [ s0; !s1 ] in
  Fun.protect ~finally (fun () ->
      let p0 = wait_port_file (Filename.concat dir "shard0.port") in
      let p1 = wait_port_file (Filename.concat dir "shard1.port") in
      let r = router ~dir ~ports:[ p0; p1 ] in
      Fun.protect
        ~finally:(fun () -> kill_wait r)
        (fun () ->
          let rport = wait_port_file (Filename.concat dir "router.port") in
          let map =
            Store.Shard_map.create ~branching ~shards:2
              ~keys:(List.map fst initial)
          in
          let boundaries = Store.Shard_map.boundaries map in
          let conn = connect rport in
          let w = free_hello conn in
          let root = ref w.Codec.w_root in
          let seq = ref 0 in
          let send op =
            incr seq;
            match query conn ~seq:!seq op with
            | Some (M.Response _ as m) ->
                root := verify_reply ~boundaries ~root:!root op (Codec.encode_message m);
                true
            | Some m -> Alcotest.failf "unexpected %s reply" (M.kind m)
            | None -> false (* TRUE ALARM ended the session *)
          in
          let key i = Tcvs.Harness.file_key i in
          (* a few ops with both shards alive *)
          assert (send (Vo.Set (key 3, "pre-crash")));
          assert (send (Vo.Set (key 29, "pre-crash")));
          assert (send (Vo.Range (key 0, key 31)));
          (* kill -9 shard 1 mid-stream, then restart it from its store
             on the same port *)
          (try Unix.kill !s1 Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] !s1);
          Sys.remove (Filename.concat dir "shard1.port");
          s1 := shard_daemon ~dir ~i:1 ~count:2 ~store:(store 1) ~listen:p1 ();
          ignore (wait_port_file (Filename.concat dir "shard1.port"));
          (* the stream must continue on the verified chain — or the
             router must end the session with an alarm. Either way no
             reply may verify against anything but the chain, which
             [verify_reply] inside [send] pins. *)
          let alive = ref true in
          List.iter
            (fun op -> if !alive then alive := send op)
            [
              Vo.Set (key 30, "post-crash");
              Vo.Get (key 30);
              Vo.Range (key 0, key 31);
              Vo.Set_many [ (key 1, "post-a"); (key 31, "post-b") ];
              Vo.Get (key 3);
            ];
          Conn.close conn))

let suite =
  [
    Alcotest.test_case "compose: 1-shard parts equal the 2-shard db" `Quick
      test_compose_equivalence;
    Alcotest.test_case "cluster: byte-identical with a single sharded daemon"
      `Quick test_cluster_byte_identity;
    Alcotest.test_case "cluster: kill -9 one shard, never a stale root" `Quick
      test_cluster_kill9;
  ]
