(* Tests for the network layer: codec round-trips for every frame and
   message constructor, strict-decode behaviour under truncation, every
   single-bit flip and seeded burst errors, frame-size caps; a
   live conformance table of the client-facing front end, run against
   a forked daemon and a forked 1-shard router (every rejection is a
   typed error frame, a re-sent query gets the identical reply); and
   the client's dial and handshake failures reported as errors. *)

module Codec = Net.Codec
module Conn = Net.Conn
module M = Tcvs.Message
module T = Mtree.Merkle_btree
module Vo = Mtree.Vo

let rng = Crypto.Prng.create ~seed:"test-net"

let digest c = String.make 32 c

let sample_vo =
  let tree =
    List.fold_left
      (fun t i ->
        T.set t ~key:(Printf.sprintf "file-%02d" i) ~value:(Printf.sprintf "v%d" i))
      (T.of_alist [])
      (List.init 8 Fun.id)
  in
  Vo.generate tree (Vo.Get "file-03")

let sample_backup =
  {
    M.backup_user = 2;
    backup_epoch = 7;
    sigma = digest 's';
    last = digest 'l';
    backup_gctr = 41;
    backup_signature = digest 'g';
  }

let sample_record =
  {
    M.token_user = 1;
    token_ctr = 9;
    root = digest 'r';
    op_digest = digest 'o';
    prev_digest = digest 'p';
    token_signature = digest 't';
  }

(* At least one message per constructor, with option/list fields
   exercised both empty and populated. *)
let sample_messages =
  [
    M.Query { op = Vo.Get "file-03"; piggyback = [] };
    M.Query
      {
        op = Vo.Set ("file-01", "new-contents");
        piggyback = [ M.Backup sample_backup; M.Request_states { epochs = [ 1; 2; 5 ] } ];
      };
    M.Query { op = Vo.Set_many [ ("a", "1"); ("b", "2") ]; piggyback = [] };
    M.Query { op = Vo.Remove "file-07"; piggyback = [] };
    M.Query { op = Vo.Range ("file-00", "file-04"); piggyback = [] };
    M.Root_signature { signer = 3; ctr = 12; signature = digest 'x' };
    M.Token_take_turn { op = Some (Vo.Set ("k", "v")); record = sample_record };
    M.Token_take_turn { op = None; record = sample_record };
    M.Response
      {
        answer = Vo.Value (Some "v3");
        vo = sample_vo;
        ctr = 12;
        last_user = 2;
        root_sig = Some (digest 'q');
        epoch = 3;
        epoch_states = [ (2, [ sample_backup ]); (3, []) ];
      };
    M.Response
      {
        answer = Vo.Updated;
        vo = sample_vo;
        ctr = 0;
        last_user = -1;
        root_sig = None;
        epoch = 0;
        epoch_states = [];
      };
    M.Response
      {
        answer = Vo.Entries [ ("file-00", "v0"); ("file-01", "v1") ];
        vo = sample_vo;
        ctr = 5;
        last_user = 0;
        root_sig = None;
        epoch = 0;
        epoch_states = [];
      };
    M.Token_state { record = Some sample_record; vo = sample_vo };
    M.Token_state { record = None; vo = sample_vo };
    M.Sync_begin { session = 0; initiator = 0 };
    M.Sync_count { session = 3; reporter = 1; lctr = 17 };
    M.Sync_registers
      { session = 5; reporter = 2; registers = { sigma = digest 's'; last = Some (digest 'l'); gctr = 8 } };
    M.Sync_registers
      { session = 0; reporter = 3; registers = { sigma = digest 's'; last = None; gctr = 0 } };
    M.Sync_verdict { session = 70000; reporter = 0; success = false };
  ]

(* Every frame constructor; payload-bearing frames get a spread of the
   messages above. *)
let sample_frames =
  let nth_msg i = List.nth sample_messages (i mod List.length sample_messages) in
  [
    Codec.Hello
      { h_version = Codec.protocol_version; h_role = Lockstep; h_user = 2; h_users = 4; h_round = 0 };
    Codec.Hello
      { h_version = Codec.protocol_version; h_role = Free; h_user = 0; h_users = 1; h_round = 33 };
    Codec.Hello
      (* a router's shard-link handshake: h_user is the shard id,
         h_users the cluster width *)
      { h_version = Codec.protocol_version; h_role = Shard_link; h_user = 1; h_users = 4; h_round = 9 };
    Codec.Welcome
      {
        w_version = Codec.protocol_version;
        w_boot_id = "boot-0123456789abcdef";
        w_generation = 4;
        w_ctr = 129;
        w_users = 4;
        w_shards = 4;
        w_round = 57;
        w_root = digest 'm';
      };
    Codec.Request
      { seq = 1; ctx = { x_round = 0; x_user = 2; x_span = 1 }; msg = nth_msg 0 };
    Codec.Request
      {
        seq = 4096;
        ctx = { x_round = 99; x_user = 0; x_span = 4096 };
        msg = nth_msg 1;
      };
    Codec.Publish
      { seq = 7; ctx = { x_round = 3; x_user = 1; x_span = 7 }; msg = nth_msg 13 };
    Codec.Ack { seq = 7 };
    Codec.Reply
      { seq = 1; ctx = { x_round = 1; x_user = 2; x_span = 1 }; msg = nth_msg 8 };
    Codec.Reply
      (* x_user = -1: an unattributable reply survives the codec *)
      { seq = 2; ctx = { x_round = 0; x_user = -1; x_span = 2 }; msg = nth_msg 9 };
    Codec.Deliver
      {
        src = 3;
        sseq = 2;
        ctx = { x_round = 12; x_user = 3; x_span = 2 };
        msg = nth_msg 15;
      };
    Codec.Deliver_ack { src = 3; sseq = 2 };
    Codec.Tick { round = 12 };
    Codec.Tick_done { round = 12; drained = false; alarmed = false };
    Codec.Tick_done { round = 13; drained = true; alarmed = true };
    Codec.Session_end { round = 400; alarmed = true; reason = "protocol-2 sync failed" };
    Codec.Error_frame { code = Version_mismatch; detail = "speak v1" };
    Codec.Error_frame { code = Bad_user; detail = "slot taken" };
    Codec.Error_frame { code = Busy; detail = "" };
    Codec.Error_frame { code = Lost_reply; detail = "seq 9" };
    Codec.Error_frame { code = Protocol_violation; detail = "Request before Hello" };
    Codec.Bye;
    Codec.Prepare { round = 57 };
    Codec.Shard_root
      { round = 57; shard_id = 3; generation = 2; ctr = 4099; root = digest 'z' };
    Codec.Shard_root
      { round = 0; shard_id = 0; generation = 0; ctr = 0; root = digest '0' };
    Codec.Commit { round = 57; root = digest 'c' };
  ]

(* Vo.t is abstract, so frame equality is checked through the codec
   itself: decode must succeed and re-encode to the identical bytes. *)
let check_roundtrip frame =
  let bytes = Codec.encode_frame frame in
  match Codec.decode_frame bytes with
  | Error e ->
      Alcotest.failf "%s does not decode: %s" (Codec.frame_kind frame)
        (Codec.error_to_string e)
  | Ok decoded ->
      Alcotest.(check string)
        (Printf.sprintf "%s kind preserved" (Codec.frame_kind frame))
        (Codec.frame_kind frame) (Codec.frame_kind decoded);
      Alcotest.(check string)
        (Printf.sprintf "%s re-encodes identically" (Codec.frame_kind frame))
        bytes
        (Codec.encode_frame decoded)

let test_frame_roundtrips () = List.iter check_roundtrip sample_frames

(* A message decodes from the Reply frame built around its payload. *)
let test_message_roundtrips () =
  List.iter
    (fun msg ->
      let bytes = Codec.encode_message msg in
      let ctx = { Codec.x_round = 3; x_user = 1; x_span = 9 } in
      match Codec.decode_frame (Codec.encode_reply ~seq:9 ~ctx bytes) with
      | Error e -> Alcotest.failf "%s does not decode: %s" (M.kind msg) (Codec.error_to_string e)
      | Ok (Codec.Reply { msg = decoded; _ }) ->
          Alcotest.(check string)
            (Printf.sprintf "%s kind preserved" (M.kind msg))
            (M.kind msg) (M.kind decoded);
          Alcotest.(check string)
            (Printf.sprintf "%s re-encodes identically" (M.kind msg))
            bytes
            (Codec.encode_message decoded)
      | Ok f -> Alcotest.failf "%s decodes as %s" (M.kind msg) (Codec.frame_kind f))
    sample_messages

(* ---- strict decoding under damage ------------------------------------- *)

let expect_error what = function
  | Ok _ -> Alcotest.failf "%s decoded successfully" what
  | Error (_ : Codec.error) -> ()

let test_truncation_rejected () =
  List.iter
    (fun frame ->
      let bytes = Codec.encode_frame frame in
      for len = 0 to String.length bytes - 1 do
        expect_error
          (Printf.sprintf "%s truncated to %d bytes" (Codec.frame_kind frame) len)
          (Codec.decode_frame (String.sub bytes 0 len))
      done)
    sample_frames

let flip_bit s pos bit =
  let b = Bytes.of_string s in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
  Bytes.to_string b

(* Every single-bit flip of every sample frame is caught, each as the
   error its position calls for: a magic flip as Bad_magic, a length
   flip as a length or size error, a checksum or body flip as
   Bad_checksum (CRC-32C detects every single-bit error). *)
let test_bit_flips_rejected () =
  List.iter
    (fun frame ->
      let bytes = Codec.encode_frame frame in
      for pos = 0 to String.length bytes - 1 do
        for bit = 0 to 7 do
          match Codec.decode_frame (flip_bit bytes pos bit) with
          | Error Codec.Bad_magic when pos < 4 -> ()
          | Error (Codec.Malformed _ | Codec.Oversized _) when pos >= 4 && pos < 8 -> ()
          | Error Codec.Bad_checksum when pos >= 8 -> ()
          | r ->
              Alcotest.failf "%s with bit %d of byte %d flipped: %s" (Codec.frame_kind frame)
                bit pos
                (match r with Ok _ -> "decoded" | Error e -> Codec.error_to_string e)
        done
      done)
    sample_frames

(* A burst of 2–32 bits inside the body (first and last bit flipped,
   the ones between at random) is caught as Bad_checksum: CRC-32C
   detects every burst of up to 32 bits. Seeded, so a failure names a
   replayable (frame, start, length). *)
let test_burst_errors_rejected () =
  List.iter
    (fun frame ->
      let bytes = Codec.encode_frame frame in
      let body_bits = 8 * (String.length bytes - Codec.header_len) in
      for _ = 1 to 64 do
        let len = 2 + Crypto.Prng.int rng (min 31 (body_bits - 1)) in
        let start = (8 * Codec.header_len) + Crypto.Prng.int rng (body_bits - len + 1) in
        let b = Bytes.of_string bytes in
        for i = 0 to len - 1 do
          if i = 0 || i = len - 1 || Crypto.Prng.int rng 2 = 1 then begin
            let p = (start + i) / 8 in
            Bytes.set b p (Char.chr (Char.code (Bytes.get b p) lxor (1 lsl ((start + i) mod 8))))
          end
        done;
        match Codec.decode_frame (Bytes.to_string b) with
        | Error Codec.Bad_checksum -> ()
        | r ->
            Alcotest.failf "%s with a %d-bit burst at bit %d: %s" (Codec.frame_kind frame) len
              start
              (match r with Ok _ -> "decoded" | Error e -> Codec.error_to_string e)
      done)
    sample_frames

(* The Reply a server frames around its cached payload is the Reply
   the frame codec writes. *)
let test_reply_from_payload () =
  List.iter
    (fun msg ->
      List.iter
        (fun (seq, ctx) ->
          Alcotest.(check string)
            (Printf.sprintf "%s reply, seq %d" (M.kind msg) seq)
            (Codec.encode_frame (Codec.Reply { seq; ctx; msg }))
            (Codec.encode_reply ~seq ~ctx (Codec.encode_message msg)))
        [
          (1, { Codec.x_round = 0; x_user = 2; x_span = 1 });
          (70000, { Codec.x_round = 12; x_user = -1; x_span = 70000 });
        ])
    sample_messages

(* The frame, WAL and snapshot checksums hash nothing with SHA-256:
   round trips of each leave [crypto.sha256.digests] where it was.
   (Frames carrying a VO are left out: decoding one recomputes its
   Merkle digests, as it must.) *)
let test_checksums_off_sha256 () =
  let dir = Live.fresh_dir () in
  let digests () = Obs.value "crypto.sha256.digests" in
  let before = digests () in
  let frames =
    [
      Codec.Request
        {
          seq = 3;
          ctx = { x_round = 1; x_user = 0; x_span = 3 };
          msg = M.Query { op = Vo.Set ("k", String.make 2000 'v'); piggyback = [] };
        };
      Codec.Bye;
      Codec.Commit { round = 9; root = digest 'c' };
    ]
  in
  List.iter
    (fun f ->
      match Codec.decode_frame (Codec.encode_frame f) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: %s" (Codec.frame_kind f) (Codec.error_to_string e))
    frames;
  let wal = Filename.concat dir "x.wal" in
  let w = Store.Wal.open_writer wal in
  Store.Wal.append w ~lsn:1 ~payload:(String.make 3000 'p');
  Store.Wal.close_writer w;
  (match Store.Wal.read wal with
  | Ok { Store.Wal.records = [ (1, _) ]; truncated = false } -> ()
  | _ -> Alcotest.fail "WAL record did not read back");
  let snap = Filename.concat dir "x.snap" in
  Store.Snapshot.write snap ~payload:(String.make 5000 's');
  (match Store.Snapshot.read snap with
  | Ok p -> Alcotest.(check int) "snapshot payload" 5000 (String.length p)
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "SHA-256 digests" before (digests ())

let test_oversized_rejected () =
  let frame =
    Codec.Request
      {
        seq = 1;
        ctx = { x_round = 0; x_user = 0; x_span = 1 };
        msg = List.hd sample_messages;
      }
  in
  let bytes = Codec.encode_frame frame in
  let body_len = String.length bytes - Codec.header_len in
  (match Codec.decode_frame ~max_frame:(body_len - 1) bytes with
  | Error (Codec.Oversized n) -> Alcotest.(check int) "announced length" body_len n
  | Error e -> Alcotest.failf "expected Oversized, got %s" (Codec.error_to_string e)
  | Ok _ -> Alcotest.fail "oversized frame decoded");
  (* The header alone is enough to refuse — a reader never buffers an
     oversized body. *)
  match
    Codec.decode_header ~max_frame:(body_len - 1)
      (String.sub bytes 0 Codec.header_len)
  with
  | Error (Codec.Oversized _) -> ()
  | Error e -> Alcotest.failf "expected Oversized, got %s" (Codec.error_to_string e)
  | Ok _ -> Alcotest.fail "oversized header accepted"

let test_trailing_bytes_rejected () =
  let bytes = Codec.encode_frame Codec.Bye ^ "x" in
  expect_error "frame with trailing byte" (Codec.decode_frame bytes)

(* ---- the client-facing front end, live ------------------------------- *)

open Live

let users = 4

let daemon_cfg port_file =
  {
    Net.Daemon.default_config with
    port_file = Some port_file;
    users;
    protocol = Tcvs.Harness.Unverified;
  }

let with_daemon f =
  let pf = Filename.concat (fresh_dir ()) "daemon.port" in
  let pid = fork_proc (fun () -> Net.Daemon.run (daemon_cfg pf)) in
  Fun.protect ~finally:(fun () -> kill_wait pid) (fun () -> f (wait_port_file pf))

(* A router over one shard daemon: the same client-facing protocol,
   answered through the cluster path. *)
let with_router f =
  let dir = fresh_dir () in
  let spf = Filename.concat dir "shard.port" and rpf = Filename.concat dir "router.port" in
  let shard =
    fork_proc (fun () ->
        Net.Daemon.run { (daemon_cfg spf) with shard_id = Some 0; shard_count = 1 })
  in
  Fun.protect
    ~finally:(fun () -> kill_wait shard)
    (fun () ->
      let shard_addrs = [| ("127.0.0.1", wait_port_file spf) |] in
      let router =
        fork_proc (fun () ->
            Net.Router.run
              { (Net.Router.default_config ~shard_addrs) with port_file = Some rpf; users })
      in
      Fun.protect ~finally:(fun () -> kill_wait router) (fun () -> f (wait_port_file rpf)))

let await_frame conn =
  match next_frame conn with
  | Some frame -> frame
  | None -> Alcotest.fail "server closed the connection"

let hello ?(version = Codec.protocol_version) ?(role = Codec.Free) ?(user = 0)
    ?(users = users) () =
  Codec.Hello { h_version = version; h_role = role; h_user = user; h_users = users; h_round = 0 }

let expect_error conn code =
  match await_frame conn with
  | Codec.Error_frame { code = c; _ } when c = code -> ()
  | f ->
      Alcotest.failf "expected a %s error, got %s" (Codec.error_code_to_string code)
        (Codec.frame_kind f)

let joined ?role ~user port =
  let c = connect port in
  Conn.send c (hello ?role ~user ());
  (match await_frame c with
  | Codec.Welcome w ->
      Alcotest.(check int) "welcome version" Codec.protocol_version w.Codec.w_version;
      Alcotest.(check int) "welcome users" users w.Codec.w_users;
      Alcotest.(check int) "root digest is raw 32 bytes" 32 (String.length w.Codec.w_root)
  | f -> Alcotest.failf "expected Welcome, got %s" (Codec.frame_kind f));
  c

(* One Hello rejected on a fresh connection. *)
let rejected_hello port frame code =
  let c = connect port in
  Conn.send c frame;
  expect_error c code;
  Conn.close c

let query ~user ~seq =
  Codec.Request
    {
      seq;
      ctx = { x_round = 0; x_user = user; x_span = seq };
      msg = M.Query { op = Vo.Get (Tcvs.Harness.file_key 1); piggyback = [] };
    }

let await_reply conn =
  match await_frame conn with
  | Codec.Reply _ as r -> r
  | f -> Alcotest.failf "expected a Reply, got %s" (Codec.frame_kind f)

(* The front end's contract, one row per rule. Daemon and router must
   answer every row the same way. Joined users are distinct per row
   (user 1 stays connected for the Busy row), so no row waits on the
   server noticing another row's close. *)
let conformance port =
  let rows =
    [
      ( "first frame not Hello",
        fun () -> rejected_hello port (query ~user:0 ~seq:1) Codec.Protocol_violation );
      ( "second Hello",
        fun () ->
          let c = joined ~user:0 port in
          Conn.send c (hello ~user:0 ());
          expect_error c Codec.Protocol_violation;
          Conn.close c );
      ( "version mismatch",
        fun () ->
          let h = hello ~version:(Codec.protocol_version + 1) () in
          rejected_hello port h Codec.Version_mismatch );
      ( "previous version",
        fun () ->
          let h = hello ~version:(Codec.protocol_version - 1) () in
          rejected_hello port h Codec.Version_mismatch );
      ("user out of range", fun () -> rejected_hello port (hello ~user:7 ()) Codec.Bad_user);
      ("session width mismatch", fun () -> rejected_hello port (hello ~users:3 ()) Codec.Bad_user);
      ( "duplicate user, then a lockstep Hello beside a free session",
        fun () ->
          let c = joined ~user:1 port in
          rejected_hello port (hello ~user:1 ()) Codec.Bad_user;
          rejected_hello port (hello ~role:Codec.Lockstep ~user:2 ()) Codec.Busy;
          Conn.close c );
      ( "shard-link Hello",
        fun () -> rejected_hello port (hello ~role:Codec.Shard_link ~users:1 ()) Codec.Bad_user );
      ( "re-sent free query gets the identical reply",
        fun () ->
          let c = joined ~user:3 port in
          Conn.send c (query ~user:3 ~seq:1);
          let first = Codec.encode_frame (await_reply c) in
          Conn.send c (query ~user:3 ~seq:1);
          Alcotest.(check string) "byte-identical reply" first
            (Codec.encode_frame (await_reply c));
          Conn.close c );
      ( "garbage bytes",
        fun () ->
          let fd = dial port in
          let junk = "this is not a TCVN frame header" in
          ignore (Unix.write_substring fd junk 0 (String.length junk));
          let c = Conn.create fd in
          expect_error c Codec.Protocol_violation;
          (match next_frame c with
          | None -> ()
          | Some f -> Alcotest.failf "expected a close, got %s" (Codec.frame_kind f));
          Conn.close c );
    ]
  in
  List.iter
    (fun (name, row) ->
      try row ()
      with e ->
        Printf.eprintf "front-end row failed: %s\n%!" name;
        raise e)
    rows

let test_handshake () = with_daemon conformance
let test_router_front_end () = with_router conformance

(* ---- client dial and handshake failures -------------------------------- *)

let contains s ~sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* A NUL byte can never be a host name, so resolution fails without
   any lookup leaving the process. *)
let test_client_unresolvable () =
  match
    Net.Client.run { (Net.Client.default_config ~user:0 ~port:1) with host = "no\000such-host" }
  with
  | Error e ->
      Alcotest.(check bool) ("names the host: " ^ e) true
        (contains e ~sub:"cannot resolve")
  | Ok _ -> Alcotest.fail "connected to an unresolvable host"

(* A port nobody listens on (bound, then closed): the first dial must
   name the address and the kernel's reason, not a handshake close. *)
let test_client_refused () =
  let port =
    match Net.Loop.listen ~port:0 () with
    | Ok (fd, port) ->
        Unix.close fd;
        port
    | Error e -> Alcotest.fail e
  in
  match Net.Client.run (Net.Client.default_config ~user:0 ~port) with
  | Error e ->
      let errno = Unix.error_message Unix.ECONNREFUSED in
      let want = Printf.sprintf "connect 127.0.0.1:%d: %s" port errno in
      Alcotest.(check bool) ("names the address and the errno: " ^ e) true (contains e ~sub:want)
  | Ok _ -> Alcotest.fail "connected to a closed port"

(* A listener that accepts and closes: the handshake must say the peer
   closed, not that no Welcome came before the timeout. *)
let test_client_peer_closes () =
  (* the Hello may race the close: a write to the dead peer must
     surface as EPIPE, not kill the test runner *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let fd, port =
    match Net.Loop.listen ~port:0 () with Ok x -> x | Error e -> Alcotest.fail e
  in
  let child =
    match Unix.fork () with
    | 0 ->
        Unix.clear_nonblock fd;
        (try
           let c, _ = Unix.accept fd in
           Unix.close c
         with _ -> ());
        Unix._exit 0
    | pid -> pid
  in
  Unix.close fd;
  Fun.protect
    ~finally:(fun () -> kill_wait child)
    (fun () ->
      match Net.Client.run (Net.Client.default_config ~user:0 ~port) with
      | Error e ->
          Alcotest.(check bool) ("reports the close: " ^ e) true
            (contains e ~sub:"connection closed")
      | Ok _ -> Alcotest.fail "handshake succeeded against a closing peer")

let suite =
  [
    Alcotest.test_case "codec: frame round-trips" `Quick test_frame_roundtrips;
    Alcotest.test_case "codec: message round-trips" `Quick test_message_roundtrips;
    Alcotest.test_case "codec: truncation rejected" `Quick test_truncation_rejected;
    Alcotest.test_case "codec: bit flips rejected" `Quick test_bit_flips_rejected;
    Alcotest.test_case "codec: burst errors rejected" `Quick test_burst_errors_rejected;
    Alcotest.test_case "codec: reply from a cached payload" `Quick test_reply_from_payload;
    Alcotest.test_case "checksums: no SHA-256 in frames, WAL, snapshots" `Quick
      test_checksums_off_sha256;
    Alcotest.test_case "codec: oversized rejected" `Quick test_oversized_rejected;
    Alcotest.test_case "codec: trailing bytes rejected" `Quick test_trailing_bytes_rejected;
    Alcotest.test_case "handshake: version and user checks" `Quick test_handshake;
    Alcotest.test_case "front end: same table against a router" `Quick test_router_front_end;
    Alcotest.test_case "client: unresolvable host is an error" `Quick test_client_unresolvable;
    Alcotest.test_case "client: refused dial names the address" `Quick test_client_refused;
    Alcotest.test_case "client: peer closing mid-handshake" `Quick test_client_peer_closes;
  ]
