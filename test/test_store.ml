(* The durable store: WAL framing and failure policy, snapshots, shard
   maps, crash recovery (byte-identical roots, pinned), stale-recovery
   rollback, reopen re-baselining, and the crash adversaries end to end
   through the harness. *)

open Tcvs
module T = Mtree.Merkle_btree
module Vo = Mtree.Vo
module S = Workload.Schedule

(* ---- scratch directories -------------------------------------------- *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun entry -> rm_rf (Filename.concat path entry)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let fresh_dir name =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tcvs-store-test-%d-%s" (Unix.getpid ()) name)
  in
  rm_rf dir;
  dir

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
  go 0

(* ---- WAL ------------------------------------------------------------- *)

let wal_path dir = Filename.concat dir "test.wal"

let with_wal name records =
  let dir = fresh_dir name in
  Unix.mkdir dir 0o755;
  let path = wal_path dir in
  let w = Store.Wal.open_writer path in
  List.iter (fun (lsn, payload) -> Store.Wal.append w ~lsn ~payload) records;
  Store.Wal.close_writer w;
  path

let read_ok path =
  match Store.Wal.read path with
  | Ok r -> r
  | Error e -> Alcotest.failf "unexpected WAL read error: %s" e

let test_wal_empty () =
  let dir = fresh_dir "wal-empty" in
  let r = read_ok (Filename.concat dir "absent.wal") in
  Alcotest.(check int) "no records" 0 (List.length r.Store.Wal.records);
  Alcotest.(check bool) "not truncated" false r.Store.Wal.truncated

let test_wal_roundtrip () =
  let records = [ (0, "alpha"); (1, String.make 300 'x'); (2, "") ] in
  let path = with_wal "wal-roundtrip" records in
  let r = read_ok path in
  Alcotest.(check (list (pair int string))) "records round-trip" records r.Store.Wal.records;
  Alcotest.(check bool) "not truncated" false r.Store.Wal.truncated

let chop path bytes =
  let len = (Unix.stat path).Unix.st_size in
  Unix.truncate path (len - bytes)

let flip_byte path off =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let b = Bytes.create 1 in
  ignore (Unix.read fd b 0 1);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd

(* Frame layout: 16-byte header + payload. *)
let frame_size payload = 16 + String.length payload

let test_wal_torn_tail () =
  let path = with_wal "wal-torn" [ (0, "first"); (1, "second-record") ] in
  chop path 4;
  let r = read_ok path in
  Alcotest.(check (list (pair int string))) "tail dropped" [ (0, "first") ] r.Store.Wal.records;
  Alcotest.(check bool) "flagged truncated" true r.Store.Wal.truncated;
  (* The torn bytes were physically removed: a second read is clean. *)
  let r2 = read_ok path in
  Alcotest.(check (list (pair int string))) "repaired" [ (0, "first") ] r2.Store.Wal.records;
  Alcotest.(check bool) "no longer truncated" false r2.Store.Wal.truncated

let test_wal_midlog_corruption () =
  let path = with_wal "wal-corrupt" [ (0, "first"); (1, "second"); (2, "third") ] in
  (* Flip a payload byte of the middle record: data follows, so this
     cannot be a torn append — it must be a hard error. *)
  flip_byte path (frame_size "first" + 16);
  (match Store.Wal.read path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "mid-log corruption must be a hard error")

let test_wal_corrupt_final_is_torn () =
  let path = with_wal "wal-corrupt-final" [ (0, "first"); (1, "second") ] in
  flip_byte path (frame_size "first" + 16);
  let r = read_ok path in
  Alcotest.(check (list (pair int string))) "final record dropped" [ (0, "first") ]
    r.Store.Wal.records;
  Alcotest.(check bool) "flagged truncated" true r.Store.Wal.truncated

(* ---- snapshots ------------------------------------------------------- *)

let test_snapshot_roundtrip () =
  let dir = fresh_dir "snap" in
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "x.snap" in
  let payload = "payload \x00 with binary \xff bytes" in
  Store.Snapshot.write path ~payload;
  (match Store.Snapshot.read path with
  | Ok p -> Alcotest.(check string) "payload round-trips" payload p
  | Error e -> Alcotest.fail e);
  flip_byte path 20;
  (match Store.Snapshot.read path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupt snapshot must not read back");
  match Store.Snapshot.read (Filename.concat dir "missing.snap") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing snapshot must be an error"

(* ---- shard map / shard db ------------------------------------------- *)

let initial_files n =
  List.init n (fun i -> (Printf.sprintf "src/file_%02d.ml" i, Printf.sprintf "v0-%d" i))

let test_shard_map_routing () =
  let keys = List.map fst (initial_files 32) in
  let map = Store.Shard_map.create ~branching:8 ~shards:4 ~keys in
  let boundaries = Store.Shard_map.boundaries map in
  Alcotest.(check int) "3 boundaries" 3 (Array.length boundaries);
  Array.iteri
    (fun i b -> if i > 0 then Alcotest.(check bool) "strictly sorted" true (boundaries.(i - 1) < b))
    boundaries;
  List.iter
    (fun k ->
      let i = Store.Shard_map.route map k in
      Alcotest.(check bool) "route in range" true (i >= 0 && i < 4);
      if i > 0 then Alcotest.(check bool) "above lower boundary" true (k >= boundaries.(i - 1));
      if i < 3 then Alcotest.(check bool) "below upper boundary" true (k < boundaries.(i)))
    keys;
  (match Store.Shard_map.decode (Store.Shard_map.encode map) with
  | Some map' -> Alcotest.(check bool) "encode/decode round-trips" true (Store.Shard_map.equal map map')
  | None -> Alcotest.fail "shard map decode failed");
  (* Few distinct keys: the byte-space fallback still yields a valid map. *)
  let tiny = Store.Shard_map.create ~branching:8 ~shards:4 ~keys:[ "only" ] in
  Alcotest.(check int) "fallback boundaries" 3 (Array.length (Store.Shard_map.boundaries tiny))

let test_single_shard_is_flat () =
  let initial = initial_files 20 in
  let db = Store.Shard_db.create ~branching:8 ~shards:1 initial in
  let flat = T.of_alist ~branching:8 initial in
  Alcotest.(check string) "one shard root = flat tree root (byte-identical)"
    (Crypto.Hex.encode (T.root_digest flat))
    (Crypto.Hex.encode (Store.Shard_db.root_digest db))

let ops_script : Vo.op list =
  [
    Vo.Set ("src/file_03.ml", "A1");
    Vo.Set ("zzz/new.ml", "Z1");
    Vo.Set_many [ ("src/file_00.ml", "B1"); ("src/file_19.ml", "B2"); ("alpha", "B3") ];
    Vo.Get "src/file_05.ml";
    Vo.Remove "src/file_07.ml";
    Vo.Range ("src/file_00.ml", "src/file_09.ml");
    Vo.Set ("src/file_11.ml", "C1");
    Vo.Set_many [];
  ]

let test_shard_db_matches_oracle () =
  let initial = initial_files 20 in
  let sharded = ref (Store.Shard_db.create ~branching:8 ~shards:4 initial) in
  let flat = ref (T.of_alist ~branching:8 initial) in
  List.iter
    (fun op ->
      let sdb', sa = Store.Shard_db.apply !sharded op in
      let fdb', fa = Sim.Oracle.trusted_answer !flat op in
      sharded := sdb';
      flat := fdb';
      Alcotest.(check bool) "answers agree" true (Sim.Oracle.answers_equal sa fa))
    ops_script;
  Alcotest.(check (list (pair string string))) "contents agree"
    (T.to_alist !flat)
    (Store.Shard_db.to_alist !sharded);
  match Store.Shard_db.check_invariants !sharded with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* ---- store lifecycle ------------------------------------------------- *)

let expect_fresh = function
  | Ok (s, `Fresh) -> s
  | Ok (_, `Reopened) -> Alcotest.fail "expected a fresh store"
  | Error e -> Alcotest.fail e

let expect_reopened = function
  | Ok (s, `Reopened) -> s
  | Ok (_, `Fresh) -> Alcotest.fail "expected a reopened store"
  | Error e -> Alcotest.fail e

let expect_recovered = function
  | Ok r -> r
  | Error e -> Alcotest.failf "recovery failed: %s" e

(* Apply [ops] through the shard db while logging each to the store,
   exactly as the server does. Returns the final database. *)
let apply_logged store db0 ops =
  List.fold_left
    (fun (db, i) op ->
      let db, _answer = Store.Shard_db.apply db op in
      Store.log_op store ~db ~op ~ctr:(i + 1) ~last_user:(i mod 3);
      (db, i + 1))
    (db0, 0) ops
  |> fst

(* Pins the exact 4-shard composed root digest after [ops_script] over
   [initial_files 20] — recovery, bulk load and shard composition must
   all keep reproducing these bytes. *)
let pinned_final_root = "423c5f1b9734fc617ec6ea4acaba47b698449e3b8de6f36f3688b66ef0304c24"

let test_store_crash_recovery_root () =
  let dir = fresh_dir "recover" in
  let initial = initial_files 20 in
  let store =
    expect_fresh (Store.create_or_open ~dir ~branching:8 ~shards:4 ~initial ())
  in
  let db = apply_logged store (Store.db store) ops_script in
  let live_root = Store.Shard_db.root_digest db in
  Alcotest.(check string) "live root is pinned" pinned_final_root
    (Crypto.Hex.encode live_root);
  let r = expect_recovered (Store.recover store) in
  Alcotest.(check string) "recovered root byte-identical"
    (Crypto.Hex.encode live_root)
    (Crypto.Hex.encode (Store.Shard_db.root_digest r.Store.db));
  Alcotest.(check int) "counter recovered" (List.length ops_script) r.Store.ctr;
  Alcotest.(check int) "last user recovered" ((List.length ops_script - 1) mod 3)
    r.Store.last_user;
  (* For this script a from-scratch bulk load of the final contents
     also lands on the same root. *)
  let rebuilt =
    Store.Shard_db.of_map (Store.shard_map store) (Store.Shard_db.to_alist db)
  in
  Alcotest.(check string) "fresh bulk load agrees"
    (Crypto.Hex.encode live_root)
    (Crypto.Hex.encode (Store.Shard_db.root_digest rebuilt));
  Store.close store

let test_store_recovery_across_checkpoints () =
  let dir = fresh_dir "recover-ckpt" in
  let initial = initial_files 20 in
  let store =
    expect_fresh
      (Store.create_or_open ~checkpoint_every:3 ~dir ~branching:8 ~shards:4 ~initial ())
  in
  let db = apply_logged store (Store.db store) ops_script in
  Alcotest.(check bool) "auto-checkpoints advanced the generation" true
    (Store.generation store > 0);
  let r = expect_recovered (Store.recover store) in
  Alcotest.(check string) "root byte-identical across checkpoint + tail"
    (Crypto.Hex.encode (Store.Shard_db.root_digest db))
    (Crypto.Hex.encode (Store.Shard_db.root_digest r.Store.db));
  (* Snapshot + empty tail: checkpoint, then recover with no WAL records
     after it. *)
  Store.checkpoint store ~db;
  let r2 = expect_recovered (Store.recover store) in
  Alcotest.(check string) "snapshot-only recovery agrees"
    (Crypto.Hex.encode (Store.Shard_db.root_digest db))
    (Crypto.Hex.encode (Store.Shard_db.root_digest r2.Store.db));
  Store.close store

let test_store_recovery_torn_tail () =
  let dir = fresh_dir "recover-torn" in
  let initial = initial_files 20 in
  let store =
    expect_fresh (Store.create_or_open ~dir ~branching:8 ~shards:4 ~initial ())
  in
  let db = apply_logged store (Store.db store) ops_script in
  Store.close store;
  (* A crash mid-append leaves a partial frame on some shard's log;
     recovery (via reopen) must shrug it off. *)
  let target = Filename.concat dir "shard0.0.wal" in
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 target in
  output_string oc "\x00\x00\x01";
  close_out oc;
  let store2 = expect_reopened (Store.create_or_open ~dir ~branching:8 ~shards:4 ~initial ()) in
  Alcotest.(check string) "torn tail dropped, state intact"
    (Crypto.Hex.encode (Store.Shard_db.root_digest db))
    (Crypto.Hex.encode (Store.Shard_db.root_digest (Store.db store2)));
  Store.close store2

let test_store_stale_recovery_rewinds () =
  let dir = fresh_dir "stale" in
  let initial = initial_files 20 in
  let store =
    expect_fresh (Store.create_or_open ~dir ~branching:8 ~shards:4 ~initial ())
  in
  let half, rest =
    (List.filteri (fun i _ -> i < 4) ops_script, List.filteri (fun i _ -> i >= 4) ops_script)
  in
  let db1 = apply_logged store (Store.db store) half in
  Store.checkpoint store ~db:db1;
  let db2 =
    List.fold_left
      (fun (db, i) op ->
        let db, _ = Store.Shard_db.apply db op in
        Store.log_op store ~db ~op ~ctr:(i + 1) ~last_user:(i mod 3);
        (db, i + 1))
      (db1, List.length half) rest
    |> fst
  in
  let r = expect_recovered (Store.recover_stale store) in
  (* The stale generation is the pre-checkpoint baseline: everything —
     even the checkpointed half — is adversarially forgotten. *)
  Alcotest.(check string) "rewound to the initial baseline"
    (Crypto.Hex.encode (Store.Shard_db.root_digest (Store.Shard_db.create ~branching:8 ~shards:4 initial)))
    (Crypto.Hex.encode (Store.Shard_db.root_digest r.Store.db));
  Alcotest.(check int) "counter rewound" 0 r.Store.ctr;
  Alcotest.(check bool) "state regressed" true
    (not
       (String.equal
          (Store.Shard_db.root_digest r.Store.db)
          (Store.Shard_db.root_digest db2)));
  (* And the store keeps working from the rewound state. *)
  let db', _ = Store.Shard_db.apply r.Store.db (Vo.Set ("post/crash.ml", "P1")) in
  Store.log_op store ~db:db' ~op:(Vo.Set ("post/crash.ml", "P1")) ~ctr:1 ~last_user:0;
  let r2 = expect_recovered (Store.recover store) in
  Alcotest.(check string) "post-rollback writes recoverable"
    (Crypto.Hex.encode (Store.Shard_db.root_digest db'))
    (Crypto.Hex.encode (Store.Shard_db.root_digest r2.Store.db));
  Store.close store

let test_store_reopen_rebaselines () =
  let dir = fresh_dir "reopen" in
  let initial = initial_files 20 in
  let store =
    expect_fresh (Store.create_or_open ~dir ~branching:8 ~shards:4 ~initial ())
  in
  let db = apply_logged store (Store.db store) ops_script in
  let gen0 = Store.generation store in
  Store.close store;
  let store2 =
    expect_reopened (Store.create_or_open ~dir ~branching:8 ~shards:4 ~initial ())
  in
  Alcotest.(check string) "data survives the reopen"
    (Crypto.Hex.encode (Store.Shard_db.root_digest db))
    (Crypto.Hex.encode (Store.Shard_db.root_digest (Store.db store2)));
  Alcotest.(check bool) "re-baselined as a new generation" true
    (Store.generation store2 > gen0);
  Alcotest.(check (list (pair string string))) "contents identical"
    (Store.Shard_db.to_alist db)
    (Store.Shard_db.to_alist (Store.db store2));
  Store.close store2

(* ---- group commit: durability modes ---------------------------------- *)

(* Whatever the flush cadence, a flushed store recovers to the same
   pinned bytes Per_op produces — group commit batches the I/O, never
   the semantics. *)
let test_store_durability_modes_equivalent () =
  List.iter
    (fun (durability, name) ->
      let dir = fresh_dir ("durability-" ^ name) in
      let initial = initial_files 20 in
      let store =
        expect_fresh
          (Store.create_or_open ~durability ~dir ~branching:8 ~shards:4 ~initial ())
      in
      let db = apply_logged store (Store.db store) ops_script in
      Store.flush store;
      let r = expect_recovered (Store.recover store) in
      Alcotest.(check string)
        (name ^ ": recovered root is the pinned Per_op root")
        pinned_final_root
        (Crypto.Hex.encode (Store.Shard_db.root_digest r.Store.db));
      Alcotest.(check string) (name ^ ": live root agrees")
        (Crypto.Hex.encode (Store.Shard_db.root_digest db))
        (Crypto.Hex.encode (Store.Shard_db.root_digest r.Store.db));
      Alcotest.(check int) (name ^ ": counter recovered") (List.length ops_script)
        r.Store.ctr;
      Store.close store;
      rm_rf dir)
    [ (Store.Per_round, "per-round"); (Store.Every_n 3, "every-3") ]

(* Under deferred durability a crash loses exactly the staged-but-
   unflushed tail — never anything a completed flush covered. *)
let test_store_staged_tail_lost_on_crash () =
  let dir = fresh_dir "staged-loss" in
  let initial = initial_files 20 in
  let store =
    expect_fresh
      (Store.create_or_open ~durability:Store.Per_round ~dir ~branching:8 ~shards:4
         ~initial ())
  in
  let half, rest =
    (List.filteri (fun i _ -> i < 4) ops_script, List.filteri (fun i _ -> i >= 4) ops_script)
  in
  let db1 = apply_logged store (Store.db store) half in
  Store.flush store;
  (* Stage the rest without a round boundary: a crash now loses it. *)
  let db2 =
    List.fold_left
      (fun (db, i) op ->
        let db, _ = Store.Shard_db.apply db op in
        Store.log_op store ~db ~op ~ctr:(i + 1) ~last_user:(i mod 3);
        (db, i + 1))
      (db1, List.length half) rest
    |> fst
  in
  let r = expect_recovered (Store.recover store) in
  Alcotest.(check string) "recovered to the last flush point"
    (Crypto.Hex.encode (Store.Shard_db.root_digest db1))
    (Crypto.Hex.encode (Store.Shard_db.root_digest r.Store.db));
  Alcotest.(check int) "counter rewound to the flush point" (List.length half) r.Store.ctr;
  Alcotest.(check bool) "the staged tail really was dropped" true
    (not
       (String.equal
          (Store.Shard_db.root_digest r.Store.db)
          (Store.Shard_db.root_digest db2)));
  (* The store keeps logging cleanly from the recovered state. *)
  let db', _ = Store.Shard_db.apply r.Store.db (Vo.Set ("post/loss.ml", "L1")) in
  Store.log_op store ~db:db' ~op:(Vo.Set ("post/loss.ml", "L1"))
    ~ctr:(r.Store.ctr + 1) ~last_user:0;
  Store.flush store;
  let r2 = expect_recovered (Store.recover store) in
  Alcotest.(check string) "post-recovery writes durable"
    (Crypto.Hex.encode (Store.Shard_db.root_digest db'))
    (Crypto.Hex.encode (Store.Shard_db.root_digest r2.Store.db));
  Store.close store;
  rm_rf dir

(* ---- long logs and bounded directories ------------------------------ *)

let bulk_ops n =
  List.init n (fun i ->
      Vo.Set
        ( Printf.sprintf "bulk/key_%03d.ml" i,
          String.make 80 (Char.chr (65 + (i mod 26))) ))

(* With checkpoints held off, the whole run stays in one log per
   stream: recovery and a cold reopen replay all of it, byte for byte. *)
let test_store_long_log_recovers () =
  let dir = fresh_dir "long-log" in
  let initial = initial_files 20 in
  let store =
    expect_fresh
      (Store.create_or_open ~checkpoint_every:1000 ~dir ~branching:8 ~shards:2
         ~initial ())
  in
  let db = apply_logged store (Store.db store) (bulk_ops 40) in
  Store.flush store;
  let r = expect_recovered (Store.recover store) in
  Alcotest.(check string) "recovery of a 40-op log is byte-identical"
    (Crypto.Hex.encode (Store.Shard_db.root_digest db))
    (Crypto.Hex.encode (Store.Shard_db.root_digest r.Store.db));
  Alcotest.(check int) "counter intact" 40 r.Store.ctr;
  Store.close store;
  (match Store.inspect ~dir with
  | Error e -> Alcotest.failf "inspect failed: %s" e
  | Ok info ->
      Alcotest.(check int) "no checkpoint happened" 0 info.Store.info_generation;
      Alcotest.(check int) "every op is in the shard logs" 40
        (List.fold_left
           (fun n (s : Store.stream_info) ->
             if String.equal s.Store.str_name "meta" then n else n + s.Store.str_records)
           0 info.Store.info_streams));
  let store2 =
    expect_reopened
      (Store.create_or_open ~dir ~branching:8 ~shards:2 ~initial ())
  in
  Alcotest.(check string) "cold reopen agrees"
    (Crypto.Hex.encode (Store.Shard_db.root_digest db))
    (Crypto.Hex.encode (Store.Shard_db.root_digest (Store.db store2)));
  Store.close store2;
  rm_rf dir

(* The snapshot names a [bases.<g>] file lists, decoded independently
   of the store: layout magic, generation, one name per stream. *)
let bases_snapshots dir g =
  match Store.Snapshot.read (Filename.concat dir (Printf.sprintf "bases.%d" g)) with
  | Error e -> Alcotest.fail e
  | Ok payload -> (
      match
        Wire.decode payload (fun r ->
            Alcotest.(check string) "bases magic" "TCVSBAS2" (Wire.R.raw r 8);
            Alcotest.(check int) "bases generation" g (Wire.R.u32 r);
            Wire.R.list r Wire.R.str)
      with
      | Some files -> files
      | None -> Alcotest.failf "bases.%d: malformed" g)

(* Checkpoints alone bound the store: after many generations the
   directory holds the control files, the current and previous
   generations' bases files and logs, the snapshots those bases name —
   and nothing else. *)
let test_store_checkpoints_bound_directory () =
  let dir = fresh_dir "bounded" in
  let initial = initial_files 20 in
  let every = 8 and shards = 4 in
  let store =
    expect_fresh
      (Store.create_or_open ~checkpoint_every:every ~dir ~branching:8 ~shards
         ~initial ())
  in
  let n = (10 * every) + 5 in
  let ops =
    List.init n (fun i ->
        Vo.Set (Printf.sprintf "src/file_%02d.ml" (i mod 20), Printf.sprintf "v%d" i))
  in
  let db = apply_logged store (Store.db store) ops in
  Store.close store;
  let g = n / every in
  let streams =
    List.init (shards + 1) (fun i ->
        if i = shards then "meta" else Printf.sprintf "shard%d" i)
  in
  let generation_files g =
    (Printf.sprintf "bases.%d" g
    :: List.map (fun s -> Printf.sprintf "%s.%d.wal" s g) streams)
    @ bases_snapshots dir g
  in
  Alcotest.(check (list string)) "only the live and the retained generation remain"
    (List.sort_uniq String.compare
       ([ "MANIFEST"; "MANIFEST.bak"; "CURRENT" ]
       @ generation_files g @ generation_files (g - 1)))
    (List.sort String.compare (Array.to_list (Sys.readdir dir)));
  (match Store.inspect ~dir with
  | Error e -> Alcotest.failf "inspect failed: %s" e
  | Ok info ->
      Alcotest.(check int) "one generation per checkpoint" g info.Store.info_generation;
      Alcotest.(check (list string)) "no orphans" [] info.Store.info_orphans;
      let replayed =
        List.fold_left
          (fun n (s : Store.stream_info) ->
            if String.equal s.Store.str_name "meta" then n else n + s.Store.str_records)
          0 info.Store.info_streams
      in
      Alcotest.(check int) "recovery replays only the ops since the checkpoint"
        (n mod every) replayed;
      Alcotest.(check bool) "fewer than checkpoint_every" true (replayed < every));
  let store2, r =
    match Store.resume ~checkpoint_every:every ~dir () with
    | Ok x -> x
    | Error e -> Alcotest.failf "resume failed: %s" e
  in
  Alcotest.(check string) "recovered root byte-identical"
    (Crypto.Hex.encode (Store.Shard_db.root_digest db))
    (Crypto.Hex.encode (Store.Shard_db.root_digest r.Store.db));
  Alcotest.(check int) "counter intact" n r.Store.ctr;
  Store.close store2;
  rm_rf dir

(* A directory in the earlier layout (segmented logs named
   <stream>.<g>.<segment>.wal, a bases payload that opens with the
   generation number) must fail to open — never be misread with its
   logs silently skipped. *)
let test_store_older_layout_refused () =
  let dir = fresh_dir "old-layout" in
  let initial = initial_files 20 in
  let store =
    expect_fresh (Store.create_or_open ~dir ~branching:8 ~shards:2 ~initial ())
  in
  ignore (apply_logged store (Store.db store) ops_script);
  Store.close store;
  (* Rewrite generation 0 as the earlier layout stored it: per stream,
     base snapshot, first live segment, asof + 1, ctr, last user + 1,
     no signature. *)
  let w = Wire.W.create () in
  Wire.W.u32 w 0;
  Wire.W.list w
    (fun file ->
      Wire.W.str w file;
      Wire.W.u32 w 0;
      Wire.W.u64 w 0;
      Wire.W.u32 w 0;
      Wire.W.u32 w 0;
      Wire.W.u8 w 0)
    [ "shard0.0.snap"; "shard1.0.snap"; "meta.0.snap" ];
  Store.Snapshot.write (Filename.concat dir "bases.0") ~payload:(Wire.W.contents w);
  List.iter
    (fun s ->
      Sys.rename
        (Filename.concat dir (s ^ ".0.wal"))
        (Filename.concat dir (s ^ ".0.0.wal")))
    [ "shard0"; "shard1"; "meta" ];
  let refused what = function
    | Ok _ -> Alcotest.failf "%s opened an older-layout store" what
    | Error e ->
        Alcotest.(check bool) (what ^ " names the layout: " ^ e) true
          (contains e "unsupported store layout")
  in
  refused "create_or_open"
    (Store.create_or_open ~dir ~branching:8 ~shards:2 ~initial ());
  refused "resume" (Store.resume ~dir ());
  refused "inspect" (Store.inspect ~dir);
  rm_rf dir

(* ---- crash window: mid-checkpoint ------------------------------------ *)

let test_store_partial_checkpoint_ignored () =
  let dir = fresh_dir "partial-ckpt" in
  let initial = initial_files 20 in
  let store =
    expect_fresh
      (Store.create_or_open ~checkpoint_every:1000 ~dir ~branching:8 ~shards:4
         ~initial ())
  in
  let db = apply_logged store (Store.db store) ops_script in
  Store.debug_partial_checkpoint store ~db;
  let r = expect_recovered (Store.recover store) in
  Alcotest.(check string) "recovery lands on the old generation, bytes intact"
    pinned_final_root
    (Crypto.Hex.encode (Store.Shard_db.root_digest r.Store.db));
  Alcotest.(check int) "counter intact" (List.length ops_script) r.Store.ctr;
  Store.close store;
  (* The unpublished next-generation files are visible as orphans. *)
  (match Store.inspect ~dir with
  | Error e -> Alcotest.failf "inspect failed: %s" e
  | Ok info ->
      Alcotest.(check int) "generation unchanged" 0 info.Store.info_generation;
      Alcotest.(check bool) "checkpoint leftovers are orphans" true
        (info.Store.info_orphans <> []));
  (* A cold reopen must shrug the leftovers off too. *)
  let store2 =
    expect_reopened (Store.create_or_open ~dir ~branching:8 ~shards:4 ~initial ())
  in
  Alcotest.(check string) "cold reopen ignores the leftovers"
    pinned_final_root
    (Crypto.Hex.encode (Store.Shard_db.root_digest (Store.db store2)));
  Store.close store2;
  rm_rf dir

(* ---- incremental checkpoints ----------------------------------------- *)

let test_store_incremental_checkpoint () =
  let dir = fresh_dir "incr-ckpt" in
  let initial = initial_files 20 in
  let store =
    expect_fresh
      (Store.create_or_open ~checkpoint_every:1000 ~dir ~branching:8 ~shards:4
         ~initial ())
  in
  let db = apply_logged store (Store.db store) ops_script in
  Store.checkpoint store ~db;
  let g1 = Store.generation store in
  (* Dirty exactly one shard, then checkpoint again. *)
  let key = "src/file_03.ml" in
  let dirty_shard = Store.Shard_map.route (Store.shard_map store) key in
  let db2, _ = Store.Shard_db.apply db (Vo.Set (key, "INCR")) in
  Store.log_op store ~db:db2 ~op:(Vo.Set (key, "INCR"))
    ~ctr:(List.length ops_script + 1) ~last_user:0;
  Store.checkpoint store ~db:db2;
  let g2 = Store.generation store in
  Alcotest.(check int) "checkpoint advanced the generation" (g1 + 1) g2;
  (* Only the dirtied shard got a fresh snapshot file; clean shards
     carry their base forward through the bases file. *)
  for i = 0 to 3 do
    let fresh_snap = Filename.concat dir (Printf.sprintf "shard%d.%d.snap" i g2) in
    Alcotest.(check bool)
      (Printf.sprintf "shard%d %s a generation-%d snapshot" i
         (if i = dirty_shard then "has" else "does not have")
         g2)
      (i = dirty_shard)
      (Sys.file_exists fresh_snap)
  done;
  Alcotest.(check bool) "meta is always re-snapshotted" true
    (Sys.file_exists (Filename.concat dir (Printf.sprintf "meta.%d.snap" g2)));
  let r = expect_recovered (Store.recover store) in
  Alcotest.(check string) "recovery from the mixed-generation bases"
    (Crypto.Hex.encode (Store.Shard_db.root_digest db2))
    (Crypto.Hex.encode (Store.Shard_db.root_digest r.Store.db));
  Alcotest.(check int) "counter intact" (List.length ops_script + 1) r.Store.ctr;
  Store.close store;
  (* Cold restart reads the same mixed bases. *)
  let store2 =
    expect_reopened (Store.create_or_open ~dir ~branching:8 ~shards:4 ~initial ())
  in
  Alcotest.(check string) "cold reopen agrees"
    (Crypto.Hex.encode (Store.Shard_db.root_digest db2))
    (Crypto.Hex.encode (Store.Shard_db.root_digest (Store.db store2)));
  Store.close store2;
  rm_rf dir

(* ---- store-inspect ---------------------------------------------------- *)

let test_store_inspect_layout () =
  let dir = fresh_dir "inspect" in
  let initial = initial_files 20 in
  let store =
    expect_fresh (Store.create_or_open ~dir ~branching:8 ~shards:2 ~initial ())
  in
  ignore (apply_logged store (Store.db store) ops_script);
  Store.close store;
  match Store.inspect ~dir with
  | Error e -> Alcotest.failf "inspect failed: %s" e
  | Ok info ->
      Alcotest.(check int) "shards" 2 info.Store.info_shards;
      Alcotest.(check int) "branching" 8 info.Store.info_branching;
      Alcotest.(check int) "generation" 0 info.Store.info_generation;
      Alcotest.(check string) "manifest" "ok" info.Store.info_manifest;
      Alcotest.(check int) "streams = shards + meta" 3
        (List.length info.Store.info_streams);
      Alcotest.(check (list string)) "no orphans" [] info.Store.info_orphans;
      List.iter
        (fun (s : Store.stream_info) ->
          Alcotest.(check bool) (s.Store.str_name ^ ": base ok") true s.Store.str_base_ok;
          Alcotest.(check string) (s.Store.str_log_file ^ ": ok") "ok"
            s.Store.str_log_status)
        info.Store.info_streams;
      rm_rf dir

(* ---- torn MANIFEST --------------------------------------------------- *)

let test_store_torn_manifest_repaired () =
  let dir = fresh_dir "torn" in
  let initial = initial_files 20 in
  let store =
    expect_fresh (Store.create_or_open ~dir ~branching:8 ~shards:4 ~initial ())
  in
  let db = apply_logged store (Store.db store) ops_script in
  Store.debug_tear_manifest ~dir ~wreck_backup:false;
  let r = expect_recovered (Store.recover_reload store) in
  Alcotest.(check string) "repaired from MANIFEST.bak, root intact"
    (Crypto.Hex.encode (Store.Shard_db.root_digest db))
    (Crypto.Hex.encode (Store.Shard_db.root_digest r.Store.db));
  Alcotest.(check int) "counter intact" (List.length ops_script) r.Store.ctr;
  Store.close store;
  (* The repair is durable: a later cold reopen sees a whole MANIFEST. *)
  Alcotest.(check bool) "manifest present" true (Store.manifest_exists dir);
  let store2 =
    expect_reopened (Store.create_or_open ~dir ~branching:8 ~shards:4 ~initial ())
  in
  Alcotest.(check string) "cold reopen after repair"
    (Crypto.Hex.encode (Store.Shard_db.root_digest db))
    (Crypto.Hex.encode (Store.Shard_db.root_digest (Store.db store2)));
  Store.close store2

let test_store_torn_manifest_wrecked_fatal () =
  let dir = fresh_dir "torn-hard" in
  let initial = initial_files 20 in
  let store =
    expect_fresh (Store.create_or_open ~dir ~branching:8 ~shards:4 ~initial ())
  in
  ignore (apply_logged store (Store.db store) ops_script);
  Store.debug_tear_manifest ~dir ~wreck_backup:true;
  (match Store.recover_reload store with
  | Ok _ -> Alcotest.fail "recovery served a half-initialized shard map"
  | Error _ -> ());
  Store.close store

(* ---- resume: the daemon's restart path ------------------------------- *)

let test_store_resume_preserves_bookkeeping () =
  let dir = fresh_dir "resume" in
  let initial = initial_files 20 in
  let store =
    expect_fresh (Store.create_or_open ~dir ~branching:8 ~shards:4 ~initial ())
  in
  (* Log ops as the network daemon does: tagged with their request
     origin, replies durably cached. *)
  let db =
    List.fold_left
      (fun (db, i) op ->
        let user = i mod 3 in
        Store.declare_origin store ~user ~seq:(100 + i);
        let db, _ = Store.Shard_db.apply db op in
        Store.log_op store ~db ~op ~ctr:(i + 1) ~last_user:user;
        Store.log_reply store ~user ~seq:(100 + i)
          ~payload:(Printf.sprintf "reply-%d" i);
        (db, i + 1))
      (Store.db store, 0)
      ops_script
    |> fst
  in
  let n = List.length ops_script in
  let gen = Store.generation store in
  Store.close store;
  let store2, r =
    match Store.resume ~dir () with
    | Ok x -> x
    | Error e -> Alcotest.failf "resume failed: %s" e
  in
  (* Unlike create_or_open, resume keeps the generation — clients use a
     generation regression as the rollback detector. *)
  Alcotest.(check int) "generation preserved" gen (Store.generation store2);
  Alcotest.(check string) "root preserved"
    (Crypto.Hex.encode (Store.Shard_db.root_digest db))
    (Crypto.Hex.encode (Store.Shard_db.root_digest r.Store.db));
  Alcotest.(check int) "counter preserved" n r.Store.ctr;
  (* ops_script has 8 ops over users 0,1,2: user u's last op is the
     largest i with i mod 3 = u. *)
  let expect_seq u =
    let rec last best i = if i >= n then best else last (if i mod 3 = u then i else best) (i + 1) in
    100 + last (-1) 0
  in
  Alcotest.(check (list (pair int int)))
    "per-user dedup seqs recovered"
    [ (0, expect_seq 0); (1, expect_seq 1); (2, expect_seq 2) ]
    r.Store.seqs;
  List.iter
    (fun (u, seq, payload) ->
      Alcotest.(check int) (Printf.sprintf "u%d cached seq" u) (expect_seq u) seq;
      Alcotest.(check string)
        (Printf.sprintf "u%d cached payload" u)
        (Printf.sprintf "reply-%d" (expect_seq u - 100))
        payload)
    r.Store.replies;
  Alcotest.(check int) "one cached reply per user" 3 (List.length r.Store.replies);
  (* And the resumed store keeps answering the dedup queries live. *)
  Alcotest.(check (list (pair int int))) "last_seqs live" r.Store.seqs
    (Store.last_seqs store2);
  (match Store.cached_reply store2 ~user:1 with
  | Some (seq, _) -> Alcotest.(check int) "cached_reply live" (expect_seq 1) seq
  | None -> Alcotest.fail "no cached reply for user 1");
  Store.close store2

(* ---- server crash recovery ------------------------------------------ *)

(* Satellite regression: a recovered server must not re-present
   pre-crash branch history as fresh — recovery clears it while keeping
   counter and root byte-identical. *)
let test_server_crash_clears_history () =
  let dir = fresh_dir "server-history" in
  let initial = initial_files 8 in
  let store =
    expect_fresh (Store.create_or_open ~dir ~branching:8 ~shards:1 ~initial ())
  in
  let engine = Sim.Engine.create ~measure:Message.encoded_size ~classify:Message.kind () in
  Sim.Engine.register engine (Sim.Id.User 0)
    {
      Sim.Engine.on_message = (fun ~round:_ ~src:_ _ -> ());
      on_activate = (fun ~round:_ -> ());
    };
  let server =
    Server.create ~store
      {
        Server.mode = `Plain;
        epoch_len = None;
        branching = 8;
        adversary = Adversary.Crash { at_round = 6 };
        history_cap = 64;
      }
      ~engine ~initial ~initial_root_sig:None
  in
  List.iter
    (fun i ->
      Sim.Engine.send engine ~src:(Sim.Id.User 0) ~dst:Sim.Id.Server
        (Message.Query { op = Vo.Set (Printf.sprintf "k%d" i, "v"); piggyback = [] }))
    [ 0; 1; 2 ];
  ignore (Sim.Engine.run_until engine ~max_rounds:3 (fun () -> false));
  Alcotest.(check int) "ops applied pre-crash" 3 (Server.ops_performed server);
  Alcotest.(check bool) "history non-empty pre-crash" true (Server.history_length server > 0);
  let pre_root = Server.true_root server in
  ignore (Sim.Engine.run_until engine ~max_rounds:10 (fun () -> false));
  Alcotest.(check int) "history cleared by recovery" 0 (Server.history_length server);
  Alcotest.(check string) "root byte-identical after recovery"
    (Crypto.Hex.encode pre_root)
    (Crypto.Hex.encode (Server.true_root server));
  Alcotest.(check int) "counter preserved" 3 (Server.ops_performed server);
  Alcotest.(check int) "no alarms" 0 (List.length (Sim.Engine.alarms engine))

(* ---- harness: crash adversaries end to end --------------------------- *)

let workload ?(users = 4) ?(rounds = 200) seed =
  S.generate
    {
      S.default_profile with
      S.users;
      files = 24;
      mean_think = 4.0;
      offline_probability = 0.02;
      mean_offline = 30.0;
    }
    ~seed ~rounds

let protocols k =
  [
    Harness.Protocol_1 { k };
    Harness.Protocol_2 { k; tag_mode = `Tagged; check_gctr = true; sync_trigger = `Per_user };
    Harness.Protocol_3 { epoch_len = 120 };
    Harness.Protocol_4 { announce_every = 4 };
  ]

let run_with_store ?shards ?(durability = Store.Per_op) ~dir protocol adversary
    events =
  rm_rf dir;
  let setup =
    {
      (Harness.default_setup ~protocol ~users:4 ~adversary) with
      Harness.store_dir = Some dir;
      shards;
      store_durability = durability;
    }
  in
  Harness.run setup ~events

let test_harness_crash_transparent () =
  let events = workload "crash-clean" in
  List.iter
    (fun protocol ->
      let dir = fresh_dir "harness-crash" in
      let o =
        run_with_store ~shards:4 ~dir protocol (Adversary.Crash { at_round = 40 }) events
      in
      Alcotest.(check int)
        (Harness.protocol_name protocol ^ ": no alarms")
        0 (List.length o.Harness.alarms);
      Alcotest.(check bool) "oracle consistent" false o.Harness.oracle.Sim.Oracle.deviated;
      Alcotest.(check int) "no transaction lost to the crash" o.Harness.issued_transactions
        o.Harness.completed_transactions;
      (match Harness.classify o with
      | `Clean -> ()
      | _ -> Alcotest.fail "honest crash must classify clean");
      rm_rf dir)
    (protocols 8)

let test_harness_rollback_crash_detected () =
  let events = workload "rollback-crash" in
  List.iter
    (fun protocol ->
      let dir = fresh_dir "harness-rbc" in
      let o =
        run_with_store ~dir protocol (Adversary.Rollback_crash { at_round = 60 }) events
      in
      Alcotest.(check bool)
        (Harness.protocol_name protocol ^ ": detected")
        true o.Harness.detected;
      Alcotest.(check (option int)) "violation round is the crash round" (Some 60)
        o.Harness.violation_round;
      (match Harness.classify o with
      | `True_alarm -> ()
      | _ -> Alcotest.fail "rollback-crash must classify as a true alarm");
      rm_rf dir)
    (protocols 8)

let test_harness_torn_manifest_repaired_quiet () =
  let events = workload "torn-clean" in
  List.iter
    (fun protocol ->
      let dir = fresh_dir "harness-torn" in
      let o =
        run_with_store ~shards:4 ~dir protocol
          (Adversary.Torn_manifest { at_round = 40; wreck = false })
          events
      in
      Alcotest.(check int)
        (Harness.protocol_name protocol ^ ": no alarms")
        0 (List.length o.Harness.alarms);
      (match Harness.classify o with
      | `Clean -> ()
      | _ -> Alcotest.fail "repairable torn MANIFEST must classify clean");
      rm_rf dir)
    (protocols 8)

let test_harness_torn_manifest_wreck_halts () =
  let events = workload "torn-hard" in
  List.iter
    (fun protocol ->
      let dir = fresh_dir "harness-torn-hard" in
      let o =
        run_with_store ~shards:4 ~dir protocol
          (Adversary.Torn_manifest { at_round = 40; wreck = true })
          events
      in
      Alcotest.(check bool)
        (Harness.protocol_name protocol ^ ": detected")
        true o.Harness.detected;
      Alcotest.(check bool) "recovery failure surfaced loudly" true
        (List.exists
           (fun (a : Sim.Engine.alarm_record) ->
             let n = String.length "store recovery failed" in
             String.length a.Sim.Engine.reason >= n
             && String.equal (String.sub a.Sim.Engine.reason 0 n) "store recovery failed")
           o.Harness.alarms);
      (match Harness.classify o with
      | `True_alarm -> ()
      | _ -> Alcotest.fail "wrecked MANIFEST must classify as a true alarm");
      rm_rf dir)
    (protocols 8)

(* ---- harness: a crash inside the checkpoint window -------------------- *)

let test_harness_checkpoint_crash_transparent () =
  let events = workload "ckpt-crash" in
  List.iter
    (fun protocol ->
      let dir = fresh_dir "harness-ckpt-crash" in
      let o =
        run_with_store ~shards:4 ~dir protocol
          (Adversary.Checkpoint_crash { at_round = 40 })
          events
      in
      Alcotest.(check int)
        (Harness.protocol_name protocol ^ ": no alarms")
        0 (List.length o.Harness.alarms);
      Alcotest.(check bool) "oracle consistent" false o.Harness.oracle.Sim.Oracle.deviated;
      Alcotest.(check int) "no transaction lost to the crash" o.Harness.issued_transactions
        o.Harness.completed_transactions;
      (match Harness.classify o with
      | `Clean -> ()
      | _ -> Alcotest.fail "mid-checkpoint crash must classify clean");
      rm_rf dir)
    (protocols 8)

(* ---- harness: storeless crash adversaries are refused ----------------- *)

let test_harness_storeless_crash_refused () =
  List.iter
    (fun adversary ->
      let setup =
        Harness.default_setup
          ~protocol:(Harness.Protocol_2 { k = 8; tag_mode = `Tagged; check_gctr = true; sync_trigger = `Per_user })
          ~users:4 ~adversary
      in
      (match Harness.validate setup with
      | Error (Harness.Store_required a) ->
          Alcotest.(check string) "names the adversary" (Adversary.name adversary)
            (Adversary.name a);
          (* The message must tell the operator what to do, not just
             what went wrong. *)
          let msg = Harness.setup_error_message (Harness.Store_required a) in
          Alcotest.(check bool) "mentions --store" true (contains msg "--store")
      | Error (Harness.Store_failed _) -> Alcotest.fail "wrong error"
      | Ok () -> Alcotest.fail "storeless crash adversary accepted");
      match
        Harness.run setup ~events:(workload ~rounds:20 "storeless")
      with
      | exception Harness.Setup_error (Harness.Store_required _) -> ()
      | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
      | _ -> Alcotest.fail "run proceeded without a store")
    [
      Adversary.Crash { at_round = 10 };
      Adversary.Rollback_crash { at_round = 10 };
      Adversary.Torn_manifest { at_round = 10; wreck = true };
      Adversary.Checkpoint_crash { at_round = 10 };
    ]

(* ---- harness: shard-count invariance --------------------------------- *)

let run_sharded ~shards protocol adversary events =
  let setup =
    { (Harness.default_setup ~protocol ~users:4 ~adversary) with Harness.shards = Some shards }
  in
  Harness.run setup ~events

let test_shard_count_invariance () =
  let events = workload "shard-invariance" in
  let p2 = Harness.Protocol_2 { k = 8; tag_mode = `Tagged; check_gctr = true; sync_trigger = `Per_user } in
  List.iter
    (fun adversary ->
      let o1 = run_sharded ~shards:1 p2 adversary events in
      let o4 = run_sharded ~shards:4 p2 adversary events in
      Alcotest.(check bool)
        (Adversary.name adversary ^ ": same detection under 1 and 4 shards")
        o1.Harness.detected o4.Harness.detected;
      Alcotest.(check bool) "same classification" true
        (Harness.classify o1 = Harness.classify o4);
      Alcotest.(check bool) "same oracle verdict" o1.Harness.oracle.Sim.Oracle.deviated
        o4.Harness.oracle.Sim.Oracle.deviated)
    [
      Adversary.Honest;
      Adversary.Tamper_value { at_op = 10 };
      Adversary.Drop_update { at_op = 10 };
      Adversary.Rollback { at_op = 12; depth = 4; repeat = 1 };
    ]

let test_per_shard_scopes_in_report () =
  let events = workload "shard-scopes" in
  let p2 = Harness.Protocol_2 { k = 8; tag_mode = `Tagged; check_gctr = true; sync_trigger = `Per_user } in
  let _o = run_sharded ~shards:4 p2 Adversary.Honest events in
  let report = Obs.Report.to_json () in
  Alcotest.(check bool) "meta records the shard count" true
    (contains report "\"shards\": \"4\"");
  Alcotest.(check bool) "per-shard scope present" true
    (contains report "\"server.s0.ops_routed\"");
  Alcotest.(check bool) "aggregate present" true
    (contains report "\"server.ops_routed\"")

let test_store_reports_deterministic () =
  let events = workload "store-determinism" in
  let p2 = Harness.Protocol_2 { k = 8; tag_mode = `Tagged; check_gctr = true; sync_trigger = `Per_user } in
  let dir1 = fresh_dir "det-1" and dir2 = fresh_dir "det-2" in
  let _o1 = run_with_store ~shards:4 ~dir:dir1 p2 Adversary.Honest events in
  let report1 = Obs.Report.to_json () in
  let _o2 = run_with_store ~shards:4 ~dir:dir2 p2 Adversary.Honest events in
  let report2 = Obs.Report.to_json () in
  Alcotest.(check string) "same-seed store runs: byte-identical reports" report1 report2;
  rm_rf dir1;
  rm_rf dir2

(* Group commit batches fsyncs, not observable behaviour: the same
   seeded run must emit byte-identical reports whatever the durability
   mode (log-header records are excluded from [store.wal.appends]
   precisely to keep this true). *)
let test_reports_deterministic_across_durability () =
  let events = workload "durability-determinism" in
  let p2 = Harness.Protocol_2 { k = 8; tag_mode = `Tagged; check_gctr = true; sync_trigger = `Per_user } in
  let reports =
    List.map
      (fun (durability, name) ->
        let dir = fresh_dir ("det-dur-" ^ name) in
        let _o = run_with_store ~shards:4 ~durability ~dir p2 Adversary.Honest events in
        let report = Obs.Report.to_json () in
        rm_rf dir;
        (name, report))
      [ (Store.Per_op, "per-op"); (Store.Per_round, "per-round"); (Store.Every_n 16, "every-16") ]
  in
  match reports with
  | (_, baseline) :: rest ->
      List.iter
        (fun (name, report) ->
          Alcotest.(check string)
            (name ^ ": report byte-identical to per-op")
            baseline report)
        rest
  | [] -> Alcotest.fail "no durability modes ran"

let suite =
  [
    Alcotest.test_case "wal: empty log" `Quick test_wal_empty;
    Alcotest.test_case "wal: round trip" `Quick test_wal_roundtrip;
    Alcotest.test_case "wal: torn tail truncated" `Quick test_wal_torn_tail;
    Alcotest.test_case "wal: mid-log corruption fatal" `Quick test_wal_midlog_corruption;
    Alcotest.test_case "wal: corrupt final is torn" `Quick test_wal_corrupt_final_is_torn;
    Alcotest.test_case "snapshot: round trip" `Quick test_snapshot_roundtrip;
    Alcotest.test_case "shard map: routing" `Quick test_shard_map_routing;
    Alcotest.test_case "shard db: 1 shard = flat tree" `Quick test_single_shard_is_flat;
    Alcotest.test_case "shard db: matches oracle" `Quick test_shard_db_matches_oracle;
    Alcotest.test_case "store: crash recovery root (pinned)" `Quick test_store_crash_recovery_root;
    Alcotest.test_case "store: recovery across checkpoints" `Quick
      test_store_recovery_across_checkpoints;
    Alcotest.test_case "store: recovery past a torn tail" `Quick test_store_recovery_torn_tail;
    Alcotest.test_case "store: stale recovery rewinds" `Quick test_store_stale_recovery_rewinds;
    Alcotest.test_case "store: reopen re-baselines" `Quick test_store_reopen_rebaselines;
    Alcotest.test_case "store: torn MANIFEST repaired" `Quick test_store_torn_manifest_repaired;
    Alcotest.test_case "store: wrecked MANIFEST fatal" `Quick
      test_store_torn_manifest_wrecked_fatal;
    Alcotest.test_case "store: resume preserves bookkeeping" `Quick
      test_store_resume_preserves_bookkeeping;
    Alcotest.test_case "store: durability modes equivalent" `Quick
      test_store_durability_modes_equivalent;
    Alcotest.test_case "store: staged tail lost on crash" `Quick
      test_store_staged_tail_lost_on_crash;
    Alcotest.test_case "store: long log recovers" `Quick test_store_long_log_recovers;
    Alcotest.test_case "store: checkpoints bound the directory" `Quick
      test_store_checkpoints_bound_directory;
    Alcotest.test_case "store: older layout refused" `Quick
      test_store_older_layout_refused;
    Alcotest.test_case "store: partial checkpoint ignored" `Quick
      test_store_partial_checkpoint_ignored;
    Alcotest.test_case "store: incremental checkpoint" `Quick
      test_store_incremental_checkpoint;
    Alcotest.test_case "store: inspect reports layout" `Quick test_store_inspect_layout;
    Alcotest.test_case "server: crash clears history" `Quick test_server_crash_clears_history;
    Alcotest.test_case "harness: crash is transparent" `Slow test_harness_crash_transparent;
    Alcotest.test_case "harness: torn MANIFEST transparent" `Slow
      test_harness_torn_manifest_repaired_quiet;
    Alcotest.test_case "harness: wrecked MANIFEST halts loudly" `Slow
      test_harness_torn_manifest_wreck_halts;
    Alcotest.test_case "harness: storeless crash refused" `Quick
      test_harness_storeless_crash_refused;
    Alcotest.test_case "harness: rollback-crash detected" `Slow
      test_harness_rollback_crash_detected;
    Alcotest.test_case "harness: shard-count invariance" `Slow test_shard_count_invariance;
    Alcotest.test_case "harness: per-shard scopes" `Slow test_per_shard_scopes_in_report;
    Alcotest.test_case "harness: checkpoint-crash transparent" `Slow
      test_harness_checkpoint_crash_transparent;
    Alcotest.test_case "harness: store reports deterministic" `Slow
      test_store_reports_deterministic;
    Alcotest.test_case "harness: reports deterministic across durability" `Slow
      test_reports_deterministic_across_durability;
  ]
