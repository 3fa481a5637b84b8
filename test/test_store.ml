(* The durable store: WAL framing and failure policy, snapshots, shard
   maps, crash recovery (byte-identical roots, pinned), stale-recovery
   rollback, reopening in place, re-baselining, and the crash
   adversaries end to end through the harness. *)

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
  | Some map' ->
      Alcotest.(check string) "encode/decode round-trips" (Store.Shard_map.encode map)
        (Store.Shard_map.encode map')
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

(* Reload [store]'s directory as a simulated crash does, and return
   the database it found; [Store.book store] is the bookkeeping. *)
let expect_recovered store =
  match Store.recover store with
  | Ok () -> Store.db store
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
  let r = expect_recovered store in
  Alcotest.(check string) "recovered root byte-identical"
    (Crypto.Hex.encode live_root)
    (Crypto.Hex.encode (Store.Shard_db.root_digest r));
  Alcotest.(check int) "counter recovered" (List.length ops_script)
    (Store.book store).Store.ctr;
  Alcotest.(check int) "last user recovered" ((List.length ops_script - 1) mod 3)
    (Store.book store).Store.last_user;
  (* For this script a from-scratch bulk load of the final contents
     also lands on the same root. *)
  let rebuilt =
    Store.Shard_db.of_map (Store.Shard_db.map db) (Store.Shard_db.to_alist db)
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
  let r = expect_recovered store in
  Alcotest.(check string) "root byte-identical across checkpoint + tail"
    (Crypto.Hex.encode (Store.Shard_db.root_digest db))
    (Crypto.Hex.encode (Store.Shard_db.root_digest r));
  (* Snapshot + empty tail: checkpoint, then recover with no WAL records
     after it. *)
  Store.checkpoint store ~db;
  let r2 = expect_recovered store in
  Alcotest.(check string) "snapshot-only recovery agrees"
    (Crypto.Hex.encode (Store.Shard_db.root_digest db))
    (Crypto.Hex.encode (Store.Shard_db.root_digest r2));
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
  Store.debug_rollback store;
  let r = expect_recovered store in
  (* The stale generation is the pre-checkpoint baseline: everything —
     even the checkpointed half — is adversarially forgotten. *)
  Alcotest.(check string) "rewound to the initial baseline"
    (Crypto.Hex.encode (Store.Shard_db.root_digest (Store.Shard_db.create ~branching:8 ~shards:4 initial)))
    (Crypto.Hex.encode (Store.Shard_db.root_digest r));
  Alcotest.(check int) "counter rewound" 0 (Store.book store).Store.ctr;
  Alcotest.(check bool) "state regressed" true
    (not
       (String.equal
          (Store.Shard_db.root_digest r)
          (Store.Shard_db.root_digest db2)));
  (* And the store keeps working from the rewound state. *)
  let db', _ = Store.Shard_db.apply r (Vo.Set ("post/crash.ml", "P1")) in
  Store.log_op store ~db:db' ~op:(Vo.Set ("post/crash.ml", "P1")) ~ctr:1 ~last_user:0;
  let r2 = expect_recovered store in
  Alcotest.(check string) "post-rollback writes recoverable"
    (Crypto.Hex.encode (Store.Shard_db.root_digest db'))
    (Crypto.Hex.encode (Store.Shard_db.root_digest r2));
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
  Store.rebaseline store2;
  Alcotest.(check string) "data survives the reopen"
    (Crypto.Hex.encode (Store.Shard_db.root_digest db))
    (Crypto.Hex.encode (Store.Shard_db.root_digest (Store.db store2)));
  Alcotest.(check bool) "re-baselined as a new generation" true
    (Store.generation store2 > gen0);
  Alcotest.(check int) "fresh bookkeeping" 0 (Store.book store2).Store.ctr;
  Store.close store2;
  (* The new generation stands alone: a restart resumes it, with no
     tail to replay and nothing older to roll back to. *)
  let store2 =
    expect_reopened (Store.create_or_open ~dir ~branching:8 ~shards:4 ~initial ())
  in
  Alcotest.(check int) "the restart resumes the re-baselined generation" (gen0 + 1)
    (Store.generation store2);
  Alcotest.(check int) "with its fresh bookkeeping" 0 (Store.book store2).Store.ctr;
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
      let r = expect_recovered store in
      Alcotest.(check string)
        (name ^ ": recovered root is the pinned Per_op root")
        pinned_final_root
        (Crypto.Hex.encode (Store.Shard_db.root_digest r));
      Alcotest.(check string) (name ^ ": live root agrees")
        (Crypto.Hex.encode (Store.Shard_db.root_digest db))
        (Crypto.Hex.encode (Store.Shard_db.root_digest r));
      Alcotest.(check int) (name ^ ": counter recovered") (List.length ops_script)
        (Store.book store).Store.ctr;
      Store.close store;
      rm_rf dir)
    [ (Store.Per_round, "per-round") ]

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
  let r = expect_recovered store in
  Alcotest.(check string) "recovered to the last flush point"
    (Crypto.Hex.encode (Store.Shard_db.root_digest db1))
    (Crypto.Hex.encode (Store.Shard_db.root_digest r));
  Alcotest.(check int) "counter rewound to the flush point" (List.length half)
    (Store.book store).Store.ctr;
  Alcotest.(check bool) "the staged tail really was dropped" true
    (not
       (String.equal
          (Store.Shard_db.root_digest r)
          (Store.Shard_db.root_digest db2)));
  (* The store keeps logging cleanly from the recovered state. *)
  let db', _ = Store.Shard_db.apply r (Vo.Set ("post/loss.ml", "L1")) in
  Store.log_op store ~db:db' ~op:(Vo.Set ("post/loss.ml", "L1"))
    ~ctr:((Store.book store).Store.ctr + 1) ~last_user:0;
  Store.flush store;
  let r2 = expect_recovered store in
  Alcotest.(check string) "post-recovery writes durable"
    (Crypto.Hex.encode (Store.Shard_db.root_digest db'))
    (Crypto.Hex.encode (Store.Shard_db.root_digest r2));
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
  let r = expect_recovered store in
  Alcotest.(check string) "recovery of a 40-op log is byte-identical"
    (Crypto.Hex.encode (Store.Shard_db.root_digest db))
    (Crypto.Hex.encode (Store.Shard_db.root_digest r));
  Alcotest.(check int) "counter intact" 40 (Store.book store).Store.ctr;
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
   of the store: layout magic, generation, then per stream its chain of
   names. *)
let bases_snapshots dir g =
  match Store.Snapshot.read (Filename.concat dir (Printf.sprintf "bases.%d" g)) with
  | Error e -> Alcotest.fail e
  | Ok payload -> (
      match
        Wire.decode payload (fun r ->
            Alcotest.(check string) "bases magic" "TCVSBAS3" (Wire.R.raw r 8);
            Alcotest.(check int) "bases generation" g (Wire.R.u32 r);
            Wire.R.list r (fun r -> Wire.R.list r Wire.R.str))
      with
      | Some chains -> List.concat chains
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
  let store2 =
    expect_reopened
      (Store.create_or_open ~checkpoint_every:every ~dir ~branching:8 ~shards ~initial ())
  in
  Alcotest.(check string) "recovered root byte-identical"
    (Crypto.Hex.encode (Store.Shard_db.root_digest db))
    (Crypto.Hex.encode (Store.Shard_db.root_digest (Store.db store2)));
  Alcotest.(check int) "counter intact" n (Store.book store2).Store.ctr;
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
  refused "recover" (Store.recover store);
  refused "inspect" (Store.inspect ~dir);
  Store.close store;
  rm_rf dir

(* The previous formats, built here with SHA-256: snapshot files were
   "TCVSSNP1", the first 8 bytes of SHA-256(payload), the payload; WAL
   records carried the first 4 bytes of SHA-256(lsn ‖ payload), and
   each log's header record named "TCVSLOG1". *)
let rewrite_in_previous_format dir =
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let write path s = Out_channel.with_open_bin path (fun oc -> output_string oc s) in
  let sha_prefix n s = String.sub (Crypto.Sha256.digest s) 0 n in
  Array.iter
    (fun f ->
      let path = Filename.concat dir f in
      let bytes = read path in
      if Filename.check_suffix f ".wal" then begin
        let records =
          match Store.Wal.read ~repair:false path with
          | Ok { Store.Wal.records; truncated = false } -> records
          | _ -> Alcotest.failf "%s: unreadable log" f
        in
        let w = Wire.W.create () in
        List.iteri
          (fun i (lsn, payload) ->
            let payload =
              if i > 0 then payload
              else begin
                Alcotest.(check string) (f ^ " header") "TCVSLOG2" (String.sub payload 4 8);
                String.sub payload 0 4 ^ "TCVSLOG1"
                ^ String.sub payload 12 (String.length payload - 12)
              end
            in
            let l = Wire.W.create () in
            Wire.W.u64 l lsn;
            let lsn_bytes = Wire.W.contents l in
            Wire.W.u32 w (String.length payload);
            Wire.W.raw w (sha_prefix 4 (lsn_bytes ^ payload));
            Wire.W.raw w lsn_bytes;
            Wire.W.raw w payload)
          records;
        write path (Wire.W.contents w)
      end
      else if String.length bytes >= 12 && String.equal (String.sub bytes 0 8) "TCVSSNP2" then begin
        let payload =
          match Store.Snapshot.read path with Ok p -> p | Error e -> Alcotest.fail e
        in
        write path ("TCVSSNP1" ^ sha_prefix 8 payload ^ payload)
      end)
    (Sys.readdir dir)

let dir_contents dir =
  Sys.readdir dir |> Array.to_list |> List.sort String.compare
  |> List.map (fun f ->
         (f, In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all))

(* A directory the previous version wrote — whole, or with its MANIFEST
   torn — is refused by every way in, and nothing in it changes: no
   MANIFEST repair from the backup, no WAL truncation of records whose
   checksums the new format no longer matches. *)
let test_store_previous_format_refused () =
  List.iter
    (fun torn ->
      let dir = fresh_dir "prev-format" in
      let initial = initial_files 20 in
      let store =
        expect_fresh
          (Store.create_or_open ~checkpoint_every:8 ~dir ~branching:8 ~shards:2 ~initial ())
      in
      ignore (apply_logged store (Store.db store) ops_script);
      rewrite_in_previous_format dir;
      if torn then Store.debug_tear_manifest ~dir ~wreck_backup:false;
      let before = dir_contents dir in
      let refused what = function
        | Ok _ -> Alcotest.failf "%s opened a previous-format store" what
        | Error e ->
            Alcotest.(check bool) (what ^ " names the layout: " ^ e) true
              (contains e "unsupported store layout (written by an older version?)");
            Alcotest.(check (list (pair string string)))
              (what ^ " leaves every file byte-identical")
              before (dir_contents dir)
      in
      refused "create_or_open" (Store.create_or_open ~dir ~branching:8 ~shards:2 ~initial ());
      refused "recover" (Store.recover store);
      refused "inspect" (Store.inspect ~dir);
      Store.close store;
      rm_rf dir)
    [ false; true ]

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
  let r = expect_recovered store in
  Alcotest.(check string) "recovery lands on the old generation, bytes intact"
    pinned_final_root
    (Crypto.Hex.encode (Store.Shard_db.root_digest r));
  Alcotest.(check int) "counter intact" (List.length ops_script)
    (Store.book store).Store.ctr;
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
  let dirty_shard = Store.Shard_db.route db key in
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
  let r = expect_recovered store in
  Alcotest.(check string) "recovery from the mixed-generation bases"
    (Crypto.Hex.encode (Store.Shard_db.root_digest db2))
    (Crypto.Hex.encode (Store.Shard_db.root_digest r));
  Alcotest.(check int) "counter intact" (List.length ops_script + 1)
    (Store.book store).Store.ctr;
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
  let r = expect_recovered store in
  Alcotest.(check string) "repaired from MANIFEST.bak, root intact"
    (Crypto.Hex.encode (Store.Shard_db.root_digest db))
    (Crypto.Hex.encode (Store.Shard_db.root_digest r));
  Alcotest.(check int) "counter intact" (List.length ops_script)
    (Store.book store).Store.ctr;
  Store.close store;
  (* The repair is durable: a later cold reopen sees a whole MANIFEST. *)
  Alcotest.(check bool) "manifest present" true
    (Sys.file_exists (Filename.concat dir "MANIFEST"));
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
  (match Store.recover store with
  | Ok () -> Alcotest.fail "recovery served a half-initialized shard map"
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
  let store2 =
    expect_reopened (Store.create_or_open ~dir ~branching:8 ~shards:4 ~initial ())
  in
  let r = Store.book store2 in
  (* The reopen keeps the generation — clients use a generation
     regression as the rollback detector. *)
  Alcotest.(check int) "generation preserved" gen (Store.generation store2);
  Alcotest.(check string) "root preserved"
    (Crypto.Hex.encode (Store.Shard_db.root_digest db))
    (Crypto.Hex.encode (Store.Shard_db.root_digest (Store.db store2)));
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
    (fun (u, (seq, payload)) ->
      Alcotest.(check int) (Printf.sprintf "u%d cached seq" u) (expect_seq u) seq;
      Alcotest.(check string)
        (Printf.sprintf "u%d cached payload" u)
        (Printf.sprintf "reply-%d" (expect_seq u - 100))
        payload)
    r.Store.replies;
  Alcotest.(check int) "one cached reply per user" 3 (List.length r.Store.replies);
  (* The resumed store carries the dedup table into its next
     checkpoint, which replaces the log the table was replayed from: a
     second restart must still recover it. *)
  Store.checkpoint store2 ~db:(Store.db store2);
  Store.close store2;
  let store3 =
    expect_reopened (Store.create_or_open ~dir ~branching:8 ~shards:4 ~initial ())
  in
  let r2 = Store.book store3 in
  Alcotest.(check (list (pair int int))) "dedup seqs survive a checkpoint" r.Store.seqs
    r2.Store.seqs;
  Alcotest.(check (list (pair int (pair int string)))) "cached replies survive a checkpoint"
    r.Store.replies r2.Store.replies;
  Store.close store3

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
  let config =
    { Server.mode = `Plain; epoch_len = None; adversary = Adversary.Crash { at_round = 6 } }
  in
  (* A durable server logs the store's own database; any other copy,
     even one with the same contents, would diverge from the WAL. *)
  Alcotest.check_raises "a db other than the store's is refused"
    (Invalid_argument "Server.create: db is not the store's database") (fun () ->
      ignore
        (Server.create ~store config
           ~db:(Store.Shard_db.create ~branching:8 ~shards:1 initial)
           ~reply:(fun ~user:_ _ -> ())
           ~alarm:ignore));
  let server = Server.on_engine engine (Server.create ~store config ~db:(Store.db store)) in
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

(* A round-keyed crash fires at the round boundary its caller names:
   crash:5 at [end_round ~round:5], and at no boundary before. A caller
   that ends only some rounds (a shard daemon ends the cluster rounds
   it seals) gets the crash at its first round end past 5. *)
let test_server_crash_at_end_round () =
  let dir = fresh_dir "server-clock" in
  let store =
    expect_fresh
      (Store.create_or_open ~dir ~branching:8 ~shards:1 ~initial:(initial_files 8) ())
  in
  let alarms = ref [] in
  let crash_at_5 () =
    Server.create ~store
      { Server.mode = `Plain; epoch_len = None; adversary = Adversary.Crash { at_round = 5 } }
      ~db:(Store.db store)
      ~reply:(fun ~user:_ _ -> ())
      ~alarm:(fun reason -> alarms := reason :: !alarms)
  in
  let set server round =
    Server.handle server ~round ~user:0
      (Message.Query { op = Vo.Set ("k", string_of_int round); piggyback = [] })
  in
  let server = crash_at_5 () in
  set server 1;
  for round = 1 to 4 do
    Server.end_round server ~round;
    Alcotest.(check int) (Printf.sprintf "no crash at round %d" round) 1
      (Server.history_length server)
  done;
  Server.end_round server ~round:5;
  Alcotest.(check int) "the crash at round 5 cleared the history" 0
    (Server.history_length server);
  Alcotest.(check int) "counter recovered" 1 (Server.ops_performed server);
  let server = crash_at_5 () in
  set server 3;
  Server.end_round server ~round:3;
  Alcotest.(check int) "no crash at round 3" 1 (Server.history_length server);
  Server.end_round server ~round:8;
  Alcotest.(check int) "round 5 skipped: the crash at round 8" 0
    (Server.history_length server);
  Alcotest.(check int) "counter recovered after the skip" 2 (Server.ops_performed server);
  set server 9;
  Server.end_round server ~round:9;
  Alcotest.(check int) "one crash per server" 1 (Server.history_length server);
  Alcotest.(check (list string)) "no alarms" [] !alarms;
  Store.close store

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

(* ---- harness: D₀ is built once ---------------------------------------- *)

let test_harness_builds_initial_db_once () =
  (* A run that completes no operation costs only its setup. With a
     store, the store's one copy of D₀ serves the users' M(D₀) and the
     server; without one, the harness builds D₀ once and hands the same
     value to the server. Either way the oracle's independent replay
     tree is the only other build. *)
  let rebuilds store_dir =
    let setup =
      {
        (Harness.default_setup ~protocol:Harness.Unverified ~users:1
           ~adversary:Adversary.Honest)
        with
        Harness.store_dir;
      }
    in
    let outcome = Harness.run setup ~events:(workload ~users:1 ~rounds:1 "d0-once") in
    Alcotest.(check int) "no op completed" 0 outcome.Harness.completed_transactions;
    Obs.value "mtree.node_rebuilds"
  in
  let dir = fresh_dir "d0-once" in
  let with_store = rebuilds (Some dir) in
  rm_rf dir;
  Alcotest.(check int) "storeless setup rebuilds as many nodes as --store" with_store
    (rebuilds None)

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
      [ (Store.Per_op, "per-op"); (Store.Per_round, "per-round") ]
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

(* ---- snapshot chains ------------------------------------------------- *)

let keyed_files n ~value_bytes =
  List.init n (fun i ->
      (Printf.sprintf "f/%05d" i, String.make value_bytes (Char.chr (97 + (i mod 26)))))

let gen_of_snap f = int_of_string (List.nth (String.split_on_char '.' f) 1)
let file_size dir f = (Unix.stat (Filename.concat dir f)).Unix.st_size

(* The shard snapshot files generation [g] wrote. *)
let shard_snaps_of_gen dir g =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f ->
         String.starts_with ~prefix:"shard" f
         && Filename.check_suffix f ".snap"
         && gen_of_snap f = g)
  |> List.sort String.compare

let shard_chains dir =
  match Store.inspect ~dir with
  | Error e -> Alcotest.failf "inspect failed: %s" e
  | Ok info ->
      List.filter
        (fun (s : Store.stream_info) -> not (String.equal s.Store.str_name "meta"))
        info.Store.info_streams

let set_logged store db ~ctr key value =
  let op = Vo.Set (key, value) in
  let db, _ = Store.Shard_db.apply db op in
  Store.log_op store ~db ~op ~ctr ~last_user:0;
  db

let hex_root db = Crypto.Hex.encode (Store.Shard_db.root_digest db)

(* After a 1 KiB preload, a checkpoint after one Set writes the nodes
   that Set changed as one small delta, and nothing for the other
   shard. *)
let test_chain_one_set_small_delta () =
  let dir = fresh_dir "chain-one-set" in
  let initial = keyed_files 2048 ~value_bytes:1024 in
  let store =
    expect_fresh
      (Store.create_or_open ~checkpoint_every:1000 ~dir ~branching:8 ~shards:2 ~initial ())
  in
  let key = "f/00100" in
  let shard = Store.Shard_db.route (Store.db store) key in
  let db = set_logged store (Store.db store) ~ctr:1 key (String.make 1024 'Z') in
  Store.checkpoint store ~db;
  let delta = Printf.sprintf "shard%d.1.snap" shard in
  Alcotest.(check (list string)) "one shard file, for the Set's shard" [ delta ]
    (shard_snaps_of_gen dir 1);
  let full = file_size dir (Printf.sprintf "shard%d.0.snap" shard) in
  let bytes = file_size dir delta in
  Alcotest.(check bool)
    (Printf.sprintf "delta %d B under 2%% of the full snapshot's %d B" bytes full)
    true
    (bytes * 50 < full);
  let r = expect_recovered store in
  Alcotest.(check string) "full + delta recover the live root" (hex_root db)
    (hex_root r);
  Store.close store;
  rm_rf dir

(* A shard whose root did not move gets no snapshot: not after reads,
   not after a Set of the value already stored. *)
let test_chain_unchanged_root_no_snapshot () =
  let dir = fresh_dir "chain-reads" in
  let initial = initial_files 20 in
  let store =
    expect_fresh
      (Store.create_or_open ~checkpoint_every:1000 ~dir ~branching:8 ~shards:4 ~initial ())
  in
  let reads =
    [ Vo.Get "src/file_05.ml"; Vo.Range ("src/file_00.ml", "src/file_19.ml"); Vo.Get "nope" ]
  in
  let db = apply_logged store (Store.db store) reads in
  Store.checkpoint store ~db;
  Alcotest.(check (list string)) "reads: no shard snapshot" [] (shard_snaps_of_gen dir 1);
  let db = set_logged store db ~ctr:4 "src/file_07.ml" "v0-7" in
  Store.checkpoint store ~db;
  Alcotest.(check (list string)) "same-value Set: no shard snapshot" []
    (shard_snaps_of_gen dir 2);
  Alcotest.(check bool) "meta is still snapshotted" true
    (Sys.file_exists (Filename.concat dir "meta.2.snap"));
  let r = expect_recovered store in
  Alcotest.(check string) "recovers from the carried chains" (hex_root db)
    (hex_root r);
  Store.close store;
  rm_rf dir

(* A 4-shard store over 256 keys of 256 B, and a step that logs one to
   four seeded Sets and checkpoints, returning the live database. *)
let seeded_store ~dir ~seed =
  let initial = keyed_files 256 ~value_bytes:256 in
  let store =
    expect_fresh
      (Store.create_or_open ~checkpoint_every:1000 ~dir ~branching:8 ~shards:4 ~initial ())
  in
  let prng = Crypto.Prng.create ~seed in
  let ctr = ref 0 and db = ref (Store.db store) in
  let step () =
    for _ = 0 to Crypto.Prng.int prng 4 do
      incr ctr;
      let key = Printf.sprintf "f/%05d" (Crypto.Prng.int prng 256) in
      db := set_logged store !db ~ctr:!ctr key (Crypto.Prng.bytes prng 256)
    done;
    Store.checkpoint store ~db:!db;
    !db
  in
  (store, step)

(* Over 100 checkpoints: no chain's deltas exceed its full snapshot by
   more than one delta, some chain restarts with a full snapshot, and
   recovery after every checkpoint lands on the live root. *)
let test_chain_bounded_over_checkpoints () =
  let dir = fresh_dir "chain-bound" in
  let store, step = seeded_store ~dir ~seed:"chain-bound" in
  let restarts = ref 0 in
  for _ = 1 to 100 do
    let db = step () in
    let g = Store.generation store in
    List.iter
      (fun (s : Store.stream_info) ->
        match s.Store.str_base_chain with
        | [] -> Alcotest.failf "%s: empty chain" s.Store.str_name
        | (first, full) :: deltas ->
            let before_last =
              match List.rev deltas with
              | [] -> 0
              | _ :: rest -> List.fold_left (fun n (_, b) -> n + b) 0 rest
            in
            Alcotest.(check bool)
              (Printf.sprintf "%s: deltas before the last (%d B) under the full %d B"
                 s.Store.str_name before_last full)
              true (before_last < full);
            if gen_of_snap first = g then incr restarts)
      (shard_chains dir);
    let r = expect_recovered store in
    Alcotest.(check string) "recovered root is the live root" (hex_root db)
      (hex_root r)
  done;
  Alcotest.(check bool) (Printf.sprintf "%d chain restarts" !restarts) true (!restarts > 0);
  Store.close store;
  rm_rf dir

(* Right after a chain restarts, the previous generation's bases file
   still keeps its old chain alive: a stale recovery lands on that
   generation's root. *)
let test_chain_stale_after_restart () =
  let dir = fresh_dir "chain-stale" in
  let store, step = seeded_store ~dir ~seed:"chain-stale" in
  let restarted () =
    let g = Store.generation store in
    List.exists
      (fun (s : Store.stream_info) ->
        match s.Store.str_base_chain with (f, _) :: _ -> gen_of_snap f = g | [] -> false)
      (shard_chains dir)
  in
  let rec until_restart prev n =
    if n = 0 then Alcotest.fail "no chain restarted in 100 checkpoints";
    let db = step () in
    if restarted () then prev else until_restart (hex_root db) (n - 1)
  in
  let prev = until_restart (hex_root (Store.db store)) 100 in
  Store.debug_rollback store;
  let r = expect_recovered store in
  Alcotest.(check string) "stale recovery lands on the previous generation's root" prev
    (hex_root r);
  Store.close store;
  rm_rf dir

(* A shard snapshot payload decoded and re-encoded by hand: shard index,
   root digest, then one (digest, node) record per node. *)
type node_record = Leaf_r of (string * string) list | Node_r of string list * string list

let decode_shard_snap payload =
  let module R = Wire.R in
  Wire.decode payload (fun r ->
      let idx = R.u16 r in
      let root = R.str r in
      let records =
        R.list r (fun r ->
            let digest = R.str r in
            match R.u8 r with
            | 0 ->
                ( digest,
                  Leaf_r
                    (R.list r (fun r ->
                         let k = R.str r in
                         (k, R.str r))) )
            | _ ->
                let keys = R.list r R.str in
                (digest, Node_r (keys, R.list r R.str)))
      in
      (idx, root, records))

let encode_shard_snap (idx, root, records) =
  let module W = Wire.W in
  let w = W.create () in
  W.u16 w idx;
  W.str w root;
  W.list w
    (fun (digest, node) ->
      W.str w digest;
      match node with
      | Leaf_r entries ->
          W.u8 w 0;
          W.list w
            (fun (k, v) ->
              W.str w k;
              W.str w v)
            entries
      | Node_r (keys, children) ->
          W.u8 w 1;
          W.list w (W.str w) keys;
          W.list w (W.str w) children)
    records;
  W.contents w

(* Rewrite one record of a shard snapshot — the first [edit] changes —
   and store the file again with a valid checksum. *)
let edit_first_record path edit =
  let payload =
    match Store.Snapshot.read path with Ok p -> p | Error e -> Alcotest.fail e
  in
  match decode_shard_snap payload with
  | None -> Alcotest.failf "%s: malformed" path
  | Some ((idx, root, records) as snap) ->
      Alcotest.(check string) "hand codec round-trips" payload (encode_shard_snap snap);
      let edited = ref false in
      let records =
        List.map
          (fun (d, node) ->
            match edit node with
            | Some node' when not !edited ->
                edited := true;
                (d, node')
            | _ -> (d, node))
          records
      in
      Alcotest.(check bool) "a record was edited" true !edited;
      Store.Snapshot.write path ~payload:(encode_shard_snap (idx, root, records))

(* Shard 0's chain as a full snapshot and two deltas; each damage to it
   must make recovery fail with its own error, never fall back to an
   older tree, and make inspect report the chain BAD. *)
let test_chain_damage_is_an_error () =
  List.iter
    (fun (what, expected, damage) ->
      let dir = fresh_dir "chain-damage" in
      let initial = keyed_files 128 ~value_bytes:64 in
      let store =
        expect_fresh
          (Store.create_or_open ~checkpoint_every:1000 ~dir ~branching:8 ~shards:2
             ~initial ())
      in
      let db = set_logged store (Store.db store) ~ctr:1 "f/00001" "first" in
      Store.checkpoint store ~db;
      let db = set_logged store db ~ctr:2 "f/00002" "second" in
      Store.checkpoint store ~db;
      Alcotest.(check (list string)) "shard 0's chain: full, then two deltas"
        [ "shard0.0.snap"; "shard0.1.snap"; "shard0.2.snap" ]
        (List.map fst (List.hd (shard_chains dir)).Store.str_base_chain);
      damage dir;
      (match Store.recover store with
      | Ok () ->
          Alcotest.failf "%s: recovered a tree (%s, live %s)" what
            (hex_root (Store.db store)) (hex_root db)
      | Error e -> Alcotest.(check bool) (what ^ ": " ^ e) true (contains e expected));
      Alcotest.(check bool) (what ^ ": inspect says BAD") false
        (List.hd (shard_chains dir)).Store.str_base_ok;
      Store.close store;
      rm_rf dir)
    [
      ( "flipped byte in the middle delta",
        "checksum mismatch",
        fun dir -> flip_byte (Filename.concat dir "shard0.1.snap") 20 );
      ( "middle delta deleted",
        "no such snapshot",
        fun dir -> Sys.remove (Filename.concat dir "shard0.1.snap") );
      ( "node record that does not hash to its digest",
        "does not hash to its digest",
        fun dir ->
          edit_first_record (Filename.concat dir "shard0.2.snap") (function
            | Leaf_r ((k, _) :: rest) -> Some (Leaf_r ((k, "forged") :: rest))
            | _ -> None) );
      ( "child digest no file defines",
        "is in no file of the chain",
        fun dir ->
          edit_first_record (Filename.concat dir "shard0.2.snap") (function
            | Node_r (keys, _ :: children) ->
                Some (Node_r (keys, String.make 32 '\xee' :: children))
            | _ -> None) );
    ]

(* The parent's layout: a TCVSBAS2 bases payload (magic, generation, one
   snapshot name per stream) and shard snapshots holding the whole tree
   as nested nodes. *)
let rewrite_as_bas2 dir trees =
  let module W = Wire.W in
  let module Node = Mtree.Node in
  let rec nested w (n : Node.t) =
    match n with
    | Node.Leaf { entries; _ } ->
        W.u8 w 0;
        W.list w
          (fun (e : Node.entry) ->
            W.str w e.Node.key;
            W.str w e.Node.value)
          (Array.to_list entries)
    | Node.Node { keys; children; _ } ->
        W.u8 w 1;
        W.list w (W.str w) (Array.to_list keys);
        W.list w (nested w) (Array.to_list children)
    | Node.Stub _ -> Alcotest.fail "stub in a stored tree"
  in
  Array.iteri
    (fun i tree ->
      let w = W.create () in
      W.u16 w i;
      W.str w (T.root_digest tree);
      nested w (T.root tree);
      Store.Snapshot.write
        (Filename.concat dir (Printf.sprintf "shard%d.0.snap" i))
        ~payload:(W.contents w))
    trees;
  let w = W.create () in
  W.raw w "TCVSBAS2";
  W.u32 w 0;
  W.list w (W.str w) [ "shard0.0.snap"; "shard1.0.snap"; "meta.0.snap" ];
  Store.Snapshot.write (Filename.concat dir "bases.0") ~payload:(W.contents w)

(* A directory the parent layout wrote — whole, or with its MANIFEST
   torn — is refused by every way in, and nothing in it changes: the
   layout check reads the bases magic before the MANIFEST repair
   could run. *)
let test_store_bas2_layout_refused () =
  List.iter
    (fun torn ->
      let dir = fresh_dir "bas2" in
      let initial = initial_files 20 in
      let store =
        expect_fresh
          (Store.create_or_open ~checkpoint_every:1000 ~dir ~branching:8 ~shards:2 ~initial ())
      in
      let db = apply_logged store (Store.db store) ops_script in
      rewrite_as_bas2 dir (Store.Shard_db.trees db);
      if torn then Store.debug_tear_manifest ~dir ~wreck_backup:false;
      let before = dir_contents dir in
      let refused what = function
        | Ok _ -> Alcotest.failf "%s opened a TCVSBAS2 store" what
        | Error e ->
            Alcotest.(check bool) (what ^ " names the layout: " ^ e) true
              (contains e "unsupported store layout (written by an older version?)");
            Alcotest.(check (list (pair string string)))
              (what ^ " leaves every file byte-identical")
              before (dir_contents dir)
      in
      refused "create_or_open" (Store.create_or_open ~dir ~branching:8 ~shards:2 ~initial ());
      refused "recover" (Store.recover store);
      refused "inspect" (Store.inspect ~dir);
      Store.close store;
      rm_rf dir)
    [ false; true ]

(* A store restarted more often than every [checkpoint_every] ops still
   checkpoints: an open counts the logged ops it replayed towards the
   next checkpoint, each op once however many shards it touched. So no
   open replays [checkpoint_every] ops or more, however often the
   daemon restarts. *)
let test_store_restarts_still_checkpoint () =
  let dir = fresh_dir "restarts" in
  let initial = initial_files 20 and every = 8 in
  let reopen () =
    expect_reopened
      (Store.create_or_open ~checkpoint_every:every ~dir ~branching:8 ~shards:2 ~initial ())
  in
  (* Shard-log records the next open replays. *)
  let tail_records () =
    match Store.inspect ~dir with
    | Error e -> Alcotest.failf "inspect failed: %s" e
    | Ok info ->
        List.fold_left
          (fun n (s : Store.stream_info) ->
            if String.equal s.Store.str_name "meta" then n else n + s.Store.str_records)
          0 info.Store.info_streams
  in
  let store =
    ref
      (expect_fresh
         (Store.create_or_open ~checkpoint_every:every ~dir ~branching:8 ~shards:2 ~initial
            ()))
  in
  let ctr = ref 0 and db = ref (Store.db !store) in
  (* Log [n] ops, each [op i] for a fresh counter value, then stop. *)
  let run n op =
    for _ = 1 to n do
      incr ctr;
      let o = op !ctr in
      let db', _ = Store.Shard_db.apply !db o in
      Store.log_op !store ~db:db' ~op:o ~ctr:!ctr ~last_user:0;
      db := db'
    done;
    Store.close !store
  in
  let restart round =
    store := reopen ();
    Alcotest.(check int) (Printf.sprintf "restart %d: counter continues" round) !ctr
      (Store.book !store).Store.ctr;
    Alcotest.(check string) (Printf.sprintf "restart %d: root continues" round)
      (hex_root !db) (hex_root (Store.db !store))
  in
  (* One-shard Sets: one record per op. *)
  let set i = Vo.Set (Printf.sprintf "src/file_%02d.ml" (i mod 20), string_of_int i) in
  run 5 set;
  for round = 1 to 5 do
    let tail = tail_records () in
    Alcotest.(check bool)
      (Printf.sprintf "restart %d replays %d ops, under checkpoint_every %d" round tail every)
      true (tail < every);
    restart round;
    run 5 set
  done;
  Alcotest.(check bool) "the last open replays under checkpoint_every" true
    (tail_records () < every);
  (* Set_manys over both shards: two records per op, one op counted. *)
  rm_rf dir;
  store :=
    expect_fresh
      (Store.create_or_open ~checkpoint_every:every ~dir ~branching:8 ~shards:2 ~initial ());
  ctr := 0;
  db := Store.db !store;
  let both i =
    Vo.Set_many [ ("src/file_00.ml", string_of_int i); ("src/file_19.ml", string_of_int i) ]
  in
  Alcotest.(check int) "the Set_many spans both shards" 2
    (List.length (Vo.shards_for (Store.Shard_map.boundaries (Store.Shard_db.map !db)) (both 0)));
  run 3 both;
  for round = 1 to 2 do
    restart round;
    run 3 both
  done;
  Alcotest.(check int) "checkpointed at the 8th op: one op (two records) left" 2
    (tail_records ());
  rm_rf dir

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
    Alcotest.test_case "store: previous checksum format refused" `Quick
      test_store_previous_format_refused;
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
    Alcotest.test_case "harness: storeless setup builds D₀ once" `Quick
      test_harness_builds_initial_db_once;
    Alcotest.test_case "chain: one Set writes one small delta" `Quick
      test_chain_one_set_small_delta;
    Alcotest.test_case "chain: unchanged root writes no snapshot" `Quick
      test_chain_unchanged_root_no_snapshot;
    Alcotest.test_case "chain: bounded over 100 checkpoints" `Quick
      test_chain_bounded_over_checkpoints;
    Alcotest.test_case "chain: stale recovery after a restart" `Quick
      test_chain_stale_after_restart;
    Alcotest.test_case "chain: damage is an error" `Quick test_chain_damage_is_an_error;
    Alcotest.test_case "store: TCVSBAS2 layout refused untouched" `Quick
      test_store_bas2_layout_refused;
    Alcotest.test_case "store: restarts still checkpoint" `Quick
      test_store_restarts_still_checkpoint;
    Alcotest.test_case "server: crash:R fires at end_round R" `Quick
      test_server_crash_at_end_round;
  ]
