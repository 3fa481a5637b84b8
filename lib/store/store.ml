(* [Store] is the library's main module: re-export the siblings so
   consumers can reach [Store.Shard_db], [Store.Wal], ... *)
module Shard_map = Shard_map
module Shard_db = Shard_db
module Wal = Wal
module Snapshot = Snapshot

module T = Mtree.Merkle_btree
module N = Mtree.Node
module Vo = Mtree.Vo
module W = Wire.W
module R = Wire.R

let src = Logs.Src.create "tcvs.store" ~doc:"Durable server store"

module Log = (val Logs.src_log src : Logs.LOG)

let obs_scope = Obs.Scope.v "store"
let c_ops_logged = Obs.counter ~scope:obs_scope "ops_logged"
let c_checkpoints = Obs.counter ~scope:obs_scope "checkpoints"
let c_recoveries = Obs.counter ~scope:obs_scope "recoveries"
let c_stale_recoveries = Obs.counter ~scope:obs_scope "stale_recoveries"
let c_resumes = Obs.counter ~scope:obs_scope "resumes"
let c_manifest_repairs = Obs.counter ~scope:obs_scope "manifest_repairs"
let h_recover_us = Obs.histogram ~scope:obs_scope ~volatile:true "recover_us"
let h_checkpoint_us = Obs.histogram ~scope:obs_scope ~volatile:true "checkpoint_us"

let gc_scope = Obs.Scope.v "store.group_commit"
let h_batch_records = Obs.histogram ~scope:gc_scope ~volatile:true "batch_records"
let h_batch_bytes = Obs.histogram ~scope:gc_scope ~volatile:true "batch_bytes"
let h_flush_us = Obs.histogram ~scope:gc_scope ~volatile:true "flush_us"

let now_us () = int_of_float (Unix.gettimeofday () *. 1e6)
let ( let* ) = Result.bind

type backup = {
  user : int;
  epoch : int;
  sigma : string;
  last : string;
  gctr : int;
  signature : string;
}

type recovered = {
  db : Shard_db.t;
  ctr : int;
  last_user : int;
  root_sig : string option;
  backups : backup list;
  seqs : (int * int) list;
  replies : (int * int * string) list;
}

type meta = {
  m_ctr : int;
  m_last_user : int;
  m_root_sig : string option;
  m_next_lsn : int;
  m_backups : backup list;
  (* Network-session bookkeeping (PR 5): highest request seq executed
     per user, and the last reply payload per user — what makes a
     client retransmission across a daemon restart exactly-once. *)
  m_seqs : (int * int) list;  (* sorted by user *)
  m_replies : (int * (int * string)) list;  (* user -> (seq, payload) *)
}

(* When records reach the OS. [Per_op] flushes (and under [fsync],
   syncs) after every logged record — the pre-group-commit behaviour,
   byte for byte. [Per_round] stages everything and relies on the
   caller invoking {!flush} at round boundaries: one flush + one fsync
   per dirty stream per round, however many records the round logged.
   [Every_n n] flushes every stream once [n] records are staged. *)
type durability = Per_op | Per_round | Every_n of int

let durability_to_string = function
  | Per_op -> "per-op"
  | Per_round -> "per-round"
  | Every_n n -> Printf.sprintf "every:%d" n

let durability_of_string s =
  match s with
  | "per-op" -> Ok Per_op
  | "per-round" -> Ok Per_round
  | _ -> (
      match String.index_opt s ':' with
      | Some i when String.equal (String.sub s 0 i) "every" -> (
          match
            int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1))
          with
          | Some n when n >= 1 -> Ok (Every_n n)
          | _ -> Error (s ^ ": batch size must be a positive integer"))
      | _ ->
          Error
            (Printf.sprintf "%s: unknown durability (per-op | per-round | every:N)"
               s))

(* The store has one log per stream (shard [i]'s op log, or the meta
   log) per generation. Arrays indexed by stream run shards first,
   meta last. *)
type t = {
  dir : string;
  map : Shard_map.t;
  fsync : bool;
  durability : durability;
  checkpoint_every : int;
  mutable gen : int;
  mutable next_lsn : int;
  mutable logs : Wal.writer array;  (* generation [gen]'s open logs *)
  (* Per stream: the snapshot file its log is relative to, as named by
     [bases.<gen>]. A clean shard's may come from an older generation. *)
  mutable bases : string array;
  (* Mirror of the bookkeeping the meta log describes, so a checkpoint
     can serialise it without asking the server. *)
  mutable ctr : int;
  mutable last_user : int;
  mutable root_sig : string option;
  mutable backups : backup list;
  mutable seqs : (int * int) list;
  mutable replies : (int * (int * string)) list;
  (* Origins declared by the network daemon for the ops it is about to
     inject this round; [log_op] attaches and consumes them, so the WAL
     record itself carries the (user, request seq) provenance. *)
  mutable origins : (int * int) list;
  (* Shards with ops logged since the last checkpoint — the ones whose
     snapshot an incremental checkpoint must rewrite. *)
  mutable dirty : bool array;
  mutable staged_since_flush : int;
  mutable ops_since_checkpoint : int;
  opened_db : Shard_db.t;
  mutable closed : bool;
}

(* ---- paths ---------------------------------------------------------- *)

let ( // ) = Filename.concat
let manifest_path dir = dir // "MANIFEST"
let manifest_bak_path dir = dir // "MANIFEST.bak"
let current_path dir = dir // "CURRENT"
let bases_path dir g = dir // Printf.sprintf "bases.%d" g
let log_path dir name g = dir // Printf.sprintf "%s.%d.wal" name g
let snap_name name g = Printf.sprintf "%s.%d.snap" name g
let stream_name ~shards i = if i = shards then "meta" else Printf.sprintf "shard%d" i

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let remove_if_exists path = if Sys.file_exists path then Sys.remove path

let write_current dir g =
  let tmp = current_path dir ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc (string_of_int g);
  flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc);
  close_out oc;
  Sys.rename tmp (current_path dir)

let read_current dir =
  let path = current_path dir in
  if not (Sys.file_exists path) then Error (path ^ ": missing")
  else begin
    let ic = open_in_bin path in
    let contents = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match int_of_string_opt (String.trim contents) with
    | Some g when g >= 0 -> Ok g
    | _ -> Error (path ^ ": unreadable generation number")
  end

(* ---- manifest ------------------------------------------------------- *)

(* The MANIFEST is written exactly once, at store creation, with a
   .bak twin. A torn MANIFEST (truncated mid-write by a filesystem
   that reordered the rename) is repaired from the twin — or, if both
   are damaged, recovery fails loudly: a store must never serve a
   half-initialized shard map. *)

let write_manifest dir ~payload =
  Snapshot.write (manifest_path dir) ~payload;
  Snapshot.write (manifest_bak_path dir) ~payload

let read_manifest dir =
  let try_read path =
    match Snapshot.read path with
    | Error _ as e -> e
    | Ok payload -> (
        match Shard_map.decode payload with
        | Some map -> Ok (payload, map)
        | None -> Error (path ^ ": malformed manifest"))
  in
  match try_read (manifest_path dir) with
  | Ok (_, map) -> Ok map
  | Error primary -> (
      match try_read (manifest_bak_path dir) with
      | Ok (payload, map) ->
          Snapshot.write (manifest_path dir) ~payload;
          Obs.incr c_manifest_repairs;
          Log.warn (fun f ->
              f "%s: repaired torn MANIFEST from backup (%s)" dir primary);
          Ok map
      | Error backup ->
          Error
            (Printf.sprintf
               "%s: manifest unrecoverable — refusing to serve a \
                half-initialized shard map (%s; backup: %s)"
               dir primary backup))

let manifest_exists dir =
  Sys.file_exists (manifest_path dir) || Sys.file_exists (manifest_bak_path dir)

(* Adversary hook: simulate a torn mid-write MANIFEST (and, for the
   unrepairable variant, a damaged backup too) before a restart. *)
let debug_tear_manifest ~dir ~wreck_backup =
  let tear path =
    if Sys.file_exists path then begin
      let len = (Unix.stat path).Unix.st_size in
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
      Unix.ftruncate fd (max 1 (len / 2));
      Unix.close fd
    end
  in
  tear (manifest_path dir);
  if wreck_backup then tear (manifest_bak_path dir)

(* ---- codecs --------------------------------------------------------- *)

(* [last_user] can be -1 (no user yet); shift by one for the unsigned
   wire field. [origin] is the (user, request seq) provenance of a
   network-submitted operation — [None] for in-process runs. *)
let encode_op_record ~op ~ctr ~last_user ~origin =
  let w = W.create () in
  Vo.encode_op w op;
  W.u32 w ctr;
  W.u32 w (last_user + 1);
  (match origin with
  | None -> W.u8 w 0
  | Some (user, seq) ->
      W.u8 w 1;
      W.u16 w user;
      W.u32 w seq);
  W.contents w

let decode_op_record payload =
  Wire.decode payload (fun r ->
      let op = Vo.decode_op r in
      let ctr = R.u32 r in
      let last_user = R.u32 r - 1 in
      let origin =
        match R.u8 r with
        | 0 -> None
        | 1 ->
            let user = R.u16 r in
            Some (user, R.u32 r)
        | n -> failwith (Printf.sprintf "bad origin tag %d" n)
      in
      (op, ctr, last_user, origin))

let encode_backup w b =
  W.u16 w b.user;
  W.u32 w b.epoch;
  W.str w b.sigma;
  W.str w b.last;
  W.u32 w b.gctr;
  W.str w b.signature

let decode_backup r =
  let user = R.u16 r in
  let epoch = R.u32 r in
  let sigma = R.str r in
  let last = R.str r in
  let gctr = R.u32 r in
  let signature = R.str r in
  { user; epoch; sigma; last; gctr; signature }

let encode_sig_record s =
  let w = W.create () in
  W.u8 w 1;
  W.str w s;
  W.contents w

let encode_backup_record b =
  let w = W.create () in
  W.u8 w 2;
  encode_backup w b;
  W.contents w

let encode_reply_record ~user ~seq ~payload =
  let w = W.create () in
  W.u8 w 3;
  W.u16 w user;
  W.u32 w seq;
  W.str w payload;
  W.contents w

let decode_meta_record payload =
  Wire.decode payload (fun r ->
      match R.u8 r with
      | 1 -> `Sig (R.str r)
      | 2 -> `Backup (decode_backup r)
      | 3 ->
          let user = R.u16 r in
          let seq = R.u32 r in
          `Reply (user, seq, R.str r)
      | n -> failwith (Printf.sprintf "unknown meta tag %d" n))

(* Every log file opens with a header record at LSN 0 naming the
   stream and generation it belongs to — so replay can never read a
   misplaced file as the wrong log. *)
let log_magic = "TCVSLOG1"

let encode_log_header ~name ~gen =
  let w = W.create () in
  W.str w log_magic;
  W.str w name;
  W.u32 w gen;
  W.contents w

let log_header_matches ~name ~gen payload =
  match
    Wire.decode payload (fun r ->
        let magic = R.str r in
        let n = R.str r in
        (magic, n, R.u32 r))
  with
  | Some (magic, n, g) ->
      String.equal magic log_magic && String.equal n name && g = gen
  | None -> false

(* The [bases.<g>] control file names each stream's base snapshot
   (shards in order, then meta). Its payload opens with the layout
   magic, and every open reads a bases file first: a directory in the
   earlier layout (segmented logs, whose bases payload opens with the
   generation number) is refused instead of having its logs skipped. *)
let bases_magic = "TCVSBAS2"

let encode_bases ~gen files =
  let w = W.create () in
  W.raw w bases_magic;
  W.u32 w gen;
  W.list w (W.str w) (Array.to_list files);
  W.contents w

let read_bases dir g ~count =
  let path = bases_path dir g in
  let* payload = Snapshot.read path in
  let n = String.length bases_magic in
  if String.length payload < n
     || not (String.equal (String.sub payload 0 n) bases_magic)
  then Error (path ^ ": unsupported store layout (written by an older version?)")
  else
    match
      Wire.decode payload (fun r ->
          ignore (R.raw r n);
          let gen = R.u32 r in
          (gen, Array.of_list (R.list r R.str)))
    with
    | None -> Error (path ^ ": malformed bases record")
    | Some (bgen, _) when bgen <> g ->
        Error (Printf.sprintf "%s: generation mismatch (found %d)" path bgen)
    | Some (_, files) when Array.length files <> count ->
        Error
          (Printf.sprintf "%s: expected %d stream entries, found %d" path count
             (Array.length files))
    | Some (_, files) -> Ok files

(* Snapshot basenames referenced by [bases.<g>], or [] when the file is
   absent/unreadable — what garbage collection must keep for the
   retained previous generation. *)
let bases_files dir g ~count =
  match read_bases dir g ~count with
  | Ok files -> Array.to_list files
  | Error _ -> []

let sort_backups backups =
  List.sort (fun a b -> compare (a.epoch, a.user) (b.epoch, b.user)) backups

let replace_backup backups b =
  b :: List.filter (fun x -> not (x.user = b.user && x.epoch = b.epoch)) backups

(* Per-user maps kept as sorted assoc lists: user counts are small, and
   lists keep snapshot encoding deterministic without Hashtbl order. *)
let set_assoc user v l =
  List.sort (fun (a, _) (b, _) -> Int.compare a b)
    ((user, v) :: List.remove_assoc user l)

let bump_seq seqs (user, seq) =
  match List.assoc_opt user seqs with
  | Some prev when prev >= seq -> seqs
  | _ -> set_assoc user seq seqs

(* ---- snapshots ------------------------------------------------------ *)

(* Shard snapshots persist the exact node structure, not just the
   bindings: a B⁺-tree's shape depends on its insertion history and
   the digest commits to the shape, so bulk-loading the same bindings
   would generally produce a different root. The loader rebuilds the
   stored structure through the smart constructors — recomputing every
   digest from the raw bytes — and the stored root digest pins the
   result. *)
let rec encode_node w (n : N.t) =
  match n with
  | N.Leaf { entries; _ } ->
      W.u8 w 0;
      W.list w
        (fun (e : N.entry) ->
          W.str w e.N.key;
          W.str w e.N.value)
        (Array.to_list entries)
  | N.Node { keys; children; _ } ->
      W.u8 w 1;
      W.list w (W.str w) (Array.to_list keys);
      W.list w (encode_node w) (Array.to_list children)
  | N.Stub _ ->
      (* Stored trees are the server's full trees; stubs live only in
         client-side verification objects. *)
      invalid_arg "shard snapshot: stub in stored tree"

(* Structural violations raise [Invalid_argument], which [Wire.decode]
   maps to [None] — same failure surface as a short or garbled read. *)
let rec decode_node r =
  match R.u8 r with
  | 0 ->
      let entries =
        Array.of_list
          (R.list r (fun r ->
               let key = R.str r in
               let value = R.str r in
               N.entry ~key ~value))
      in
      for i = 1 to Array.length entries - 1 do
        if String.compare entries.(i - 1).N.key entries.(i).N.key >= 0 then
          invalid_arg "shard snapshot: leaf entries not sorted"
      done;
      N.make_leaf entries
  | 1 ->
      let keys = Array.of_list (R.list r (fun r -> R.str r)) in
      let children = Array.of_list (R.list r decode_node) in
      if Array.length children < 1 || Array.length keys <> Array.length children - 1
      then invalid_arg "shard snapshot: malformed internal node";
      N.make_node keys children
  | _ -> invalid_arg "shard snapshot: unknown node tag"

let write_shard_snapshot_file path i tree =
  let w = W.create () in
  W.u16 w i;
  W.str w (T.root_digest tree);
  encode_node w (T.root tree);
  Snapshot.write path ~payload:(W.contents w)

let load_shard_snapshot_file path ~branching i =
  let* payload = Snapshot.read path in
  let decoded =
    Wire.decode payload (fun r ->
        let idx = R.u16 r in
        let root = R.str r in
        let node = decode_node r in
        (idx, root, node))
  in
  match decoded with
  | None -> Error (path ^ ": malformed shard snapshot")
  | Some (idx, _, _) when idx <> i ->
      Error (Printf.sprintf "%s: shard index mismatch (found %d)" path idx)
  | Some (_, root, node) ->
      if String.equal (N.digest node) root then Ok (T.of_root ~branching node)
      else Error (path ^ ": recovered root digest mismatch")

let write_meta_snapshot_file path m =
  let w = W.create () in
  W.u32 w m.m_ctr;
  W.u32 w (m.m_last_user + 1);
  (match m.m_root_sig with
  | None -> W.u8 w 0
  | Some s ->
      W.u8 w 1;
      W.str w s);
  W.u64 w m.m_next_lsn;
  W.list w (fun b -> encode_backup w b) (sort_backups m.m_backups);
  W.list w
    (fun (user, seq) ->
      W.u16 w user;
      W.u32 w seq)
    m.m_seqs;
  W.list w
    (fun (user, (seq, payload)) ->
      W.u16 w user;
      W.u32 w seq;
      W.str w payload)
    m.m_replies;
  Snapshot.write path ~payload:(W.contents w)

let load_meta_snapshot_file path =
  let* payload = Snapshot.read path in
  match
    Wire.decode payload (fun r ->
        let ctr = R.u32 r in
        let last_user = R.u32 r - 1 in
        let root_sig =
          match R.u8 r with
          | 0 -> None
          | 1 -> Some (R.str r)
          | n -> failwith (Printf.sprintf "bad sig tag %d" n)
        in
        let next_lsn = R.u64 r in
        let backups = R.list r decode_backup in
        let seqs =
          R.list r (fun r ->
              let user = R.u16 r in
              (user, R.u32 r))
        in
        let replies =
          R.list r (fun r ->
              let user = R.u16 r in
              let seq = R.u32 r in
              (user, (seq, R.str r)))
        in
        {
          m_ctr = ctr;
          m_last_user = last_user;
          m_root_sig = root_sig;
          m_next_lsn = next_lsn;
          m_backups = backups;
          m_seqs = seqs;
          m_replies = replies;
        })
  with
  | None -> Error (path ^ ": malformed meta snapshot")
  | Some m -> Ok m

(* ---- logs ----------------------------------------------------------- *)

(* Open a log for append, writing (and flushing) the header record if
   the file is empty — which also repairs the corner where a crash
   landed between file creation and the header flush. *)
let open_log dir ~fsync name gen =
  let w = Wal.open_writer (log_path dir name gen) in
  if Wal.size w = 0 then begin
    Wal.stage ~count:false w ~lsn:0 ~payload:(encode_log_header ~name ~gen);
    ignore (Wal.flush ~fsync w)
  end;
  w

let open_logs dir ~shards ~gen ~fsync =
  Array.init (shards + 1) (fun i -> open_log dir ~fsync (stream_name ~shards i) gen)

(* Read one stream's log, validating its header and decoding every
   record. [Wal.read] truncates a torn tail and fails hard on mid-log
   corruption. Returns [(lsn, event)] pairs, newest first. *)
let read_log dir ~name ~gen ~decode =
  let path = log_path dir name gen in
  let* { Wal.records; _ } = Wal.read path in
  let* records =
    match records with
    | [] -> Ok []  (* crash between log creation and header flush *)
    | (_, header) :: rest ->
        if log_header_matches ~name ~gen header then Ok rest
        else Error (path ^ ": bad log header")
  in
  let rec decode_all acc = function
    | [] -> Ok acc
    | (lsn, payload) :: rest -> (
        match decode payload with
        | None -> Error (Printf.sprintf "%s: malformed record at lsn %d" path lsn)
        | Some ev -> decode_all ((lsn, ev) :: acc) rest)
  in
  decode_all [] records

(* ---- generation replay ---------------------------------------------- *)

(* Generation [g]'s snapshots: the bases file, the database its shard
   snapshots compose, and the meta snapshot's bookkeeping. *)
let load_snapshots dir ~map g =
  let shards = Shard_map.shards map and branching = Shard_map.branching map in
  let* bases = read_bases dir g ~count:(shards + 1) in
  let rec load_trees i acc =
    if i = shards then Ok (Array.of_list (List.rev acc))
    else
      let* tree = load_shard_snapshot_file (dir // bases.(i)) ~branching i in
      load_trees (i + 1) (tree :: acc)
  in
  let* trees = load_trees 0 [] in
  let* m = load_meta_snapshot_file (dir // bases.(shards)) in
  Ok (bases, Shard_db.of_trees map trees, m)

type loaded = {
  l_db : Shard_db.t;
  l_meta : meta;
  l_dirty : bool array;
  l_bases : string array;
}

(* Every record in generation [g]'s logs was written after [g]'s
   checkpoint, so replay starts from the meta snapshot's bookkeeping
   and applies all logs merged in LSN order. *)
let load_generation dir ~map g =
  let shards = Shard_map.shards map in
  let* bases, db0, m0 = load_snapshots dir ~map g in
  let dirty = Array.make shards false in
  let decode_event i payload =
    if i < shards then Option.map (fun r -> `Op r) (decode_op_record payload)
    else decode_meta_record payload
  in
  let rec gather i acc =
    if i > shards then Ok acc
    else
      let* evs =
        read_log dir ~name:(stream_name ~shards i) ~gen:g ~decode:(decode_event i)
      in
      (match evs with _ :: _ when i < shards -> dirty.(i) <- true | _ -> ());
      gather (i + 1) (List.rev_append evs acc)
  in
  let* events = gather 0 [] in
  let events = List.sort (fun (a, _) (b, _) -> Int.compare a b) events in
  let db, m =
    List.fold_left
      (fun (db, m) (lsn, ev) ->
        let m = { m with m_next_lsn = max m.m_next_lsn (lsn + 1) } in
        match ev with
        | `Op (op, ctr, last_user, origin) ->
            let db, _answer = Shard_db.apply db op in
            let seqs =
              match origin with None -> m.m_seqs | Some o -> bump_seq m.m_seqs o
            in
            ( db,
              { m with m_ctr = ctr; m_last_user = last_user; m_root_sig = None;
                m_seqs = seqs } )
        | `Sig s -> (db, { m with m_root_sig = Some s })
        | `Backup b -> (db, { m with m_backups = replace_backup m.m_backups b })
        | `Reply (user, seq, payload) ->
            (db, { m with m_replies = set_assoc user (seq, payload) m.m_replies }))
      (db0, m0) events
  in
  Ok { l_db = db; l_meta = m; l_dirty = dirty; l_bases = bases }

(* ---- garbage collection --------------------------------------------- *)

(* Store files by name: a generation's [bases.<g>] and
   [<stream>.<g>.wal] live and die with it; a [<stream>.<g>.snap]
   lives as long as some retained bases file names it. *)
type store_file = Gen_file of int | Snap_file

let classify_file f =
  match String.split_on_char '.' f with
  | [ "bases"; g ] | [ _; g; "wal" ] ->
      Option.map (fun g -> Gen_file g) (int_of_string_opt g)
  | [ _; g; "snap" ] -> Option.map (fun _ -> Snap_file) (int_of_string_opt g)
  | _ -> None

(* Delete everything the current generation (in memory) and the
   previous generation's bases file (on disk) no longer reference:
   superseded bases files, unreferenced snapshots (including orphans a
   crashed checkpoint left behind), logs of dead generations, and
   half-written .tmp files. Runs at checkpoint and stale-recovery
   time, when both reference sets are known. *)
let gc t ~prev =
  let referenced =
    bases_files t.dir prev ~count:(Array.length t.bases) @ Array.to_list t.bases
  in
  Array.iter
    (fun f ->
      let dead =
        Filename.check_suffix f ".tmp"
        ||
        match classify_file f with
        | Some (Gen_file g) -> g <> t.gen && g <> prev
        | Some Snap_file -> not (List.mem f referenced)
        | None -> false
      in
      if dead then remove_if_exists (t.dir // f))
    (Sys.readdir t.dir)

(* ---- accessors ------------------------------------------------------ *)

let db t = t.opened_db
let shard_map t = t.map
let generation t = t.gen
let dir t = t.dir
let durability t = t.durability

let fresh_lsn t =
  let lsn = t.next_lsn in
  t.next_lsn <- lsn + 1;
  lsn

(* ---- group commit --------------------------------------------------- *)

(* Flush one log's staged batch — one channel flush, at most one
   fsync, however many records the batch holds. *)
let flush_log t w =
  let records = Wal.staged_records w in
  if records > 0 then begin
    Obs.observe h_batch_records records;
    Obs.observe h_batch_bytes (Wal.staged_bytes w);
    ignore (Wal.flush ~fsync:t.fsync w)
  end

let flush_logs t =
  Array.iter (flush_log t) t.logs;
  t.staged_since_flush <- 0

(* The group-commit point: the network daemon and the simulated server
   call this once per round. *)
let flush t =
  let t0 = now_us () in
  flush_logs t;
  Obs.observe h_flush_us (now_us () - t0)

(* ---- checkpoint ----------------------------------------------------- *)

let current_meta t =
  {
    m_ctr = t.ctr;
    m_last_user = t.last_user;
    m_root_sig = t.root_sig;
    m_next_lsn = t.next_lsn;
    m_backups = t.backups;
    m_seqs = t.seqs;
    m_replies = t.replies;
  }

(* Write generation [g]'s snapshots — shard [i]'s tree when [fresh i],
   the bookkeeping [m] always — then publish them: the bases file,
   then CURRENT. A shard that is not [fresh] keeps its base, whose
   file may come from an older generation (the bases file carries the
   reference across). *)
let write_generation t ~g ~db ~m ~fresh =
  let shards = Shard_map.shards t.map in
  let trees = Shard_db.trees db in
  for i = 0 to shards - 1 do
    if fresh i then begin
      let name = snap_name (stream_name ~shards i) g in
      write_shard_snapshot_file (t.dir // name) i trees.(i);
      t.bases.(i) <- name
    end
  done;
  let meta_name = snap_name "meta" g in
  write_meta_snapshot_file (t.dir // meta_name) m;
  t.bases.(shards) <- meta_name;
  Snapshot.write (bases_path t.dir g) ~payload:(encode_bases ~gen:g t.bases);
  write_current t.dir g

let checkpoint t ~db =
  let t0 = now_us () in
  let shards = Shard_map.shards t.map in
  (* Staged records must be on disk before the generation flips. *)
  flush_logs t;
  let g' = t.gen + 1 in
  (* Incremental: only shards dirtied since the last checkpoint get a
     fresh snapshot. *)
  write_generation t ~g:g' ~db ~m:(current_meta t) ~fresh:(fun i -> t.dirty.(i));
  Array.iter Wal.close_writer t.logs;
  let prev = t.gen in
  t.gen <- g';
  t.logs <- open_logs t.dir ~shards ~gen:g' ~fsync:t.fsync;
  gc t ~prev;
  Array.fill t.dirty 0 shards false;
  t.ops_since_checkpoint <- 0;
  Obs.incr c_checkpoints;
  Obs.observe h_checkpoint_us (now_us () - t0);
  Log.debug (fun f -> f "%s: checkpointed generation %d" t.dir g')

(* ---- logging -------------------------------------------------------- *)

let sub_records map (op : Vo.op) =
  match op with
  | Vo.Get k | Vo.Set (k, _) | Vo.Remove k -> [ (Shard_map.route map k, op) ]
  | Vo.Range (lo, _) ->
      (* Reads are logged for counter bookkeeping only; one record, on
         the low bound's shard, is enough. *)
      [ (Shard_map.route map lo, op) ]
  | Vo.Set_many [] ->
      (* Touches no shard, but the executed op still advanced the
         counter: log one empty record so recovery replays the ctr
         bump. *)
      [ (0, op) ]
  | Vo.Set_many entries ->
      let touched =
        List.sort_uniq Int.compare
          (List.map (fun (k, _) -> Shard_map.route map k) entries)
      in
      List.map
        (fun i ->
          ( i,
            Vo.Set_many
              (List.filter (fun (k, _) -> Shard_map.route map k = i) entries) ))
        touched

(* Stage one record on stream [idx], then apply the durability policy:
   per-op flushes that stream immediately (the pre-group-commit
   behaviour), every:N flushes all streams once N records are staged,
   per-round leaves everything for the round-boundary {!flush}. *)
let stage_record t idx ~payload =
  let w = t.logs.(idx) in
  Wal.stage w ~lsn:(fresh_lsn t) ~payload;
  t.staged_since_flush <- t.staged_since_flush + 1;
  match t.durability with
  | Per_op ->
      flush_log t w;
      t.staged_since_flush <- 0
  | Per_round -> ()
  | Every_n n -> if t.staged_since_flush >= n then flush_logs t

let meta_index t = Shard_map.shards t.map

let log_op t ~db ~op ~ctr ~last_user =
  t.ctr <- ctr;
  t.last_user <- last_user;
  t.root_sig <- None;
  (* A declared origin is consumed by the operation the daemon injected
     for that user; every fan-out sub-record repeats it (replay-time
     [bump_seq] is idempotent). *)
  let origin =
    match List.assoc_opt last_user t.origins with
    | None -> None
    | Some seq ->
        t.origins <- List.remove_assoc last_user t.origins;
        t.seqs <- bump_seq t.seqs (last_user, seq);
        Some (last_user, seq)
  in
  List.iter
    (fun (i, sub) ->
      t.dirty.(i) <- true;
      stage_record t i ~payload:(encode_op_record ~op:sub ~ctr ~last_user ~origin))
    (sub_records t.map op);
  Obs.incr c_ops_logged;
  t.ops_since_checkpoint <- t.ops_since_checkpoint + 1;
  if t.ops_since_checkpoint >= t.checkpoint_every then checkpoint t ~db

let log_root_sig t s =
  t.root_sig <- Some s;
  stage_record t (meta_index t) ~payload:(encode_sig_record s)

let log_backup t b =
  t.backups <- replace_backup t.backups b;
  stage_record t (meta_index t) ~payload:(encode_backup_record b)

let declare_origin t ~user ~seq = t.origins <- set_assoc user seq t.origins

let log_reply t ~user ~seq ~payload =
  t.replies <- set_assoc user (seq, payload) t.replies;
  stage_record t (meta_index t) ~payload:(encode_reply_record ~user ~seq ~payload)

let last_seqs t = t.seqs
let cached_reply t ~user =
  match List.assoc_opt user t.replies with
  | None -> None
  | Some (seq, payload) -> Some (seq, payload)

(* ---- recovery ------------------------------------------------------- *)

let recovered_of db m =
  {
    db;
    ctr = m.m_ctr;
    last_user = m.m_last_user;
    root_sig = m.m_root_sig;
    backups = sort_backups m.m_backups;
    seqs = m.m_seqs;
    replies = List.map (fun (user, (seq, payload)) -> (user, seq, payload)) m.m_replies;
  }

let adopt_meta t m =
  t.ctr <- m.m_ctr;
  t.last_user <- m.m_last_user;
  t.root_sig <- m.m_root_sig;
  t.backups <- m.m_backups;
  t.seqs <- m.m_seqs;
  t.replies <- m.m_replies;
  t.origins <- [];
  t.next_lsn <- m.m_next_lsn

(* A crash loses whatever was staged and not yet flushed: discard the
   buffers before closing, so the simulated restart replays exactly
   what a real process death would have left on disk. *)
let drop_staged_and_close t =
  Array.iter
    (fun w ->
      Wal.discard w;
      Wal.close_writer w)
    t.logs;
  t.staged_since_flush <- 0

let reopen_logs t =
  t.logs <-
    open_logs t.dir ~shards:(Shard_map.shards t.map) ~gen:t.gen ~fsync:t.fsync

let recover t =
  let t0 = now_us () in
  drop_staged_and_close t;
  let loaded = load_generation t.dir ~map:t.map t.gen in
  reopen_logs t;
  match loaded with
  | Error _ as e -> e
  | Ok l ->
      adopt_meta t l.l_meta;
      t.dirty <- l.l_dirty;
      t.bases <- l.l_bases;
      Obs.incr c_recoveries;
      Obs.observe h_recover_us (now_us () - t0);
      Log.info (fun f ->
          f "%s: recovered generation %d (ctr %d)" t.dir t.gen l.l_meta.m_ctr);
      Ok (recovered_of l.l_db l.l_meta)

let recover_stale t =
  let shards = Shard_map.shards t.map in
  drop_staged_and_close t;
  let stale =
    if t.gen > 0 && Sys.file_exists (bases_path t.dir (t.gen - 1)) then t.gen - 1
    else t.gen
  in
  match load_snapshots t.dir ~map:t.map stale with
  | Error _ as e ->
      reopen_logs t;
      e
  | Ok (bases, db, m) ->
      (* Adversarially present the stale snapshots as the whole
         history: delete the logs after them and flip CURRENT back. *)
      for i = 0 to shards do
        remove_if_exists (log_path t.dir (stream_name ~shards i) stale)
      done;
      write_current t.dir stale;
      t.gen <- stale;
      t.bases <- bases;
      reopen_logs t;
      adopt_meta t m;
      t.dirty <- Array.make shards false;
      t.ops_since_checkpoint <- 0;
      gc t ~prev:(stale - 1);
      Obs.incr c_stale_recoveries;
      Log.info (fun f ->
          f "%s: rolled back to stale generation %d (ctr %d)" t.dir stale m.m_ctr);
      Ok (recovered_of db m)

(* ---- open ----------------------------------------------------------- *)

let fresh_meta ~next_lsn =
  {
    m_ctr = 0;
    m_last_user = -1;
    m_root_sig = None;
    m_next_lsn = next_lsn;
    m_backups = [];
    m_seqs = [];
    m_replies = [];
  }

let validate_config ~checkpoint_every ~durability =
  if checkpoint_every < 1 then Error "checkpoint_every must be >= 1"
  else
    match durability with
    | Every_n n when n < 1 -> Error "every:N durability needs N >= 1"
    | Per_op | Per_round | Every_n _ -> Ok ()

(* A store logging to generation [gen] with bookkeeping [m], its logs
   open. *)
let make ~dir ~map ~fsync ~durability ~checkpoint_every ~gen ~db ~bases ~dirty m =
  {
    dir;
    map;
    fsync;
    durability;
    checkpoint_every;
    gen;
    next_lsn = m.m_next_lsn;
    logs = open_logs dir ~shards:(Shard_map.shards map) ~gen ~fsync;
    bases;
    ctr = m.m_ctr;
    last_user = m.m_last_user;
    root_sig = m.m_root_sig;
    backups = m.m_backups;
    seqs = m.m_seqs;
    replies = m.m_replies;
    origins = [];
    dirty;
    staged_since_flush = 0;
    ops_since_checkpoint = 0;
    opened_db = db;
    closed = false;
  }

let create_or_open ?(fsync = false) ?(durability = Per_op)
    ?(checkpoint_every = 64) ~dir ~branching ~shards ~initial () =
  let* () = validate_config ~checkpoint_every ~durability in
  mkdir_p dir;
  if not (Sys.is_directory dir) then Error (dir ^ ": not a directory")
  else if not (manifest_exists dir) then begin
    let map = Shard_map.create ~branching ~shards ~keys:(List.map fst initial) in
    let db = Shard_db.of_map map initial in
    write_manifest dir ~payload:(Shard_map.encode map);
    let m = fresh_meta ~next_lsn:0 in
    let t =
      make ~dir ~map ~fsync ~durability ~checkpoint_every ~gen:0 ~db
        ~bases:(Array.make (shards + 1) "") ~dirty:(Array.make shards false) m
    in
    write_generation t ~g:0 ~db ~m ~fresh:(fun _ -> true);
    Log.info (fun f -> f "%s: fresh store, %d shard(s)" dir shards);
    Ok (t, `Fresh)
  end
  else begin
    let* map = read_manifest dir in
    let shards = Shard_map.shards map in
    let* g = read_current dir in
    let* l = load_generation dir ~map g in
    (* Durable data outlives the run; session bookkeeping does not:
       re-baseline the recovered database as a fresh generation with
       fresh bookkeeping. *)
    let g' = g + 1 in
    let m' = fresh_meta ~next_lsn:l.l_meta.m_next_lsn in
    let t =
      make ~dir ~map ~fsync ~durability ~checkpoint_every ~gen:g' ~db:l.l_db
        ~bases:(Array.make (shards + 1) "") ~dirty:(Array.make shards false) m'
    in
    write_generation t ~g:g' ~db:l.l_db ~m:m' ~fresh:(fun _ -> true);
    (* The previous generations are dead: a reopen is a fresh session,
       not a restart, so there is nothing to roll back to. *)
    gc t ~prev:(-1);
    Log.info (fun f ->
        f "%s: reopened store (%d entries), re-baselined as generation %d" dir
          (Shard_db.size l.l_db) g');
    Ok (t, `Reopened)
  end

(* A daemon restart must look like the same session continuing — same
   generation, same counter, same pending session bookkeeping — not a
   re-baselined fresh run (that is what makes an honest `kill -9` +
   restart invisible to the protocol layer, and a rollback visible). *)
let resume ?(fsync = false) ?(durability = Per_op) ?(checkpoint_every = 64) ~dir () =
  let* () = validate_config ~checkpoint_every ~durability in
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    Error (dir ^ ": no store to resume")
  else if not (manifest_exists dir) then Error (dir ^ ": no MANIFEST")
  else
    let* map = read_manifest dir in
    let* g = read_current dir in
    let* l = load_generation dir ~map g in
    let t =
      make ~dir ~map ~fsync ~durability ~checkpoint_every ~gen:g ~db:l.l_db
        ~bases:l.l_bases ~dirty:l.l_dirty l.l_meta
    in
    Obs.incr c_resumes;
    Log.info (fun f ->
        f "%s: resumed generation %d (ctr %d, %d entries)" dir g l.l_meta.m_ctr
          (Shard_db.size l.l_db));
    Ok (t, recovered_of l.l_db l.l_meta)

(* Like {!recover}, but re-read the MANIFEST from disk first — the
   recovery path a real restart takes, which the torn-manifest
   adversary corrupts. The shard map is immutable, so a successful
   (possibly repaired) read must match the in-memory one. *)
let recover_reload t =
  match read_manifest t.dir with
  | Error _ as e -> e
  | Ok map ->
      if not (String.equal (Shard_map.encode map) (Shard_map.encode t.map)) then
        Error (t.dir ^ ": MANIFEST changed shard map under a live store")
      else recover t

(* ---- crash-injection hooks (adversaries) ---------------------------- *)

(* Simulate a process death mid-checkpoint: flush what a real
   checkpoint would have flushed, write one complete next-generation
   shard snapshot and one half-written temp file, and stop before
   bases/CURRENT publish the new generation. Recovery must land on the
   old generation and ignore the aliens. *)
let debug_partial_checkpoint t ~db =
  flush_logs t;
  let g' = t.gen + 1 in
  let trees = Shard_db.trees db in
  write_shard_snapshot_file (t.dir // Printf.sprintf "shard0.%d.snap" g') 0
    trees.(0);
  let tmp = t.dir // Printf.sprintf "meta.%d.snap.tmp" g' in
  let oc = open_out_bin tmp in
  output_string oc "TCVSSNP1\x00\x00half-written";
  close_out oc

(* ---- read-only inspection (tcvs_cli store-inspect) ------------------ *)

type stream_info = {
  str_name : string;
  str_base_file : string;
  str_base_ok : bool;
  str_log_file : string;
  str_log_bytes : int;
  str_records : int;  (* data records, excluding the header *)
  str_lsn_lo : int;  (* -1 when the log holds no data records *)
  str_lsn_hi : int;
  str_log_status : string;  (* "ok" | "torn tail" | error text *)
}

type info = {
  info_dir : string;
  info_shards : int;
  info_branching : int;
  info_generation : int;
  info_manifest : string;
  info_next_lsn : int;
  info_streams : stream_info list;
  info_orphans : string list;
}

(* Strictly read-only: manifest reads skip the repair path, and log
   reads use [~repair:false] so a torn tail is reported, not truncated. *)
let inspect ~dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    Error (dir ^ ": no such store directory")
  else
    let try_map path =
      match Snapshot.read path with
      | Error _ as e -> e
      | Ok payload -> (
          match Shard_map.decode payload with
          | Some map -> Ok map
          | None -> Error (path ^ ": malformed manifest"))
    in
    let* map, manifest_status =
      match try_map (manifest_path dir) with
      | Ok map -> Ok (map, "ok")
      | Error primary -> (
          match try_map (manifest_bak_path dir) with
          | Ok map -> Ok (map, "primary damaged, backup ok (" ^ primary ^ ")")
          | Error backup ->
              Error
                (Printf.sprintf "manifest unrecoverable (%s; backup: %s)" primary
                   backup))
    in
    let shards = Shard_map.shards map in
    let* g = read_current dir in
    let* bases = read_bases dir g ~count:(shards + 1) in
    let max_lsn = ref (-1) in
    let streams =
      List.init (shards + 1) (fun i ->
          let name = stream_name ~shards i in
          let base_ok =
            if i < shards then
              Result.is_ok
                (load_shard_snapshot_file (dir // bases.(i))
                   ~branching:(Shard_map.branching map) i)
            else
              match load_meta_snapshot_file (dir // bases.(i)) with
              | Ok m ->
                  max_lsn := max !max_lsn (m.m_next_lsn - 1);
                  true
              | Error _ -> false
          in
          let path = log_path dir name g in
          let records, status =
            match Wal.read ~repair:false path with
            | Error e -> ([], e)
            | Ok { Wal.records = []; truncated } ->
                ([], if truncated then "torn tail" else "ok")
            | Ok { Wal.records = (_, header) :: rest; truncated } ->
                ( rest,
                  if not (log_header_matches ~name ~gen:g header) then
                    "bad log header"
                  else if truncated then "torn tail"
                  else "ok" )
          in
          let lo, hi, n =
            List.fold_left
              (fun (lo, hi, n) (lsn, _) ->
                ((if lo = -1 then lsn else min lo lsn), max hi lsn, n + 1))
              (-1, -1, 0) records
          in
          max_lsn := max !max_lsn hi;
          {
            str_name = name;
            str_base_file = bases.(i);
            str_base_ok = base_ok;
            str_log_file = Filename.basename path;
            str_log_bytes =
              (if Sys.file_exists path then (Unix.stat path).Unix.st_size else 0);
            str_records = n;
            str_lsn_lo = lo;
            str_lsn_hi = hi;
            str_log_status = status;
          })
    in
    (* Previous-generation files are retained on purpose (stale
       recovery rolls back to them); anything else unaccounted is an
       orphan: crash leftovers, dead bases. *)
    let accounted =
      [ "MANIFEST"; "MANIFEST.bak"; "CURRENT"; Printf.sprintf "bases.%d" g ]
      @ List.concat_map (fun s -> [ s.str_base_file; s.str_log_file ]) streams
    in
    let prev = g - 1 in
    let prev_refs = bases_files dir prev ~count:(shards + 1) in
    let files = Sys.readdir dir in
    Array.sort String.compare files;
    let orphans =
      Array.to_list files
      |> List.filter (fun f ->
             (not (List.mem f accounted))
             &&
             match classify_file f with
             | Some (Gen_file g1) -> g1 <> prev
             | Some Snap_file -> not (List.mem f prev_refs)
             | None -> true)
    in
    Ok
      {
        info_dir = dir;
        info_shards = shards;
        info_branching = Shard_map.branching map;
        info_generation = g;
        info_manifest = manifest_status;
        info_next_lsn = !max_lsn + 1;
        info_streams = streams;
        info_orphans = orphans;
      }

let close t =
  if not t.closed then begin
    t.closed <- true;
    Array.iter Wal.close_writer t.logs
  end
