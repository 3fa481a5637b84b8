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

type book = {
  ctr : int;
  last_user : int;
  root_sig : string option;
  backups : backup list;  (* sorted by (epoch, user), one per pair *)
  (* Network-session bookkeeping: highest request seq executed per
     user, and the last reply per user — what makes a client
     retransmission across a daemon restart exactly-once. *)
  seqs : (int * int) list;  (* sorted by user *)
  replies : (int * (int * string)) list;  (* user -> (seq, payload), sorted by user *)
}

let fresh_book =
  { ctr = 0; last_user = -1; root_sig = None; backups = []; seqs = []; replies = [] }

(* When records reach the OS. [Per_op] flushes (and under [fsync],
   syncs) after every logged record — the pre-group-commit behaviour,
   byte for byte. [Per_round] stages everything and relies on the
   caller invoking {!flush} at round boundaries: one flush + one fsync
   per dirty stream per round, however many records the round logged. *)
type durability = Per_op | Per_round

let durability_to_string = function Per_op -> "per-op" | Per_round -> "per-round"

let durability_of_string = function
  | "per-op" -> Ok Per_op
  | "per-round" -> Ok Per_round
  | s -> Error (s ^ ": unknown durability (per-op | per-round)")

(* A shard's snapshot chain: a full snapshot, then the deltas written
   after it, oldest first, each with its size in bytes; and the tree
   the newest file completes. *)
type chain = { files : (string * int) list; tip : T.t }

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
  (* The base snapshots [bases.<gen>] names: per shard its chain,
     whose files may come from older generations, and the meta
     snapshot. *)
  mutable chains : chain array;
  mutable meta_base : string;
  (* Mirror of the bookkeeping the meta log describes, so a checkpoint
     can serialise it without asking the server. *)
  mutable book : book;
  (* Origins declared by the network daemon for the ops it is about to
     inject this round; [log_op] attaches and consumes them, so the WAL
     record itself carries the (user, request seq) provenance. *)
  mutable origins : (int * int) list;
  mutable ops_since_checkpoint : int;
  mutable db : Shard_db.t;  (* as of the last open or recovery *)
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
let file_bytes path = if Sys.file_exists path then (Unix.stat path).Unix.st_size else 0

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

(* The layout magic every [bases.<g>] payload opens with. *)
let bases_magic = "TCVSBAS3"

(* A directory an earlier version wrote is refused before anything else
   reads it: the torn-MANIFEST repair would rewrite its MANIFEST, and a
   WAL read would truncate its logs, whose checksums no longer match.
   The current generation's bases file names the layout its shard
   snapshots were written in. The directory's files stay
   byte-identical. *)
let check_layout dir =
  let older_bases () =
    match read_current dir with
    | Error _ -> false  (* the open itself reports it *)
    | Ok g -> (
        match Snapshot.read (bases_path dir g) with
        | Ok payload -> not (String.starts_with ~prefix:bases_magic payload)
        | Error _ -> false)
  in
  if List.exists Snapshot.older_format [ manifest_path dir; manifest_bak_path dir ]
     || older_bases ()
  then Error (dir ^ ": unsupported store layout (written by an older version?)")
  else Ok ()

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
let log_magic = "TCVSLOG2"

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

(* The [bases.<g>] control file names each stream's base snapshots:
   per shard its chain, full snapshot first, then the meta snapshot as
   a one-file chain. Its payload opens with the layout magic, which
   {!check_layout} reads before anything else in the directory. *)
let encode_bases ~gen chains =
  let w = W.create () in
  W.raw w bases_magic;
  W.u32 w gen;
  W.list w (W.list w (W.str w)) chains;
  W.contents w

let read_bases dir g ~count =
  let path = bases_path dir g in
  let* payload = Snapshot.read path in
  match
    Wire.decode payload (fun r ->
        if not (String.equal (R.raw r (String.length bases_magic)) bases_magic) then
          failwith "bases magic";
        let gen = R.u32 r in
        (gen, Array.of_list (R.list r (fun r -> R.list r R.str))))
  with
  | None -> Error (path ^ ": malformed bases record")
  | Some (bgen, _) when bgen <> g ->
      Error (Printf.sprintf "%s: generation mismatch (found %d)" path bgen)
  | Some (_, chains) when Array.length chains <> count ->
      Error
        (Printf.sprintf "%s: expected %d stream entries, found %d" path count
           (Array.length chains))
  | Some (_, chains)
    when Array.exists List.is_empty chains || List.length chains.(count - 1) <> 1 ->
      Error (path ^ ": malformed bases record")
  | Some (_, chains) -> Ok chains

(* Snapshot basenames referenced by [bases.<g>], or [] when the file is
   absent/unreadable — what garbage collection must keep for the
   retained previous generation. *)
let bases_files dir g ~count =
  match read_bases dir g ~count with
  | Ok chains -> List.concat (Array.to_list chains)
  | Error _ -> []

let replace_backup backups b =
  List.sort
    (fun a b -> compare (a.epoch, a.user) (b.epoch, b.user))
    (b :: List.filter (fun x -> not (x.user = b.user && x.epoch = b.epoch)) backups)

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

(* A shard snapshot holds Merkle nodes, each stored under its digest:
   the shard index, the root digest of the tree it completes, then one
   record per node — a leaf's (key, value) entries, or an internal
   node's separator keys and child digests. A delta holds only the
   nodes its chain's newest tree lacks; a full snapshot is a delta
   against no tree. The nodes are stored, not just the bindings,
   because a B⁺-tree's shape depends on its insertion history and the
   digest commits to the shape: bulk-loading the same bindings would
   generally produce a different root. *)
module Strings = Set.Make (String)
module By_digest = Map.Make (String)

type record =
  | Leaf_rec of (string * string) array
  | Node_rec of string array * string array

(* Stored trees are the server's full trees; stubs live only in
   client-side verification objects. *)
let no_stub () = invalid_arg "shard snapshot: stub in stored tree"

(* The digests of every node in [tree]: what a delta against it leaves
   out. *)
let node_digests tree =
  let rec add acc (n : N.t) =
    match n with
    | N.Leaf { digest; _ } -> Strings.add digest acc
    | N.Node { digest; children; _ } ->
        Array.fold_left add (Strings.add digest acc) children
    | N.Stub _ -> no_stub ()
  in
  add Strings.empty (T.root tree)

(* Write shard [i]'s [tree] as the nodes whose digests [known] lacks (a
   known node's subtree is known too: its digest commits to it), and
   return the file's size. *)
let write_shard_snapshot path i tree ~known =
  let rec missing acc (n : N.t) =
    if Strings.mem (N.digest n) known then acc
    else
      match n with
      | N.Leaf _ -> n :: acc
      | N.Node { children; _ } -> Array.fold_left missing (n :: acc) children
      | N.Stub _ -> no_stub ()
  in
  let w = W.create () in
  W.u16 w i;
  W.str w (T.root_digest tree);
  W.list w
    (fun (n : N.t) ->
      W.str w (N.digest n);
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
          W.list w (fun c -> W.str w (N.digest c)) (Array.to_list children)
      | N.Stub _ -> no_stub ())
    (missing [] (T.root tree));
  Snapshot.write path ~payload:(W.contents w);
  file_bytes path

(* Structural violations raise [Invalid_argument], which [Wire.decode]
   maps to [None] — same failure surface as a short or garbled read. *)
let decode_record r =
  let digest = R.str r in
  match R.u8 r with
  | 0 ->
      let entries =
        Array.of_list
          (R.list r (fun r ->
               let key = R.str r in
               (key, R.str r)))
      in
      for i = 1 to Array.length entries - 1 do
        if String.compare (fst entries.(i - 1)) (fst entries.(i)) >= 0 then
          invalid_arg "shard snapshot: leaf entries not sorted"
      done;
      (digest, Leaf_rec entries)
  | 1 ->
      let keys = Array.of_list (R.list r R.str) in
      let children = Array.of_list (R.list r R.str) in
      if Array.length children < 1 || Array.length keys <> Array.length children - 1
      then invalid_arg "shard snapshot: malformed internal node";
      (digest, Node_rec (keys, children))
  | _ -> invalid_arg "shard snapshot: unknown node tag"

(* Load shard [i]'s chain [names] (full snapshot first): read every
   file's records into one digest → record map, then rebuild the newest
   file's tree from its root digest down. Each node goes through the
   smart constructors, which recompute its digest from the raw bytes,
   and must hash to the digest its parent names. Only live nodes are
   rebuilt, so a load hashes exactly what the tree holds. *)
let load_chain dir ~branching i names =
  let rec read files nodes root = function
    | [] -> Ok (List.rev files, nodes, root)
    | name :: rest -> (
        let path = dir // name in
        let* payload = Snapshot.read path in
        match
          Wire.decode payload (fun r ->
              let idx = R.u16 r in
              let root = R.str r in
              (idx, root, R.list r decode_record))
        with
        | None -> Error (path ^ ": malformed shard snapshot")
        | Some (idx, _, _) when idx <> i ->
            Error (Printf.sprintf "%s: shard index mismatch (found %d)" path idx)
        | Some (_, root, records) ->
            let nodes =
              List.fold_left (fun m (d, record) -> By_digest.add d record m) nodes records
            in
            read ((name, file_bytes path) :: files) nodes root rest)
  in
  let* files, nodes, root = read [] By_digest.empty "" names in
  let exception Bad_chain of string in
  let rec build digest =
    let node =
      match By_digest.find_opt digest nodes with
      | None ->
          raise (Bad_chain (Crypto.Hex.encode digest ^ " is in no file of the chain"))
      | Some (Leaf_rec entries) ->
          N.make_leaf (Array.map (fun (key, value) -> N.entry ~key ~value) entries)
      | Some (Node_rec (keys, children)) -> N.make_node keys (Array.map build children)
    in
    if String.equal (N.digest node) digest then node
    else raise (Bad_chain (Crypto.Hex.encode digest ^ " does not hash to its digest"))
  in
  match build root with
  | node -> Ok { files; tip = T.of_root ~branching node }
  | exception Bad_chain e ->
      Error (Printf.sprintf "%s: node %s" (dir // String.concat "+" names) e)

(* The meta snapshot: the bookkeeping [b] and the next free LSN. *)
let write_meta_snapshot_file path b ~next_lsn =
  let w = W.create () in
  W.u32 w b.ctr;
  W.u32 w (b.last_user + 1);
  (match b.root_sig with
  | None -> W.u8 w 0
  | Some s ->
      W.u8 w 1;
      W.str w s);
  W.u64 w next_lsn;
  W.list w (encode_backup w) b.backups;
  W.list w
    (fun (user, seq) ->
      W.u16 w user;
      W.u32 w seq)
    b.seqs;
  W.list w
    (fun (user, (seq, payload)) ->
      W.u16 w user;
      W.u32 w seq;
      W.str w payload)
    b.replies;
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
        ({ ctr; last_user; root_sig; backups; seqs; replies }, next_lsn))
  with
  | None -> Error (path ^ ": malformed meta snapshot")
  | Some loaded -> Ok loaded

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

(* A generation as its files hold it: the database and bookkeeping
   its snapshots and logs replay to, its base snapshots, the next free
   LSN, and how many logged ops its logs held. *)
type loaded = {
  l_gen : int;
  l_db : Shard_db.t;
  l_book : book;
  l_next_lsn : int;
  l_chains : chain array;
  l_meta_base : string;
  l_tail_ops : int;
}

(* Generation [g]: the shard chains and meta snapshot [bases.<g>]
   names, then every record of its logs, which were all written after
   its checkpoint, merged in LSN order. *)
let load_generation dir ~map g =
  let shards = Shard_map.shards map and branching = Shard_map.branching map in
  let* bases = read_bases dir g ~count:(shards + 1) in
  let rec load_chains i acc =
    if i = shards then Ok (Array.of_list (List.rev acc))
    else
      let* chain = load_chain dir ~branching i bases.(i) in
      load_chains (i + 1) (chain :: acc)
  in
  let* chains = load_chains 0 [] in
  let meta_base = List.hd bases.(shards) in
  let* book, next_lsn = load_meta_snapshot_file (dir // meta_base) in
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
      gather (i + 1) (List.rev_append evs acc)
  in
  let* events = gather 0 [] in
  let replay l (lsn, ev) =
    let l = { l with l_next_lsn = max l.l_next_lsn (lsn + 1) } in
    let b = l.l_book in
    match ev with
    | `Op (op, ctr, last_user, origin) ->
        let seqs = match origin with None -> b.seqs | Some o -> bump_seq b.seqs o in
        {
          l with
          l_db = fst (Shard_db.apply l.l_db op);
          l_book = { b with ctr; last_user; root_sig = None; seqs };
          (* A fanned-out op writes one record per shard, each with the
             op's ctr: count the op once. *)
          l_tail_ops = (if ctr = b.ctr then l.l_tail_ops else l.l_tail_ops + 1);
        }
    | `Sig s -> { l with l_book = { b with root_sig = Some s } }
    | `Backup x -> { l with l_book = { b with backups = replace_backup b.backups x } }
    | `Reply (user, seq, payload) ->
        { l with l_book = { b with replies = set_assoc user (seq, payload) b.replies } }
  in
  Ok
    (List.fold_left replay
       {
         l_gen = g;
         l_db = Shard_db.of_trees map (Array.map (fun c -> c.tip) chains);
         l_book = book;
         l_next_lsn = next_lsn;
         l_chains = chains;
         l_meta_base = meta_base;
         l_tail_ops = 0;
       }
       (List.sort (fun (a, _) (b, _) -> Int.compare a b) events))

(* The one way into a directory, for an open and a recovery alike:
   refuse an older layout, read the MANIFEST (repairing a torn copy
   from its twin), then CURRENT's generation. *)
let load dir =
  let* () = check_layout dir in
  let* map = read_manifest dir in
  let* g = read_current dir in
  let* l = load_generation dir ~map g in
  Ok (map, l)

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

(* Keep generations [gen] and [prev]: delete every other generation's
   bases file and logs, every snapshot that neither [referenced] (what
   [gen]'s bases file names) nor [bases.<prev>] names — orphans a
   crashed checkpoint left behind included — and half-written .tmp
   files. *)
let gc dir ~count ~gen ~prev ~referenced =
  let referenced = Strings.of_list (referenced @ bases_files dir prev ~count) in
  Array.iter
    (fun f ->
      let dead =
        Filename.check_suffix f ".tmp"
        ||
        match classify_file f with
        | Some (Gen_file g) -> g <> gen && g <> prev
        | Some Snap_file -> not (Strings.mem f referenced)
        | None -> false
      in
      if dead then remove_if_exists (dir // f))
    (Sys.readdir dir)

(* ---- accessors ------------------------------------------------------ *)

let db t = t.db
let book t = t.book
let generation t = t.gen
let dir t = t.dir

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

let flush_logs t = Array.iter (flush_log t) t.logs

(* The group-commit point: the network daemon and the simulated server
   call this once per round. *)
let flush t =
  let t0 = now_us () in
  flush_logs t;
  Obs.observe h_flush_us (now_us () - t0)

(* ---- checkpoint ----------------------------------------------------- *)

(* Shard [i]'s chain once generation [g] holds [tree]. A chain whose
   tip already is [tree] is kept: the new bases file names its files
   again. Otherwise a delta against the tip extends it, until the
   chain's deltas reach its full snapshot's size; then a full snapshot
   starts a new chain. So a load reads at most twice the tree plus one
   delta. A chain with no files yet starts with a full snapshot. *)
let next_chain t ~g i tree =
  let c = t.chains.(i) in
  match c.files with
  | _ :: _ when String.equal (T.root_digest c.tip) (T.root_digest tree) -> c
  | files ->
      let full, deltas =
        match files with
        | [] -> (0, 0)
        | (_, full) :: deltas -> (full, List.fold_left (fun n (_, b) -> n + b) 0 deltas)
      in
      let restart = deltas >= full in
      let name = snap_name (stream_name ~shards:(Shard_map.shards t.map) i) g in
      let known = if restart then Strings.empty else node_digests c.tip in
      let file = (name, write_shard_snapshot (t.dir // name) i tree ~known) in
      { files = (if restart then [ file ] else files @ [ file ]); tip = tree }

(* Write generation [g]'s snapshots — each changed shard's node delta
   (or full snapshot), the bookkeeping mirror always — then publish
   them: the bases file, then CURRENT. *)
let write_generation t ~g ~db =
  let trees = Shard_db.trees db in
  t.chains <- Array.mapi (fun i tree -> next_chain t ~g i tree) trees;
  let meta_name = snap_name "meta" g in
  write_meta_snapshot_file (t.dir // meta_name) t.book ~next_lsn:t.next_lsn;
  t.meta_base <- meta_name;
  let chains = Array.to_list (Array.map (fun c -> List.map fst c.files) t.chains) in
  Snapshot.write (bases_path t.dir g)
    ~payload:(encode_bases ~gen:g (chains @ [ [ meta_name ] ]));
  write_current t.dir g

(* Start the next generation from [db] and the bookkeeping mirror, log
   to it, and keep generation [prev] for stale recovery to roll back
   to. *)
let advance t ~db ~prev =
  let shards = Shard_map.shards t.map in
  (* Staged records must be on disk before the generation flips. *)
  flush_logs t;
  let g = t.gen + 1 in
  write_generation t ~g ~db;
  Array.iter Wal.close_writer t.logs;
  t.gen <- g;
  t.logs <- open_logs t.dir ~shards ~gen:g ~fsync:t.fsync;
  gc t.dir ~count:(shards + 1) ~gen:g ~prev
    ~referenced:
      (t.meta_base :: List.concat_map (fun c -> List.map fst c.files) (Array.to_list t.chains));
  t.ops_since_checkpoint <- 0

let checkpoint t ~db =
  let t0 = now_us () in
  advance t ~db ~prev:t.gen;
  Obs.incr c_checkpoints;
  Obs.observe h_checkpoint_us (now_us () - t0);
  Log.debug (fun f -> f "%s: checkpointed generation %d" t.dir t.gen)

(* Chains with no files yet: the next generation writes each shard's
   tree as a full snapshot. *)
let unwritten db = Array.map (fun tip -> { files = []; tip }) (Shard_db.trees db)

(* Durable data outlives a simulated session; its bookkeeping does
   not. The earlier generations die with the session, so there is
   nothing to roll back to. *)
let rebaseline t =
  t.book <- fresh_book;
  t.chains <- unwritten t.db;
  advance t ~db:t.db ~prev:(-1);
  Log.info (fun f ->
      f "%s: re-baselined %d entries as generation %d" t.dir (Shard_db.size t.db) t.gen)

(* ---- logging -------------------------------------------------------- *)

let sub_records map (op : Vo.op) =
  match op with
  | Vo.Range (lo, _) ->
      (* Reads are logged for counter bookkeeping only; one record, on
         the low bound's shard, is enough. *)
      [ (Shard_map.route map lo, op) ]
  | Vo.Set_many [] ->
      (* Touches no shard, but the executed op still advanced the
         counter: log one empty record so recovery replays the ctr
         bump. *)
      [ (0, op) ]
  | Vo.Get _ | Vo.Set _ | Vo.Remove _ | Vo.Set_many _ ->
      let boundaries = Shard_map.boundaries map in
      List.map (fun i -> (i, Vo.sub_op_for boundaries i op)) (Vo.shards_for boundaries op)

(* Stage one record on stream [idx]; per-op durability flushes that
   stream at once (the pre-group-commit behaviour), per-round leaves
   everything for the round-boundary {!flush}. *)
let stage_record t idx ~payload =
  let w = t.logs.(idx) in
  Wal.stage w ~lsn:(fresh_lsn t) ~payload;
  match t.durability with Per_op -> flush_log t w | Per_round -> ()

let meta_index t = Shard_map.shards t.map

let log_op t ~db ~op ~ctr ~last_user =
  (* A declared origin is consumed by the operation the daemon injected
     for that user; every fan-out sub-record repeats it (replay-time
     [bump_seq] is idempotent). *)
  let origin =
    match List.assoc_opt last_user t.origins with
    | None -> None
    | Some seq ->
        t.origins <- List.remove_assoc last_user t.origins;
        Some (last_user, seq)
  in
  let b = t.book in
  t.book <-
    {
      b with
      ctr;
      last_user;
      root_sig = None;
      seqs = (match origin with None -> b.seqs | Some o -> bump_seq b.seqs o);
    };
  List.iter
    (fun (i, sub) ->
      stage_record t i ~payload:(encode_op_record ~op:sub ~ctr ~last_user ~origin))
    (sub_records t.map op);
  Obs.incr c_ops_logged;
  t.ops_since_checkpoint <- t.ops_since_checkpoint + 1;
  if t.ops_since_checkpoint >= t.checkpoint_every then checkpoint t ~db

let log_root_sig t s =
  t.book <- { t.book with root_sig = Some s };
  stage_record t (meta_index t) ~payload:(encode_sig_record s)

let log_backup t b =
  t.book <- { t.book with backups = replace_backup t.book.backups b };
  stage_record t (meta_index t) ~payload:(encode_backup_record b)

let declare_origin t ~user ~seq = t.origins <- set_assoc user seq t.origins

let log_reply t ~user ~seq ~payload =
  t.book <- { t.book with replies = set_assoc user (seq, payload) t.book.replies };
  stage_record t (meta_index t) ~payload:(encode_reply_record ~user ~seq ~payload)

(* ---- open and recovery ---------------------------------------------- *)

(* Log to generation [l]: take over its database, bookkeeping and base
   snapshots, and count its logged ops towards the next checkpoint. *)
let adopt t l =
  t.gen <- l.l_gen;
  t.db <- l.l_db;
  t.book <- l.l_book;
  t.next_lsn <- l.l_next_lsn;
  t.chains <- l.l_chains;
  t.meta_base <- l.l_meta_base;
  t.ops_since_checkpoint <- l.l_tail_ops;
  t.origins <- [];
  t.logs <- open_logs t.dir ~shards:(Shard_map.shards t.map) ~gen:t.gen ~fsync:t.fsync

(* A store that logs to generation [l]; {!adopt} sets every field that
   depends on it. *)
let make ~dir ~map ~fsync ~durability ~checkpoint_every l =
  let t =
    {
      dir;
      map;
      fsync;
      durability;
      checkpoint_every;
      gen = 0;
      next_lsn = 0;
      logs = [||];
      chains = [||];
      meta_base = "";
      book = fresh_book;
      origins = [];
      ops_since_checkpoint = 0;
      db = l.l_db;
      closed = false;
    }
  in
  adopt t l;
  t

let create_or_open ?(fsync = false) ?(durability = Per_op) ?(checkpoint_every = 64) ~dir
    ~branching ~shards ~initial () =
  if checkpoint_every < 1 then Error "checkpoint_every must be >= 1"
  else begin
    mkdir_p dir;
    if not (Sys.is_directory dir) then Error (dir ^ ": not a directory")
    else if Sys.file_exists (manifest_path dir) || Sys.file_exists (manifest_bak_path dir)
    then begin
      (* A restart continues the same session: same generation, same
         bookkeeping. That is what makes an honest kill -9 and restart
         invisible to the protocols, and a rollback visible. *)
      let* map, l = load dir in
      let t = make ~dir ~map ~fsync ~durability ~checkpoint_every l in
      Obs.incr c_resumes;
      Log.info (fun f ->
          f "%s: resumed generation %d (ctr %d, %d entries, %d logged ops)" dir t.gen
            t.book.ctr (Shard_db.size t.db) l.l_tail_ops);
      Ok (t, `Reopened)
    end
    else begin
      let map = Shard_map.create ~branching ~shards ~keys:(List.map fst initial) in
      let db = Shard_db.of_map map initial in
      write_manifest dir ~payload:(Shard_map.encode map);
      let t =
        make ~dir ~map ~fsync ~durability ~checkpoint_every
          {
            l_gen = 0;
            l_db = db;
            l_book = fresh_book;
            l_next_lsn = 0;
            l_chains = unwritten db;
            l_meta_base = "";
            l_tail_ops = 0;
          }
      in
      write_generation t ~g:0 ~db;
      Log.info (fun f -> f "%s: fresh store, %d shard(s)" dir shards);
      Ok (t, `Fresh)
    end
  end

(* A crash loses whatever was staged and not yet flushed: discard the
   buffers before closing, so the reload sees exactly what a real
   process death would have left on disk. The directory is then
   reloaded as an open reloads it. The shard map is immutable, so a
   (possibly repaired) MANIFEST must match the one in memory. On an
   error the logs stay closed: the store must not be written again. *)
let recover t =
  let t0 = now_us () in
  Array.iter
    (fun w ->
      Wal.discard w;
      Wal.close_writer w)
    t.logs;
  let* map, l = load t.dir in
  if not (String.equal (Shard_map.encode map) (Shard_map.encode t.map)) then
    Error (t.dir ^ ": MANIFEST changed shard map under a live store")
  else begin
    adopt t l;
    Obs.incr c_recoveries;
    Obs.observe h_recover_us (now_us () - t0);
    Log.info (fun f -> f "%s: recovered generation %d (ctr %d)" t.dir t.gen t.book.ctr);
    Ok ()
  end

(* ---- crash-injection hooks (adversaries) ---------------------------- *)

(* Simulate a process death mid-checkpoint: flush what a real
   checkpoint would have flushed, write one complete next-generation
   shard snapshot and one half-written temp file, and stop before
   bases/CURRENT publish the new generation. Recovery must land on the
   old generation and ignore the aliens. *)
let debug_partial_checkpoint t ~db =
  flush_logs t;
  let g' = t.gen + 1 in
  ignore
    (write_shard_snapshot
       (t.dir // Printf.sprintf "shard0.%d.snap" g')
       0 (Shard_db.trees db).(0) ~known:Strings.empty);
  let tmp = t.dir // Printf.sprintf "meta.%d.snap.tmp" g' in
  let oc = open_out_bin tmp in
  output_string oc "TCVSSNP2\x00\x00half-written";
  close_out oc

(* Simulate a server that comes back on stale state: present the
   retained previous generation (generation 0's initial snapshots when
   no checkpoint has happened yet) as the whole history. CURRENT points
   back at it, and everything newer is deleted: its own logs, the
   newer generation's files, and every snapshot only they name. *)
let debug_rollback t =
  let shards = Shard_map.shards t.map in
  let stale =
    if t.gen > 0 && Sys.file_exists (bases_path t.dir (t.gen - 1)) then t.gen - 1
    else t.gen
  in
  write_current t.dir stale;
  for i = 0 to shards do
    remove_if_exists (log_path t.dir (stream_name ~shards i) stale)
  done;
  gc t.dir ~count:(shards + 1) ~gen:stale ~prev:(stale - 1)
    ~referenced:(bases_files t.dir stale ~count:(shards + 1));
  Obs.incr c_stale_recoveries;
  Log.info (fun f -> f "%s: rolled back to generation %d" t.dir stale)

(* ---- read-only inspection (tcvs_cli store-inspect) ------------------ *)

type stream_info = {
  str_name : string;
  str_base_chain : (string * int) list;  (* full snapshot first, with sizes *)
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
    let* () = check_layout dir in
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
                (load_chain dir ~branching:(Shard_map.branching map) i bases.(i))
            else
              match load_meta_snapshot_file (dir // List.hd bases.(i)) with
              | Ok (_, next_lsn) ->
                  max_lsn := max !max_lsn (next_lsn - 1);
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
            str_base_chain = List.map (fun f -> (f, file_bytes (dir // f))) bases.(i);
            str_base_ok = base_ok;
            str_log_file = Filename.basename path;
            str_log_bytes = file_bytes path;
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
      Strings.of_list
        ([ "MANIFEST"; "MANIFEST.bak"; "CURRENT"; Printf.sprintf "bases.%d" g ]
        @ List.concat_map
            (fun s -> s.str_log_file :: List.map fst s.str_base_chain)
            streams)
    in
    let prev = g - 1 in
    let prev_refs = Strings.of_list (bases_files dir prev ~count:(shards + 1)) in
    let files = Sys.readdir dir in
    Array.sort String.compare files;
    let orphans =
      Array.to_list files
      |> List.filter (fun f ->
             (not (Strings.mem f accounted))
             &&
             match classify_file f with
             | Some (Gen_file g1) -> g1 <> prev
             | Some Snap_file -> not (Strings.mem f prev_refs)
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
