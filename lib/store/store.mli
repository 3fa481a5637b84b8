(** The durable store: group-committed WALs + snapshots +
    generations, per shard.

    Directory layout (one store per directory):

    {v
    MANIFEST              branching, shard count, shard boundaries
    MANIFEST.bak          byte-identical backup, written first — a torn
                          MANIFEST is repaired from it on open
    CURRENT               ASCII generation number (tmp+rename updates)
    bases.<g>             generation g's control file: the layout magic,
                          then one base snapshot name per stream
                          (shards, then meta)
    shard<i>.<g>.snap     shard i's tree at the start of generation g
    shard<i>.<g>.wal      shard i's op log since generation g began
                          (checksummed header record names stream/gen)
    meta.<g>.snap         bookkeeping at the start of generation g
    meta.<g>.wal          the bookkeeping log
    v}

    {b Write path (group commit).} Every server mutation is encoded
    and {e staged} on the owning shard's log (a multi-shard [Set_many]
    fans out, one record per shard); root signatures and epoch backups
    go to the meta log. The {!durability} mode decides when staged
    records reach the OS: per-op (stage+flush each record — the
    pre-group-commit behaviour, byte for byte), per-round (everything
    waits for the round-boundary {!flush}: one channel flush and at
    most one fsync per dirty stream per round), or every:N. Records
    carry a store-wide monotone LSN, so recovery can merge all logs
    back into one replay order.

    {b Checkpoints} bound the logs: every [checkpoint_every] logged
    ops the store starts a new generation — fresh snapshots, new empty
    logs — so recovery replays fewer than [checkpoint_every] ops
    however long the run. Checkpoints are incremental: only shards
    with ops logged since the last checkpoint get a fresh snapshot;
    clean shards carry their base forward through the new
    generation's bases file. Exactly one previous generation is
    retained (the one {!recover_stale} rolls back to); garbage
    collection at each checkpoint deletes everything else.

    Recovery = the generation's snapshots + its logs replayed in LSN
    order. Shard snapshots store the exact node structure and are
    loaded with [Merkle_btree.of_root] (a B⁺-tree's shape depends on
    its insertion history, so a bulk load of the same bindings could
    differ), so recovered root digests are byte-identical to the
    pre-crash roots (pinned by tests). A torn log tail is truncated
    with a logged warning; mid-log corruption is a hard error (see
    {!Wal}). A directory in an older layout is refused on open. *)

module Shard_map = Shard_map
module Shard_db = Shard_db
module Wal = Wal
module Snapshot = Snapshot

type backup = {
  user : int;
  epoch : int;
  sigma : string;
  last : string;
  gctr : int;
  signature : string;
}
(** Mirror of the protocol-III register backup (the store speaks its
    own wire type so [lib/core] depends on the store, never the
    reverse). *)

type recovered = {
  db : Shard_db.t;
  ctr : int;
  last_user : int;
  root_sig : string option;
  backups : backup list;  (** sorted by (epoch, user) *)
  seqs : (int * int) list;
      (** highest request seq executed per user, sorted by user — the
          network daemon's exactly-once dedup table *)
  replies : (int * int * string) list;
      (** [(user, seq, payload)]: last cached reply per user, sorted by
          user; [payload] is the net-encoded response message *)
}

type durability = Per_op | Per_round | Every_n of int
(** When staged records reach the OS. [Per_op] flushes after every
    logged record — the pre-group-commit behaviour, byte for byte
    (the default everywhere; pinned recovery digests are taken in this
    mode). [Per_round] defers everything to the round-boundary
    {!flush} — one flush + at most one fsync per dirty stream per
    round, whatever the round logged. [Every_n n] flushes all streams
    once [n] records are staged. A crash loses whatever was staged
    and not yet flushed — never anything a completed flush covered. *)

val durability_to_string : durability -> string
(** ["per-op"], ["per-round"], ["every:N"]. *)

val durability_of_string : string -> (durability, string) result
(** Inverse of {!durability_to_string} — the CLI flag parser. *)

type t

val create_or_open :
  ?fsync:bool ->
  ?durability:durability ->
  ?checkpoint_every:int ->
  dir:string ->
  branching:int ->
  shards:int ->
  initial:(string * string) list ->
  unit ->
  (t * [ `Fresh | `Reopened ], string) result
(** Fresh directory: fix the shard map from [initial]'s keys, write the
    MANIFEST and generation 0, start logging. Existing directory:
    recover the data (MANIFEST's shard map and [branching]/[shards]
    win over the arguments), then re-baseline it as a new generation
    with fresh bookkeeping (ctr 0, no signature, no backups) — durable
    data outlives a run, session bookkeeping does not. [fsync]
    (default false) syncs at every flush point; [durability] (default
    {!Per_op}) sets the flush cadence; [checkpoint_every] (default 64)
    is the number of logged operations between automatic checkpoints.
    A directory in an older layout is an error. *)

val manifest_exists : string -> bool
(** Whether [dir] holds a MANIFEST (or its backup) — i.e. whether
    {!resume} has something to resume. *)

val resume :
  ?fsync:bool ->
  ?durability:durability ->
  ?checkpoint_every:int ->
  dir:string ->
  unit ->
  (t * recovered, string) result
(** Reopen an existing store {e in place}: recover the latest
    generation and keep logging to it, preserving the session
    bookkeeping (ctr, last user, root signature, backups, seqs, reply
    cache) instead of re-baselining like {!create_or_open}. This is
    what a restarted network daemon uses — the store generation stays
    the same, so clients can distinguish an honest restart (generation
    unchanged or advanced) from a rollback (generation regressed).
    Errors if the directory or MANIFEST is missing. *)

val db : t -> Shard_db.t
(** The database state as of {!create_or_open} — what a server should
    start serving from. *)

val shard_map : t -> Shard_map.t
val generation : t -> int
val dir : t -> string
val durability : t -> durability

val log_op :
  t -> db:Shard_db.t -> op:Mtree.Vo.op -> ctr:int -> last_user:int -> unit
(** Log one executed operation ([ctr]/[last_user] are the
    post-operation values; reads are logged too — they advance the
    counter). [db] is the post-operation database: what the
    checkpoint this append triggers, when it crosses the
    [checkpoint_every] threshold, snapshots. *)

val log_root_sig : t -> string -> unit
val log_backup : t -> backup -> unit

val declare_origin : t -> user:int -> seq:int -> unit
(** Tag the {e next} {!log_op} for [user] with the network-level
    request seq that caused it. The origin rides in the op's WAL
    records, so replay rebuilds the per-user dedup table
    ({!last_seqs}) — the daemon never executes the same request
    twice across a crash. *)

val log_reply : t -> user:int -> seq:int -> payload:string -> unit
(** Durably cache the reply for [user]'s request [seq] (one cached
    reply per user — retransmissions only ever ask for the latest).
    Appended to the meta log and carried through snapshots. *)

val last_seqs : t -> (int * int) list
(** Per-user highest executed request seq, sorted by user. *)

val cached_reply : t -> user:int -> (int * string) option
(** The latest durably cached reply for [user], as [(seq, payload)]. *)

val flush : t -> unit
(** The group-commit point: write every stream's staged batch (one
    channel flush + at most one fsync per dirty stream). The simulated
    server calls this at every round boundary and the network daemon
    at the end of every tick round — under [Per_round] durability this
    is the only flush point. A no-op when nothing is staged. *)

val checkpoint : t -> db:Shard_db.t -> unit
(** Force a checkpoint of [db] plus the current bookkeeping mirror.
    Incremental: only shards dirtied since the previous checkpoint are
    re-snapshotted; clean shards carry their base snapshot into the
    new generation via its bases file. *)

val recover : t -> (recovered, string) result
(** Honest crash recovery: staged-but-unflushed records are discarded
    (a crash would have lost them), then the current generation is
    replayed — its snapshots + its logs merged in LSN order.
    The store keeps logging to the same generation afterwards. *)

val recover_reload : t -> (recovered, string) result
(** {!recover}, but re-read the MANIFEST from disk first (repairing a
    torn one from MANIFEST.bak when possible). A MANIFEST that cannot
    be recovered — or that no longer matches the shard map this store
    was opened with — is a hard error: the store refuses to serve a
    half-initialized shard map. Exercised by the [torn-manifest]
    adversaries. *)

val debug_tear_manifest : dir:string -> wreck_backup:bool -> unit
(** Test/adversary hook: truncate the MANIFEST mid-write (to half its
    length). With [wreck_backup], truncate MANIFEST.bak too, making the
    damage unrepairable. *)

val debug_partial_checkpoint : t -> db:Shard_db.t -> unit
(** Test/adversary hook: die mid-checkpoint — flush, write one
    complete next-generation shard snapshot and one half-written .tmp,
    and stop before bases/CURRENT publish the new generation. A
    subsequent {!recover} must land on the old generation and ignore
    the leftovers (the [checkpoint-crash] adversary). *)

val recover_stale : t -> (recovered, string) result
(** Adversarial recovery: load the {e previous} generation's snapshots
    (generation 0's initial state when no checkpoint has happened yet),
    discard every log record after them, and rewind the store's own
    logging state to match — the [rollback-crash] adversary. The
    resulting counter/root regression is exactly what Protocols
    I–III must flag. *)

(** {2 Read-only inspection} — the [tcvs_cli store-inspect] backend. *)

type stream_info = {
  str_name : string;
  str_base_file : string;
  str_base_ok : bool;  (** base snapshot reads back valid *)
  str_log_file : string;
  str_log_bytes : int;
  str_records : int;  (** data records, excluding the header *)
  str_lsn_lo : int;  (** -1 when the log holds no data records *)
  str_lsn_hi : int;
  str_log_status : string;  (** ["ok"] | ["torn tail"] | error text *)
}

type info = {
  info_dir : string;
  info_shards : int;
  info_branching : int;
  info_generation : int;
  info_manifest : string;
  info_next_lsn : int;
      (** 1 + highest LSN the meta snapshot or any log accounts for *)
  info_streams : stream_info list;
  info_orphans : string list;
      (** files belonging to neither the live nor the retained previous
          generation: crash leftovers *)
}

val inspect : dir:string -> (info, string) result
(** Dump a store directory without mutating it: manifest state,
    generation, per-stream base snapshots and logs (record counts, LSN
    ranges, checksum status), and orphaned files. Reads manifests
    without repairing and logs with [Wal.read ~repair:false]. *)

val close : t -> unit
(** Flush staged records (graceful shutdown, all durability modes) and
    close every writer. *)
