(** The durable store: group-committed WALs + snapshots +
    generations, per shard.

    Directory layout (one store per directory):

    {v
    MANIFEST              branching, shard count, shard boundaries
    MANIFEST.bak          byte-identical backup, written first — a torn
                          MANIFEST is repaired from it on open
    CURRENT               ASCII generation number (tmp+rename updates)
    bases.<g>             generation g's control file: the layout magic
                          TCVSBAS3, then per shard its snapshot chain
                          (full snapshot first, then deltas), then the
                          meta snapshot
    shard<i>.<g>.snap     Merkle nodes of shard i's tree at generation
                          g, each under its digest: all of them (full)
                          or those the chain's previous tree lacks
                          (delta)
    shard<i>.<g>.wal      shard i's op log since generation g began
                          (checksummed header record names stream/gen)
    meta.<g>.snap         bookkeeping at the start of generation g
    meta.<g>.wal          the bookkeeping log
    v}

    {b One way in.} {!create_or_open} creates a fresh directory, or
    resumes an existing one in place: the same generation, its
    database and its {!book}. {!recover} reloads the directory the same
    way after a simulated crash, and the crash adversaries first damage
    the directory as their fault would ({!debug_tear_manifest},
    {!debug_partial_checkpoint}, {!debug_rollback}). A load checks the
    layout, reads the MANIFEST (repairing a torn copy from its twin),
    CURRENT, the generation's snapshot chains, then replays its logs.
    {!rebaseline} starts a new session over old data.

    {b Write path (group commit).} Every server mutation is encoded
    and {e staged} on the owning shard's log (a multi-shard [Set_many]
    fans out, one record per shard); root signatures, epoch backups and
    cached replies go to the meta log. The {!durability} mode decides
    when staged records reach the OS: per-op (stage+flush each record —
    the pre-group-commit behaviour, byte for byte) or per-round
    (everything waits for the round-boundary {!flush}: one channel flush
    and at most one fsync per dirty stream per round). Records carry a
    store-wide monotone LSN, so recovery can merge all logs back into
    one replay order.

    {b Checkpoints} bound the logs: every [checkpoint_every] logged
    ops the store starts a new generation — new snapshots, new empty
    logs — so a load replays fewer than [checkpoint_every] ops however
    long the run, and however often it restarts: an open counts the
    ops it replayed towards the next checkpoint. A checkpoint costs
    what changed: a shard whose root equals its chain's newest tree
    keeps its chain (reads never cause a snapshot), and a changed shard
    writes a delta, the Merkle nodes whose digests the chain's newest
    tree lacks. Once a chain's deltas reach the size of its full
    snapshot, the shard writes a full snapshot and starts a new chain,
    so a load reads at most twice the tree plus one delta. Exactly one
    previous generation is retained (the one {!debug_rollback} rolls
    back to); garbage collection at each checkpoint deletes every
    snapshot no retained bases file names, and everything else of older
    generations.

    A load = the generation's snapshots + its logs replayed in LSN
    order. A shard's chain is read into one digest → node map and its
    newest tree rebuilt from the root digest down through the smart
    constructors; every rebuilt node must hash to the digest its parent
    names, and only live nodes are rebuilt. The exact node structure is
    restored (a B⁺-tree's shape depends on its insertion history, so a
    bulk load of the same bindings could differ), so recovered root
    digests are byte-identical to the pre-crash roots (pinned by
    tests). A torn log tail is truncated
    with a logged warning; mid-log corruption is a hard error (see
    {!Wal}). A directory in an older layout, or one whose snapshots
    and logs carry the SHA-256-prefix checksums that preceded CRC-32C,
    is refused on open before any file in it is read past its magic,
    so nothing in it is repaired or truncated. *)

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

type book = {
  ctr : int;
  last_user : int;  (** -1 before the first op *)
  root_sig : string option;
  backups : backup list;  (** sorted by (epoch, user), one per pair *)
  seqs : (int * int) list;
      (** highest request seq executed per user, sorted by user — the
          network daemon's exactly-once dedup table *)
  replies : (int * (int * string)) list;
      (** [(user, (seq, payload))]: last cached reply per user, sorted
          by user; [payload] is the net-encoded response message *)
}
(** The session bookkeeping the meta log and meta snapshot carry: what
    a server needs besides the database to continue a session. *)

type durability = Per_op | Per_round
(** When staged records reach the OS. [Per_op] flushes after every
    logged record — the pre-group-commit behaviour, byte for byte
    (the default everywhere; pinned recovery digests are taken in this
    mode). [Per_round] defers everything to the round-boundary
    {!flush} — one flush + at most one fsync per dirty stream per
    round, whatever the round logged. A crash loses whatever was staged
    and not yet flushed — never anything a completed flush covered. *)

val durability_to_string : durability -> string
(** ["per-op"], ["per-round"]. *)

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
    MANIFEST and generation 0, start logging. Existing directory: load
    it (MANIFEST's shard map and [branching]/[shards] win over the
    arguments) and keep logging to its current generation, with its
    {!book} — what a restarted network daemon does, so clients can
    tell an honest restart (generation unchanged or advanced) from a
    rollback (generation regressed). [fsync] (default false) syncs at
    every flush point; [durability] (default {!Per_op}) sets the flush
    cadence; [checkpoint_every] (default 64) is the number of logged
    operations between automatic checkpoints, counting those the open
    replayed. A directory in an older layout is an error. *)

val rebaseline : t -> unit
(** Start a new session over the data: write the database as a new
    generation of full snapshots with fresh bookkeeping (ctr 0, no
    signature, no backups, no replies) and delete every older
    generation. The simulator calls this when a run reopens a
    directory an earlier run left. *)

val db : t -> Shard_db.t
(** The database as of the last open or {!recover} — what a server
    should serve from. *)

val book : t -> book
(** The bookkeeping as of the last logged record: after an open or
    {!recover}, what the directory held. *)

val generation : t -> int
val dir : t -> string

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
    records, so replay rebuilds the per-user dedup table (the
    [seqs] of {!book}, which the daemon reads) — the daemon never
    executes the same request twice across a crash. *)

val log_reply : t -> user:int -> seq:int -> payload:string -> unit
(** Durably cache the reply for [user]'s request [seq] (one cached
    reply per user — retransmissions only ever ask for the latest).
    Appended to the meta log and carried through snapshots. *)

val flush : t -> unit
(** The group-commit point: write every stream's staged batch (one
    channel flush + at most one fsync per dirty stream). The simulated
    server calls this at every round boundary and the network daemon
    at the end of every tick round — under [Per_round] durability this
    is the only flush point. A no-op when nothing is staged. *)

val checkpoint : t -> db:Shard_db.t -> unit
(** Force a checkpoint of [db] plus the current bookkeeping mirror. A
    shard whose root differs from its chain's newest tree writes a
    delta (or, once the chain's deltas reach its full snapshot's size,
    a full snapshot that starts a new chain); every other shard
    carries its chain into the new generation via its bases file. *)

val recover : t -> (unit, string) result
(** Crash recovery: staged-but-unflushed records are discarded (a
    crash would have lost them), then the directory is reloaded
    exactly as {!create_or_open} loads an existing one — layout check,
    MANIFEST (repairing a torn copy), CURRENT, snapshot chains, log
    replay — and the store logs to the generation it found. {!db} and
    {!book} then say what the directory held. A MANIFEST that cannot be
    recovered, or that names a different shard map, is an error, and so
    is any load failure; the store then must not be written again. *)

val debug_tear_manifest : dir:string -> wreck_backup:bool -> unit
(** Test/adversary hook: truncate the MANIFEST mid-write (to half its
    length). With [wreck_backup], truncate MANIFEST.bak too, making the
    damage unrepairable (the [torn-manifest] adversaries). *)

val debug_partial_checkpoint : t -> db:Shard_db.t -> unit
(** Test/adversary hook: die mid-checkpoint — flush, write one
    complete next-generation shard snapshot and one half-written .tmp,
    and stop before bases/CURRENT publish the new generation. A
    subsequent {!recover} must land on the old generation and ignore
    the leftovers (the [checkpoint-crash] adversary). *)

val debug_rollback : t -> unit
(** Test/adversary hook: a server that comes back on stale state.
    Point CURRENT back at the retained previous generation (generation
    0's initial snapshots when no checkpoint has happened yet) and
    delete everything newer, that generation's own logs included. A
    subsequent {!recover} then loads the stale snapshots as the whole
    history (the [rollback-crash] adversary): the counter/root
    regression Protocols I–III must flag. *)

(** {2 Read-only inspection} — the [tcvs_cli store-inspect] backend. *)

type stream_info = {
  str_name : string;
  str_base_chain : (string * int) list;
      (** base snapshot files with their sizes in bytes: a shard's
          chain, full snapshot first; the meta snapshot alone *)
  str_base_ok : bool;
      (** the base reads back valid: a shard's whole chain rebuilds to
          its newest root *)
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
    generation, per-stream base snapshot chains and logs (record counts, LSN
    ranges, checksum status), and orphaned files. Reads manifests
    without repairing and logs with [Wal.read ~repair:false]. A
    directory in an older layout is an error, as for {!create_or_open}. *)

val close : t -> unit
(** Flush staged records (graceful shutdown, all durability modes) and
    close every writer. *)
