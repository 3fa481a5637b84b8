(** Framed, checksummed write-ahead log files with group-commit
    staging.

    On-disk record frame (all integers big-endian, via [Wire]):

    {v [u32 len] [u32 checksum] [u64 lsn] [len bytes payload] v}

    where the checksum is the CRC-32C ({!Crypto.Crc32c}) of
    [lsn || payload]. It guards against accidental corruption only;
    the untrusted server is caught by the Merkle root, not by it.
    The payload is opaque at this layer; {!Store} owns the payload
    codecs (including the header record that names each log's stream
    and generation). LSNs are assigned by the caller
    and must be monotonically increasing per run so multi-file logs
    (one per shard plus a meta log) can be merged into a single replay
    order.

    A writer is a staging buffer over an append-only channel: {!stage}
    encodes a frame in memory, {!flush} writes the whole staged batch
    with one channel flush and at most one fsync — the group-commit
    primitive ({!Store}'s durability modes decide the cadence).
    {!append} is stage+flush in one call, the per-op durability path.

    Failure policy on read:
    - a {e torn tail} — a final record whose frame runs past the end of
      the file, or whose checksum fails with nothing after it — is the
      signature of a crash mid-append: the tail is truncated in place
      and reading succeeds with [truncated = true] (and a logged
      warning);
    - a checksum failure on a record with {e more data after it} cannot
      be a torn append: it is silent corruption in the middle of the
      log, and reading fails hard. *)

type writer

val open_writer : string -> writer
(** Open (creating if absent) for append. *)

val stage : ?count:bool -> writer -> lsn:int -> payload:string -> unit
(** Encode one record straight into the staging buffer; nothing reaches
    the OS until {!flush}. Records the [store.wal.appends] counter and the
    volatile [store.wal.append_us] histogram unless [~count:false]
    (used for log-header records, which are framing, not data). *)

val flush : ?fsync:bool -> writer -> int
(** Write the staged batch (one [output_string] + channel flush), then
    fsync when [fsync] — one fsync per batch, however many records it
    held. Returns the number of records flushed; an empty batch is a
    no-op (the previous flush under the same cadence already synced).
    Records the volatile [store.wal.flushes]/[store.wal.fsyncs]
    counters and [store.wal.fsync_us] histogram. *)

val discard : writer -> unit
(** Drop staged records without writing them — how a simulated crash
    models a process dying between stage and flush. *)

val staged_records : writer -> int
val staged_bytes : writer -> int

val size : writer -> int
(** Bytes the file will hold once staged data is flushed — zero for a
    new log, which the store then opens with its header record. *)

val append : ?fsync:bool -> writer -> lsn:int -> payload:string -> unit
(** [stage] + [flush] in one call: the per-op durability path, and
    byte-for-byte what pre-group-commit writers did ([fsync] defaults
    to [false] — the simulator and tests favour speed; the benchmark
    measures both). *)

val close_writer : writer -> unit
(** Flush staged records (no fsync), then close. *)

type read_result = { records : (int * string) list; truncated : bool }
(** [(lsn, payload)] in file order; [truncated] when a torn tail was
    found (and, under [repair], dropped in place). *)

val read : ?repair:bool -> string -> (read_result, string) result
(** Read every record of the file ([Ok { records = []; _ }] when the
    file does not exist — an empty log). [Error] on mid-log
    corruption. With [repair] (the default) a torn tail is truncated
    in place; [~repair:false] only reports it, leaving the file
    untouched — the read-only mode [store-inspect] uses. *)
