(** Checksummed snapshot files, written atomically (tmp + rename).

    On-disk layout: an 8-byte magic ["TCVSSNP2"], the big-endian u32
    CRC-32C ({!Crypto.Crc32c}) of the payload, then the payload. The
    payload codecs (shard entry arrays, bookkeeping meta) live in
    {!Store}; this module only guarantees that a snapshot read back is
    exactly the snapshot written, or an error. The checksum catches
    accidental corruption; a shard snapshot's contents are pinned by
    the root digest {!Store} stores in it. *)

val write : string -> payload:string -> unit
(** Write to [path ^ ".tmp"], then rename over [path] — a crash between
    the two leaves the previous snapshot intact. Records
    [store.snapshot.writes] and the volatile [store.snapshot.write_us]
    histogram. *)

val read : string -> (string, string) result
(** The payload, or [Error] when the file is missing, the magic is
    wrong, or the checksum fails. *)

val older_format : string -> bool
(** [older_format path]: [path] holds a snapshot an earlier version
    wrote ([TCVSSNP1], whose checksum was an 8-byte SHA-256 prefix).
    Reads the magic and nothing else. *)
