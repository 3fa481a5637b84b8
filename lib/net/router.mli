(** The cluster router: the one process clients of a sharded
    deployment talk to.

    N shard daemons ([tcvs serve --shard-id i --shard-count N]) each
    serve a flat Merkle tree over their slice of the seeded key space.
    The router accepts ordinary clients with the ordinary codec
    handshake, fans every operation out to its owning shards as
    {!Codec.Shard_link} sub-requests, verifies each shard's flat VO
    against its per-shard serial root chain, and composes the
    client-visible proof ({!Mtree.Vo.of_parts} over the owning shards'
    proof subtrees plus stubs of the idle shards' serial roots) — byte
    for byte what a single daemon running [--shards N] would have
    emitted for the same serialized history.

    Lockstep rounds end in a two-phase trusted commit: once the
    round's operations are composed, the router sends
    {!Codec.Prepare} to every shard, collects a {!Codec.Shard_root}
    vote from each (alarming if any vote's root leaves the serial
    chain or its store generation regresses), then publishes the
    composed root with {!Codec.Commit} and only then releases the
    round's replies. A barrier that cannot complete within 20
    re-prepares (0.5 s apart) raises the typed [barrier-wedged] alarm
    and ends the session — a stale composed root is never served.

    Exactly-once spans both hops: the router keeps the client-facing
    dedup window in memory and rides each shard daemon's persistent
    dedup on the inner hop by re-sending in-flight sub-requests with
    their original sequence numbers across reconnects. Trace contexts
    are forwarded verbatim, so one span covers
    client → router → shard in the joined timeline.

    The client-facing side — handshake, dedup, relay, round clock and
    the serving loop — is {!Front}, shared with {!Daemon}; this module
    keeps the composition, the barrier and the shard links: watches of
    the same {!Loop.turn}, whose Welcome is a link frame due in 5 s. *)

type config = {
  listen_port : int;  (** 0 picks an ephemeral port *)
  port_file : string option;  (** write the bound port here (tmp+rename) *)
  shard_addrs : (string * int) array;  (** shard [i]'s daemon address *)
  branching : int;
  files : int;  (** seeded key count — must match the shard daemons *)
  users : int;
  max_conns : int;
  journal : string option;  (** JSONL span journal path *)
  admin_port : int option;  (** read-only admin socket; [Some 0] = ephemeral *)
  admin_port_file : string option;
}

val default_config : shard_addrs:(string * int) array -> config

val run : config -> (unit, string) result
(** Serve until the session drains, an alarm fires, or SIGTERM/SIGINT
    requests a drain. Returns [Error _] only for setup failures
    (binding the listen socket, an empty shard list, an unresolvable
    shard host); everything after setup is reported through the
    journal, the logs and the session's end-of-round alarms. *)
