(** The Trusted-CVS server as a standalone TCP daemon.

    One process, one [Unix.select] loop ({!Front.serve}), no threads.
    The client-facing protocol — handshake, exactly-once dedup, relay,
    round clock — is {!Front}'s; this module is the engine/store bridge
    and the shard side of the cluster barrier. The daemon embeds
    the existing {!Tcvs.Server} agent in a private simulator engine and
    bridges it to the network: client [Request] frames are injected as
    engine messages, the engine is stepped, and captured server
    responses go back out as [Reply] frames — so WAL durability,
    sharding, crash recovery and every adversary hook work unchanged.

    Two serving modes, never mixed on one daemon:

    - {e Lockstep}: the daemon is the round clock for a distributed
      protocol session. Each round it sends [Tick] to every client,
      collects their frames until all have answered [Tick_done], then
      steps the engine twice (one step delivers requests to the server,
      the next delivers its responses back to the capture stubs).
      User-to-user broadcasts arrive as [Publish] frames and are
      relayed as [Deliver]s; a [Publish] is only acknowledged once
      {e every} recipient has acknowledged its [Deliver], so the
      external channel stays reliable end-to-end across daemon crashes
      (receivers deduplicate on [(src, sseq)]).

    - {e Free}: bench clients; each [Request] is executed on arrival.

    A third mode, {e shard daemon} ([shard_id = Some i]), serves one
    shard of a [shard_count]-way cluster behind {!Router}: a single
    [Shard_link] connection from the router, requests executed on
    arrival over a 1-shard store holding only the keys the cluster's
    shard map routes to shard [i], plus the prepare/commit round
    barrier ([Prepare] → flush → [Shard_root] vote; [Commit] journals
    the published composed root). Unlike [Free], the dedup state
    survives shard-link reconnects — exactly-once holds across both
    router reconnects and shard crashes.

    Exactly-once across restarts: the network seq of each executed
    query rides in the op's WAL records ({!Store.declare_origin}) and
    the encoded reply is durably cached ({!Store.log_reply}), so a
    retransmitted request after a [kill -9] gets the cached reply
    instead of a second execution. The unavoidable residue — op logged,
    daemon died before caching the reply — surfaces as a loud
    [Lost_reply] error frame, never a silent re-execution. *)

type config = {
  listen_port : int;  (** 0 picks an ephemeral port *)
  port_file : string option;
      (** written (tmp+rename) with the bound port once listening *)
  store_dir : string option;
      (** durable store; resumed in place when it already exists *)
  shards : int;
  branching : int;
  files : int;  (** initial database: {!Tcvs.Harness.initial_files} *)
  protocol : Tcvs.Harness.protocol;
  users : int;  (** lockstep session size / max free client id + 1 *)
  seed : string;  (** must match the clients' — PKI + workload *)
  adversary : Tcvs.Adversary.t;
  max_conns : int;
  checkpoint_every : int;
  durability : Store.durability;
      (** WAL flush cadence. {!Store.Per_op} (the default) keeps
          [kill -9] at any instant loss-free for acknowledged requests;
          {!Store.Per_round} group-commits each tick — everything a
          tick staged becomes durable together at [finish_round],
          before the next [Tick] is announced. *)
  journal : string option;
      (** when set, span events (daemon.dispatch / daemon.dedup /
          daemon.reply / daemon.flush) are appended to this JSONL file
          for [tcvs_cli trace-join] *)
  admin_port : int option;
      (** when set, a second loopback listener serving read-only JSON
          snapshots: accept → one ["tcvs-admin/1"] document (round,
          per-connection I/O gauges, live registry including volatile
          metrics) → close. [Some 0] picks an ephemeral port. *)
  admin_port_file : string option;
      (** written (tmp+rename) with the bound admin port *)
  shard_id : int option;
      (** [Some i]: serve only shard [i] of a [shard_count]-way cluster
          partition (computed from the full [files] key list, exactly
          as a single-daemon [--shards shard_count] run would), behind
          a router [Shard_link]. Forces one internal shard and one
          engine user. *)
  shard_count : int;  (** cluster width; only read when [shard_id] is set *)
}

val default_config : config
(** Port 0, no store, 1 shard, branching 8, 32 files, protocol II
    (k=8), 4 users, honest adversary, 64 connections. *)

val run : config -> (unit, string) result
(** Serve until the lockstep session ends, or until SIGTERM/SIGINT —
    which triggers a graceful drain: every connected client gets a
    [Session_end], buffers are flushed, then the daemon exits. *)
