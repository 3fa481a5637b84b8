(** Malicious-server strategies.

    Each strategy realises one of the violation classes named in the
    paper's introduction, while keeping every individual response
    {e locally} plausible — verification objects are always internally
    consistent with the state the server chooses to show, so naive
    per-response checking passes and the protocols' cross-operation
    machinery (signatures, counters, XOR registers, epochs) is what
    must catch the lie.

    - {!Tamper_value} — single-user {e integrity} violation: the server
      applies a corrupted write while showing the user a clean one.
    - {!Drop_update} — single-user {e availability} violation: the
      server acknowledges an update, then reverts it.
    - {!Fork} — multi-user {e availability} violation, the partition
      attack of Section 3 / Figure 1: from a chosen operation on, users
      in group A and the remaining users see divergent copies.
    - {!Rollback} — the replay attack behind Figure 3: the server
      rewinds to an earlier state and serves subsequent operations from
      the past, re-issuing state/counter pairs.

    Operations are counted from 0; [at_op = c] means the strategy fires
    on the operation that would be the server's [c]-th. *)

type t =
  | Honest
  | Tamper_value of { at_op : int }
  | Drop_update of { at_op : int }
  | Fork of { at_op : int; group_a : int list }
      (** [group_a] keeps seeing the true branch; everyone else is moved
          to a frozen copy that evolves independently. *)
  | Rollback of { at_op : int; depth : int; repeat : int }
      (** At operation [at_op], rewind [depth] operations and continue
          from there; with [repeat > 1], the rewind is re-applied for
          each of the next [repeat] operations — serving the same past
          state to several users, the exact replay shape of Figure 3
          (all transition-graph degrees stay even). *)
  | Stall of { at_op : int }
      (** Swallow operation [at_op]'s query and never answer it — the
          crudest availability violation. The paper's model assumes
          b*-bounded transaction time, so partially-synchronous users
          detect this with a local timeout (see
          {!User_base.set_response_timeout}). *)
  | Freeze_epoch of { at_epoch : int }
      (** Against Protocol III: stop advancing the announced epoch once
          it reaches [at_epoch], postponing the audits indefinitely.
          Caught by the users' epoch-progress cross-check against their
          local clocks (partial synchrony). *)
  | Bitrot of { at_op : int }
      (** Silent storage corruption rather than a lie: after serving
          operation [at_op] honestly, flip bytes in one stored value
          while keeping every cached digest — so all subsequent digest
          arithmetic (and therefore every protocol) stays consistent
          with the {e claimed} bytes. Undetectable by the protocols by
          construction; the runtime sanitizers
          ({!Mtree.Merkle_btree.check_invariants} via [--sanitize])
          catch it by recomputing digests from the raw values. *)
  | Crash of { at_round : int }
      (** An {e honest} failure, not an attack: at simulation round
          [at_round] the server process dies and restarts from its
          durable store ({!Store}), replaying the latest snapshot plus
          the WAL tail. Recovery is byte-identical, so every protocol
          must stay quiet — this is the control experiment for
          [Rollback_crash]. Requires the server to run with a store. *)
  | Rollback_crash of { at_round : int }
      (** The storage-level replay attack: at round [at_round] the
          server crashes and "recovers" from the {e previous} snapshot
          generation, discarding the WAL tail — indistinguishable, at
          the storage layer, from an honest crash. The rewound
          state/counter re-issues old (root, ctr) pairs, which is
          exactly what Protocols I–III's counter/signature machinery
          must flag. Requires the server to run with a store. *)
  | Torn_manifest of { at_round : int; wreck : bool }
      (** A crash that tears the store's MANIFEST mid-write before the
          restart. With [wreck = false] the backup copy survives and
          recovery must repair silently — every protocol stays quiet,
          like {!Crash}. With [wreck = true] the backup is torn too:
          recovery must fail loudly (server alarm + halt) rather than
          serve a half-initialized shard map. Requires a store. *)
  | Checkpoint_crash of { at_round : int }
      (** An honest crash striking {e mid-checkpoint}: at round
          [at_round] the server dies after the next generation's first
          snapshot files were written (one complete, one half-written
          .tmp) but before bases/CURRENT published the generation.
          Recovery must land on the old generation, ignore the
          leftovers, and replay to a byte-identical state — every
          protocol stays quiet, like {!Crash}. Requires a store. *)

val name : t -> string

val violation_op : t -> int option
(** The operation index at which the violation first occurs, [None]
    for [Honest]. For detection-delay measurements. *)

val violation_round : t -> int option
(** For round-indexed strategies ([Rollback_crash], and [Torn_manifest]
    with [wreck]): the simulation round at which the violation occurs.
    [None] elsewhere — including [Crash] and the repairable
    [Torn_manifest], which are honest and must not be flagged at
    all. *)
