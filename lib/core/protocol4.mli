(** Protocol IV: wait-free verification for commutative operations.

    Protocols I–III serialize verification against one global root —
    the style "Fork Sequential Consistency is Blocking" (PAPERS.md)
    proves must block under concurrency. Following Cachin–Ohrimenko
    ("Verifying the Consistency of Remote Untrusted Services with
    Commutative Operations", PAPERS.md), this protocol lets clients on
    disjoint key ranges verify without waiting: operations on
    different shards of the sharded Merkle tree commute, so their
    verification never has to meet.

    Each user keeps one {e witness ring} per shard it has seen: the
    last [witness_cap] (position, root) pairs, where position is the
    global operation counter at which the shard had that root
    (recovered loss-free across honest crashes, so positions stay
    comparable). Every verified response contributes the pre- and
    post-root of each touched shard, derived from the VO replay
    ({!Mtree.Vo.apply_detail}); witnesses are broadcast over the
    external channel in batches of [announce_every]
    ({!Message.Shard_witness}) and merged by every peer.

    The reconciliation rule is a single local check: two witnesses for
    the same (shard, position) with different roots are a proof that
    the server showed two histories of operations that do {e not}
    commute — a fork on conflicting operations — and raise a typed
    ["protocol-4 fork detected"] alarm. Counter regressions
    (rollback) and a forged initial state raise their own typed
    alarms. Detection bound: a fork on a shared shard is caught at
    the first conflicting access, plus at most one announce batch and
    one broadcast round when the colliding accesses belong to
    different users. Forks on permanently disjoint shards are, by the
    commutativity argument, not violations of any client's view.

    Issuing is unconditional — there is no sync session, signature
    round or token turn — so [run.blocked_rounds] stays at zero, the
    measurable claim the four-protocol bench comparison reports. *)

type config = {
  n : int;  (** number of users (kept for the uniform protocol shape) *)
  initial_root : string;  (** trusted M(D₀) — checked against ctr = 0 responses *)
  announce_every : int;  (** witness batch size before a broadcast *)
  witness_cap : int;
      (** per-shard ring capacity; bounds memory and the rollback
          depth a single user can catch on its own *)
}

val default_config : n:int -> initial_root:string -> config
(** [announce_every = 4], [witness_cap = 64]. *)

type t

val create :
  config ->
  user:int ->
  engine:Message.t Sim.Engine.t ->
  trace:Sim.Trace.t ->
  t

val base : t -> User_base.t

(** {2 Runtime sanitizer}

    Validates the ring invariant the collision rule relies on: each
    ring is a partial function position → root (no duplicate
    positions) with well-formed 32-byte digests. Runs after every
    witness update while {!Sanitize.enabled}; a violation terminates
    the user with an alarm. *)

val check_witnesses : t -> (unit, string) result

val debug_corrupt_witness : t -> unit
(** Plant two contradictory entries for one position in shard 0's ring
    — sanitizer test hook. *)
