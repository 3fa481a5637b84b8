(** A sharded Merkle B⁺-tree database: N independent trees partitioned
    by a {!Shard_map}, presenting the same persistent-value interface
    as a single {!Mtree.Merkle_btree}.

    The signed/exchanged root digest is, for N ≥ 2, the digest of a
    one-level composition node over the sorted vector of shard roots
    ({!Mtree.Vo.compose_root} — one extra hash level); for N = 1 it is
    exactly the single tree's root, so a one-shard store is
    byte-identical to the unsharded server (pinned by tests).

    Values are persistent: {!apply} returns a new database and never
    mutates — which keeps fork/rollback adversaries and O(1) history
    snapshots as cheap as they were unsharded. *)

type t

val create : ?branching:int -> shards:int -> (string * string) list -> t
(** Partition boundaries are fixed here, from the initial keys (see
    {!Shard_map.create}), and never move. *)

val of_map : Shard_map.t -> (string * string) list -> t
(** Build under an existing (recovered) shard map — reopen/recovery
    must route exactly as the run that wrote the MANIFEST did. *)

val of_trees : Shard_map.t -> Mtree.Merkle_btree.t array -> t
(** Recovery: adopt per-shard trees loaded from snapshots.
    @raise Invalid_argument on a shard-count mismatch. *)

val map : t -> Shard_map.t
val shard_count : t -> int
val trees : t -> Mtree.Merkle_btree.t array
val route : t -> string -> int
val size : t -> int

val root_digest : t -> string
(** The composed root (the flat root for one shard). *)

val shard_roots : t -> string array

val apply : t -> Mtree.Vo.op -> t * Mtree.Vo.answer
(** Trusted execution of one operation, routed to its owning shard(s):
    answer semantics are identical to the unsharded
    [Sim.Oracle.trusted_answer] (per-shard range results concatenate in
    shard order, which is key order). *)

val generate_vo : t -> Mtree.Vo.op -> Mtree.Vo.t
(** Flat VO for one shard; {!Mtree.Vo.generate_sharded} otherwise. *)

val to_alist : t -> (string * string) list
(** All bindings in key order (shards partition the key space in
    order). *)

val check_invariants : t -> (unit, string) result
(** Per-shard {!Mtree.Merkle_btree.check_invariants} plus the routing
    invariant: every key lives in the shard the map routes it to. *)

val debug_bitrot : t -> t
(** Corrupt one stored value in the first non-empty shard while leaving
    cached digests untouched (see {!Mtree.Merkle_btree.debug_bitrot});
    the database unchanged when every shard is empty. *)
