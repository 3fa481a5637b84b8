(** Verification objects — the [v(Q, D)] of the paper.

    A verification object for query [Q] on database [D] is a pruned
    copy of the Merkle B⁺-tree: the nodes [Q] touches are materialised
    and every other subtree is a {!Node.Stub} carrying only its digest.
    The client then {e replays} [Q] on the pruned tree:

    + recompute the pruned tree's root digest and compare it with the
      root digest [M(D)] the client already trusts — this
      authenticates everything the server disclosed;
    + run the ordinary B⁺-tree algorithm on the pruned tree to obtain
      the answer and, for updates, the new root digest [M(Q(D))].

    If the server lied about the answer, the replayed answer differs;
    if it pruned too aggressively, replay hits a stub and verification
    fails. Both the O(log n) size claim and the "recompute old and new
    root from O(log n) digests" behaviour of Section 4.1 fall out
    directly, and are measured by the `fig2-merkle-path` experiment. *)

type op =
  | Get of string
  | Set of string * string
  | Set_many of (string * string) list
      (** atomic multi-key update — a CVS commit touching several
          files; replayed as one state transition with a single
          (old, new) root pair *)
  | Remove of string
  | Range of string * string  (** inclusive bounds *)

val encode_op : Wire.W.t -> op -> unit
(** The one binary encoding of an {!op}: a u8 tag (0 [Get], 1 [Set],
    2 [Set_many], 3 [Remove], 4 [Range]), then the length-framed keys
    and values. Frozen: the store's WAL op records and the network
    codec's frames both carry it. *)

val decode_op : Wire.R.t -> op
(** Inverse of {!encode_op}; fails on an unknown tag or a short read,
    so run it under [Wire.decode]. *)

type answer =
  | Value of string option  (** for [Get] *)
  | Updated  (** for [Set] / [Remove] *)
  | Entries of (string * string) list  (** for [Range] *)

type t

type error =
  | Insufficient (** replay needed a pruned subtree: malformed VO *)
  | Malformed of string  (** undecodable or ill-typed VO *)

val pp_error : Format.formatter -> error -> unit

val generate : Merkle_btree.t -> op -> t
(** Server side: prune the current tree around [op]'s access path —
    the union of paths for [Set_many] — plus one-level-deep siblings
    for [Remove], which may rebalance. *)

val generate_sharded :
  boundaries:string array -> trees:Merkle_btree.t array -> op -> t
(** Server side, sharded store: one pruned proof per shard the
    operation touches (routed by [boundaries], which must have one
    fewer element than [trees]); untouched shards collapse to a stub of
    their root digest. The VO's root is the digest of the one-level
    composition node over the shard roots — the digest a sharded
    server signs and exchanges. Requires at least two shards (one
    shard is just {!generate}).
    @raise Invalid_argument on a boundary/shard count mismatch. *)

val apply : t -> op -> (answer * string * string, error) result
(** Client side: [apply vo op] replays [op] and returns
    [(answer, old_root_digest, new_root_digest)]. For read-only ops the
    two digests are equal. The caller is responsible for comparing
    [old_root_digest] with its trusted [M(D)]. On a sharded VO the
    replay routes the operation to its owning shards, replays each part
    with the flat algorithms, and recomposes the shard roots — so a
    shard-root split stays inside the shard, exactly as on the
    server. *)

type shard_transition = { shard : int; old_digest : string; new_digest : string }
(** One shard's root movement under an operation: the shard index and
    its (pre, post) subtree digests. For read-only operations the two
    digests are equal. *)

val apply_detail : t -> op -> (answer * string * string * shard_transition list, error) result
(** Like {!apply}, additionally reporting the per-shard root chain:
    the transition of every shard the operation touches, ascending.
    On a flat VO the whole tree is shard [0]. Protocol IV's wait-free
    verifier witnesses these per-shard chains instead of serialising on
    the composed root. *)

val branching : t -> int
val size_bytes : t -> int
(** Size of the wire encoding — the paper's "O(log n) digests" claim is
    measured in these bytes. *)

val stub_count : t -> int
(** Number of pruned subtrees (each contributes one 32-byte digest). *)

val materialized_nodes : t -> int

val encode : t -> string
(** Wire format. Digests of materialised nodes are {e not} transmitted;
    {!decode} recomputes them, so a tampered VO simply fails the root
    comparison. *)

val decode : string -> t option

val of_node : branching:int -> Node.t -> t
(** Wrap an existing (possibly pruned) node as a flat VO — used by
    tests and by adversaries that craft VOs directly. *)

val root_node : t -> Node.t
(** The proof tree; for a sharded VO, the one-level composition node
    over the shard proofs (whose digest is the VO's root). *)

val is_flat : t -> bool
(** [true] for a single-tree proof — what a 1-shard daemon emits; the
    cluster router rejects anything else on a shard link. *)

val compose_root : string array -> string array -> string
(** [compose_root boundaries shard_roots] — digest of the composition
    node; shared with the sharded store so server and client cannot
    disagree on the extra hash level by construction. *)

val shard_mask : string array -> op -> int
(** Which shards (by [boundaries] routing) [op] touches, as a bitmask
    (bit [i] set iff shard [i] is touched) — the allocation-free form
    the sharded replay and Protocol IV's per-op routing use.
    @raise Invalid_argument beyond 61 shards (one immediate int). *)

val shards_for : string array -> op -> int list
(** Which shards (by [boundaries] routing) [op] touches, ascending —
    list form of {!shard_mask}, exported for the cluster router, which
    must fan an op to the same owning shard daemons. *)

val sub_op_for : string array -> int -> op -> op
(** Restrict [op] to the keys shard [i] owns (only [Set_many] actually
    shrinks; every other op is already single-path or replayed
    per-shard as-is). *)

val of_parts : branching:int -> boundaries:string array -> parts:Node.t array -> t
(** Compose a sharded VO from per-shard proof nodes (owning shards'
    pruned proofs, other shards as {!Node.Stub}s of their roots).
    Byte-identical to {!generate_sharded} over the same tree states —
    this is how the cluster router rebuilds the client-visible proof
    from a shard daemon's flat VO. Requires at least two parts.
    @raise Invalid_argument on a boundary/part count mismatch. *)
