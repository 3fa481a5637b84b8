(** The Merkle B⁺-tree of Section 4.1: a B⁺-tree whose every node
    carries a digest, so the root digest [M(D)] commits to the whole
    database and any read/update can be verified from an O(log n)
    verification object ({!Vo}).

    The structure is persistent: operations return a new tree and never
    mutate the old one. This is what makes fork-style attacks cheap to
    express in the simulator — a malicious server simply retains
    several versions — and it gives honest servers O(1) snapshots for
    auditing. *)

type t

val branching : t -> int
val root_digest : t -> string
(** [M(D)] in the paper's notation. *)

val size : t -> int
(** Number of (key, value) entries. *)

val find : t -> string -> string option
val mem : t -> string -> bool

val set : t -> key:string -> value:string -> t
(** Insert or overwrite. *)

val set_many : t -> (string * string) list -> t
(** Path-sharing batch insert: produces exactly the tree (and root
    digest) of [List.fold_left (fun t (key, value) -> set t ~key
    ~value) t entries], but re-hashes each touched node once per batch
    instead of once per key. *)

val remove : t -> string -> t
(** Returns the tree unchanged if the key is absent. *)

val range : t -> lo:string -> hi:string -> (string * string) list
val to_alist : t -> (string * string) list

val of_sorted_array : ?branching:int -> (string * string) array -> t
(** Bottom-up bulk load from strictly key-sorted bindings: O(n) total
    hashing, and node-for-node identical to inserting the bindings in
    ascending order (so the root digest matches the incremental
    build).
    @raise Invalid_argument on unsorted/duplicate keys or
    [branching < 4]. *)

val of_alist : ?branching:int -> (string * string) list -> t
(** Sorts (later bindings win, matching a fold of {!set}) and bulk
    loads via {!of_sorted_array}. *)

val of_root : ?branching:int -> Node.t -> t
(** Wrap an existing node as a tree. A tree's shape depends on its
    insertion history, so deserialisers that must reproduce the exact
    live root digest (e.g. the store's shard snapshots) rebuild the
    stored structure node-for-node and wrap it here; bulk-loading the
    same bindings would generally yield a different shape and digest.
    The node must be stub-free.
    @raise Insufficient_proof on a tree containing stubs (entry count
    is taken from the structure). *)

val keys : t -> string list

val check_invariants : t -> (unit, string) result
(** Structural and cryptographic validation; used by the test suite
    and, when armed, the runtime sanitizers. Recomputes every digest
    from the raw bytes, so it catches corruption that the cached digest
    arithmetic silently carries along. *)

val debug_bitrot : t -> t
(** Corrupt one stored value while leaving all digests (including the
    entry's cached value digest) untouched — the stale-cache failure
    mode that is invisible to digest arithmetic and to clients, and
    that only {!check_invariants} detects. For the [Bitrot] adversary
    and the sanitizer tests; never call it on a database you keep. *)

val depth : t -> int
val root : t -> Node.t
(** The underlying node — consumed by {!Vo} to build proofs. *)
