(** Internal node representation and algorithms of the Merkle B⁺-tree.

    This module is the engine shared by {!Merkle_btree} (the server's
    full tree) and {!Vo} (the client's pruned verification objects): a
    pruned tree is an ordinary tree in which unexplored subtrees are
    [Stub]s carrying only their digest. Every algorithm below works on
    both; descending into a [Stub] raises {!Insufficient_proof}, which
    on the client side means the server supplied a malformed
    verification object.

    Digests: a leaf's digest commits to its sorted (key, hash-of-value)
    sequence; an internal node's digest commits to its separator keys
    and child digests (all length-framed, so the encoding is
    injective). This is exactly the construction of Figure 2 of the
    paper, generalised from the figure's single path to the whole
    tree. *)

exception Insufficient_proof

type entry = { key : string; value : string; vdigest : string }
(** [vdigest] caches [Sha256.digest value] — the quantity leaf digests
    actually commit to — so rebuilding a leaf hashes 32 bytes per
    entry instead of every full value. Build entries with {!entry} to
    keep the cache consistent; {!check_invariants} verifies it. *)

val entry : key:string -> value:string -> entry
(** Smart constructor: computes and caches the value digest. *)

type t =
  | Leaf of { entries : entry array; digest : string }
  | Node of { keys : string array; children : t array; digest : string }
  | Stub of string
      (** An off-path subtree represented only by its digest. *)

val digest : t -> string
val empty_leaf : t

val make_leaf : entry array -> t
(** Smart constructor: computes and caches the digest. Entries must be
    sorted by key (checked by assertion). *)

val make_node : string array -> t array -> t
(** Smart constructor for internal nodes; [keys] has one fewer element
    than [children]. *)

val child_index : string array -> string -> int
(** Routing: index of the child of a node with separator [keys] that
    covers [key]. *)

(** Result of an insert/update at some subtree: either the subtree was
    rebuilt in place, or it overflowed and split into two with a
    separator key. *)
type insert_result = Ok_one of t | Split of t * string * t

val find : t -> string -> string option
(** @raise Insufficient_proof if the search path crosses a [Stub]. *)

val insert : branching:int -> t -> key:string -> value:string -> insert_result
(** Insert or overwrite. *)

val insert_many : branching:int -> t -> (string * string) list -> t
(** Batched insert with path sharing: structurally identical (and
    therefore digest-identical) to folding {!insert} over the list in
    order — root splits included — but every node touched by the batch
    is re-hashed once at the end instead of once per key. Works on
    pruned trees; @raise Insufficient_proof when a batch key's path
    crosses a [Stub]. *)

val of_sorted_entries : branching:int -> entry array -> t
(** Bottom-up bulk build from strictly-sorted entries: O(n) hashing
    (each node hashed exactly once) instead of the O(n log n) repeated
    root-path rebuilds of sequential insertion, yet node-for-node
    identical to the tree obtained by inserting the entries in
    ascending order.
    @raise Invalid_argument if keys are not strictly increasing. *)

val delete : branching:int -> t -> key:string -> t option
(** [delete ~branching t ~key] is [None] if [key] is absent, [Some t']
    otherwise. The returned root may be underfull or have a single
    child; {!collapse_root} normalises it. *)

val collapse_root : t -> t
(** Replace a one-child internal root by its child (repeatedly). *)

val range : t -> lo:string -> hi:string -> (string * string) list
(** Bindings with [lo <= key <= hi], in key order; built with a single
    accumulator pass (no quadratic list appends). *)

val entry_count : t -> int
(** @raise Insufficient_proof on a tree containing stubs. *)

val to_alist : t -> (string * string) list
(** All entries in key order. @raise Insufficient_proof on stubs. *)

val min_leaf_entries : branching:int -> int
val max_leaf_entries : branching:int -> int
val min_children : branching:int -> int
val max_children : branching:int -> int

val check_invariants : branching:int -> t -> (unit, string) result
(** Structural validation (for tests): sortedness, separator bounds,
    occupancy bounds (root exempt), uniform leaf depth, digest
    integrity at every node, and consistency of every cached entry
    value digest. Stubs are accepted as opaque. *)

val depth : t -> int
(** Length of the leftmost root-to-leaf path (stub counts as depth 0
    below itself). *)
