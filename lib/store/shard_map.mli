(** Static key-range partitioning for the sharded store.

    A shard map fixes the number of shards and the [n-1] boundary keys
    at store-creation time; it is persisted in the store MANIFEST so
    every reopen (and every recovery) routes keys identically. Routing
    uses the same comparison as B⁺-tree child routing
    ({!Mtree.Node.child_index}): shard [i] owns keys in
    [boundaries.(i-1), boundaries.(i)) (half-open, boundary key goes
    right). *)

type t

val create : branching:int -> shards:int -> keys:string list -> t
(** Pick boundaries from the sorted distinct [keys] at even quantiles;
    when there are too few distinct keys to separate [shards] ranges,
    fall back to an even split of the single-byte prefix space, so an
    (almost) empty store still has a fixed, deterministic partition.
    @raise Invalid_argument if [shards] is outside 1..{!Mtree.Vo.max_shards}
    or [branching < 4]. *)

val branching : t -> int
val shards : t -> int

val boundaries : t -> string array
(** [shards - 1] strictly increasing separator keys ([||] for one
    shard). *)

val route : t -> string -> int
(** Owning shard of a key. *)

val split : t -> (string * 'v) list -> (string * 'v) list array
(** Each shard's bindings, in their original order: element [i] holds
    the bindings whose key shard [i] owns. *)

val encode : t -> string
(** MANIFEST payload (via [Wire]). *)

val decode : string -> t option
