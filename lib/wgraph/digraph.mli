(** Directed multigraphs over string-labelled vertices.

    Protocol II's correctness argument (Lemma 4.1) views the states of
    the database as vertices — labels are the hashes
    h(M(D) ‖ ctr ‖ user) — and every verified transition as an edge.
    This module provides the graph and the exact property checks of the
    lemma; the `fig3-replay` experiment builds the paper's Figure 3
    graph with it and shows where the untagged scheme breaks down. *)

type t

val empty : t
val add_vertex : t -> string -> t
(** Idempotent. *)

val add_edge : t -> src:string -> dst:string -> t
(** Adds both endpoints as needed. Parallel edges are kept (the Figure
    3 attack depends on multigraph behaviour). *)

val vertices : t -> string list
(** Sorted. *)

val vertex_count : t -> int
val edge_count : t -> int
val in_degree : t -> string -> int
val out_degree : t -> string -> int
val total_degree : t -> string -> int
val successors : t -> string -> string list

val has_cycle : t -> bool
(** Directed cycle detection (self-loops and parallel edges included). *)

val is_directed_path : t -> bool
(** Brute-force check that the whole graph is one simple directed path
    covering every vertex exactly once — the conclusion of Lemma 4.1,
    used to cross-validate {!Lemma41.check} in tests. Vacuously true
    for the empty graph; a single vertex with no edges is a path. *)

(** Lemma 4.1's four premises, reported individually so experiments can
    show which one an attack violates. *)
module Lemma41 : sig
  type failure =
    | Isolated_vertex of string  (** violates P1 *)
    | In_degree_exceeded of string  (** violates P2 *)
    | Cycle  (** violates P3 *)
    | Odd_degree_count of int  (** violates P4: not exactly two *)
    | No_source  (** violates P4: neither odd vertex has indegree 0 *)

  val check : t -> (unit, failure) result
  (** [Ok ()] iff P1–P4 all hold, which by the lemma implies the graph
      is a directed path. *)

  val pp_failure : Format.formatter -> failure -> unit
end
