(** Recorded runs — the paper's query/response action traces.

    A {!transaction} pairs the query action (a user sending an
    operation to the server) with its response action, as in Section
    2.1. The trace of a run is what Definition 2.1's deviation relation
    is evaluated over: {!Oracle} replays it against a trusted executor
    to decide, as ground truth, whether the untrusted run deviates from
    every trusted run. *)

type transaction = {
  seq : int;  (** global issue order (one query action per round) *)
  user : int;
  op : Mtree.Vo.op;
  issued_round : int;
  completed_round : int option;  (** [None] while in flight / dropped *)
  answer : Mtree.Vo.answer option;  (** as reported by the server *)
  roots : (string * string) option;
      (** (old, new) root digests the user computed from the
          verification object — the state transition this transaction
          claims; [None] when the user did not verify *)
}

type t

val create : unit -> t

val issue : t -> user:int -> op:Mtree.Vo.op -> round:int -> int
(** Record a query action; returns the transaction's [seq] handle. *)

val complete :
  t -> seq:int -> round:int -> answer:Mtree.Vo.answer -> ?roots:string * string -> unit -> unit
(** Record the matching response action.
    @raise Invalid_argument on unknown or already-completed [seq]. *)

val transactions : t -> transaction list
(** In issue order. *)

val completed : t -> transaction list
val count : t -> int

val completed_after : t -> round:int -> user:int -> int
(** Number of transactions by [user] issued after [round] that have
    completed — the quantity bounded by k-bounded deviation
    detection. *)
