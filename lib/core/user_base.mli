(** Plumbing shared by every protocol's user agent: the queue of
    workload intents, the one-transaction-at-a-time lifecycle, trace
    recording and the terminate-on-error behaviour the paper prescribes
    ("the user terminates and reports an error").

    Protocol modules own the verification logic; this module owns
    when a user is allowed to talk to the server. An agent knows no
    network and no simulator: it sends through [send], [broadcast] and
    [alarm], and is driven by its {!agent}'s [handle] and [tick]. *)

type t

val create :
  user:int ->
  trace:Sim.Trace.t ->
  send:(Message.t -> unit) ->
  broadcast:(Message.t -> unit) ->
  alarm:(string -> unit) ->
  t

val user : t -> int
val trace : t -> Sim.Trace.t

val send : t -> Message.t -> unit
val broadcast : t -> Message.t -> unit
(** To the server; to every other user, over the external channel. *)

val enqueue_intent : t -> round:int -> op:Mtree.Vo.op -> unit
(** Schedule an operation the user wants to perform no earlier than
    [round]. *)

val pending_intents : t -> int
val due_intent : t -> round:int -> Mtree.Vo.op option
(** Peek the next intent whose scheduled round has arrived (only when
    no transaction is in flight). *)

val issue : t -> round:int -> piggyback:Message.piggyback list -> bool
(** Pop the due intent (if any), send the query to the server, record
    the query action in the trace. Returns whether a query was sent. *)

val in_flight_op : t -> Mtree.Vo.op option

val note_blocked : t -> round:int -> unit
(** Record one blocked user-round: a due intent exists but protocol
    state (sync session, token turn…) withholds the issue. Feeds the
    [run.blocked_rounds] counter the four-protocol comparison bench
    reports; a no-op when nothing is actually due. *)

type verified = {
  replayed : Mtree.Vo.answer;  (** the answer the replay computed *)
  old_root : string;  (** [M(D)] before the operation *)
  new_root : string;  (** [M(D')] after it *)
  transitions : Mtree.Vo.shard_transition list;  (** per-shard root chain *)
}

val replay : ?answer:Mtree.Vo.answer -> Mtree.Vo.t -> Mtree.Vo.op -> (verified, string) result
(** Replay [op] over the verification object and, given the server's
    claimed [answer], check that it equals the replayed one. [Error]
    carries the alarm text: a VO that cannot replay the operation, or
    an answer the replay contradicts. *)

val verify :
  t -> round:int -> ?answer:Mtree.Vo.answer -> Mtree.Vo.t -> Mtree.Vo.op -> verified option
(** {!replay}, terminating the user with its alarm on [Error] — the
    verified-reply step every verifying agent starts from. *)

val complete :
  t -> round:int -> answer:Mtree.Vo.answer -> ?roots:string * string -> unit -> unit
(** Record the response action for the in-flight transaction, with the
    (old, new) root digests the user verified, if any.
    @raise Invalid_argument if no transaction is in flight. *)

val terminated : t -> bool

val terminate : t -> round:int -> reason:string -> unit
(** Raise the alarm and stop participating. Idempotent. *)

val set_response_timeout : t -> rounds:int option -> unit
(** Enable availability-violation detection: the paper's model assumes
    b*-bounded transaction time, so a partially-synchronous user that
    waits longer than the bound knows the server is withholding its
    response. [None] (the default) disables the check, matching the
    bare paper protocols. *)

val check_timeout : t -> round:int -> unit
(** To be called from the agent's activation hook: terminates with an
    availability alarm if the in-flight transaction has exceeded the
    response timeout. *)

type agent = {
  base : t;
  handle : round:int -> src:Sim.Id.t -> Message.t -> unit;  (** a message, in its round *)
  tick : round:int -> unit;  (** the user's activation, after the round's messages *)
}

val on_engine :
  Message.t Sim.Engine.t ->
  user:int ->
  agent:('a -> agent) ->
  (send:(Message.t -> unit) -> broadcast:(Message.t -> unit) -> alarm:(string -> unit) -> 'a) ->
  'a
(** The simulator binding: [on_engine engine ~user ~agent:P.agent
    (P.create config ~user ~trace)] is the agent registered, sending,
    broadcasting and alarming as [User user]. *)
