(** The synchronisation round of Protocols I and II, driven end to end:
    when a session starts, when a user reports, the verdicts, how a
    session resolves or fails, the sync timeout and the
    [syncs_completed] / [sync_failures] / [sync_rounds] metrics. A
    protocol supplies only its report, its success predicate, the
    prefix a successful session confirms and what a failure means.

    A session starts when a user's trigger fires ({!op_completed}) or
    when the first message of it arrives. Each user broadcasts its
    report once it has no transaction in flight and issues nothing
    while the session is unresolved. Holding all [n] reports, a user
    broadcasts its verdict; holding all [n] verdicts, it resolves the
    session: successfully if any user reported success, otherwise the
    server has been caught (Protocol I/II synchronisation step: "if no
    user broadcasts success they terminate and report an error").
    Overlapping starts of one session coalesce.

    Sessions are numbered from 0 and every sync message carries its
    session's number. A message for a later session is held until the
    current one resolves and is never merged into it; a message for a
    session already resolved here is dropped. Only the next session
    can be ahead: a peer enters session [N + 2] only after this user's
    verdict of [N + 1]. *)

type 'report t

type 'report protocol = {
  report : unit -> 'report;  (** this user's report, taken once it is idle *)
  message : session:int -> 'report -> Message.t;  (** the report on the wire *)
  read : Message.t -> (int * int * 'report) option;
      (** [(session, reporter, report)] of a peer's report message *)
  success : (int * 'report) list -> bool;
      (** this user's verdict over all [n] reports, sorted by user *)
  confirmed : (int * 'report) list -> int;
      (** the operation prefix a successful session certifies *)
  failure : string;  (** what a failed session means, for its alarm *)
  on_server : round:int -> Message.t -> unit;
      (** handle a server message (the protocol's per-operation check) *)
}

val create :
  User_base.t ->
  n:int ->
  k:int ->
  trigger:[ `Per_user | `Global ] ->
  scope:Obs.Scope.t ->
  name:string ->
  'report t
(** The driver of one user among [n]. The trigger starts a session
    once this user has verified [k] operations since the last one
    ([`Per_user], the paper's protocol) or once the global counter is
    [k] past the last confirmed prefix ([`Global]). Metrics go under
    [scope] ([scope.u<i>.syncs] per user); [name] prefixes the alarm
    texts. *)

val agent : 'report t -> 'report protocol -> User_base.agent
(** The user's agent: [handle] gives server messages to [on_server]
    and peers' sync messages to the session they belong to; on [tick]
    the user checks its response and sync timeouts, reports if due,
    then issues its next operation unless a session is unresolved. *)

val op_completed : 'report t -> round:int -> gctr:int -> unit
(** Count one verified operation, after which the global counter is
    [gctr]; start a session when the trigger fires. *)

val set_timeout : 'report t -> rounds:int option -> unit
(** Partial synchrony on the {e external} channel: terminate with a
    "sync stuck" alarm when a session stays unresolved for more than
    [rounds] rounds — a partitioned broadcast channel (the supporting
    move of the Figure 1 attack) or a withholding peer. [None] (the
    default) is the bare paper protocol, which blocks forever instead. *)

val syncs_completed : 'report t -> int
(** Sessions this user has resolved successfully. *)
