(** The client-facing serving core shared by {!Daemon} and {!Router}.

    Both processes speak one protocol to clients: the [Hello]/[Welcome]
    handshake, exactly-once requests (per-user seq, outstanding query,
    cached last reply, a loud [Lost_reply] instead of a re-execution),
    the [Publish] → [Deliver] relay acknowledged end to end, and the
    lockstep round clock. This module is that protocol, as plain
    functions over a state record {!t} that each process's state
    embeds. A process keeps its own frame handler for what it answers
    differently — the Hello's role checks, fresh queries, the shard
    barrier — and hands every other frame to {!handle_frame}. *)

type session = {
  conn : Conn.t;
  peer : string;
  mutable user : int;  (** -1 before Hello *)
  mutable role : Codec.role option;
  mutable said_bye : bool;
  mutable dedup_hits : int;  (** per connection, for the admin snapshot *)
}

type relay
type metrics

type t = {
  src : Logs.src;
  m : metrics;
  users : int;
  max_conns : int;
  boot_id : string;
  journal : Obs.Journal.t option;
  fwd_ctx : bool;
  ev_dispatch : string;
  ev_dedup : string;
  ev_end : string;
  mutable sessions : session list;
  vseq : (int, int) Hashtbl.t;  (** per-user highest admitted request seq *)
  reply_cache : (int, int * string) Hashtbl.t;  (** user → (seq, encoded reply) *)
  outstanding : (int, int * Codec.ctx) Hashtbl.t;  (** user → query awaiting its reply *)
  relays : (int * int, relay) Hashtbl.t;  (** (src, sseq) → undelivered broadcast *)
  u_done : int array;  (** per-user last [Tick_done] round *)
  u_drained : bool array;
  u_alarmed : bool array;
  mutable round : int;
  mutable ticking : bool;
  mutable tick_sent_at : float;
  mutable drain_ticks : int;
  mutable session_over : bool;
  mutable ended_at : float;
}

val create :
  src:Logs.src ->
  scope:Obs.Scope.t ->
  ev:string ->
  ev_dispatch:string ->
  ?fwd_ctx:bool ->
  users:int ->
  max_conns:int ->
  Obs.Journal.t option ->
  t
(** Registers [dedup_hits], [lost_replies], [publishes_relayed],
    [ticks], [connections_accepted] and the volatile [admin_scrapes]
    under the process's [scope]. Journal events are named per process:
    [ev ^ ".dedup"] for a duplicate query, [ev ^ ".end"] for the session
    end, [ev_dispatch] for a relayed Publish. With [fwd_ctx] (shard
    daemons), op events are journalled under the request's forwarded
    trace context. *)

(** {2 Helpers for the process's own handlers} *)

val jot : t -> ?user:int -> ?span:int -> ?dur_us:int -> ev:string -> string -> unit
val jot_fwd : t -> user:int -> seq:int -> ctx:Codec.ctx -> ev:string -> string -> unit
val session_for_user : t -> int -> session option
val lockstep : session -> bool
val send_to : t -> int -> Codec.frame -> unit
(** To user [u]'s live session, if any. *)

val reject : session -> Codec.error_code -> string -> unit
(** Send a typed error frame, flush, close. *)

val version_ok : session -> Codec.hello -> bool
(** [false] after rejecting a Hello of another protocol version. *)

val join : t -> session -> Codec.hello -> welcome:(unit -> Codec.frame) -> unit
(** Admit a [Lockstep] or [Free] Hello — user in range, session width
    matching, user not yet connected, no session of the other role —
    and answer [welcome ()], or reject with [Bad_user]/[Busy]. *)

val admit_query : t -> session -> seq:int -> ctx:Codec.ctx -> bool
(** [true] for a fresh query, now recorded as outstanding: the caller
    must answer it. Otherwise it was handled here: a duplicate of the
    outstanding query is ignored, an older seq gets its cached reply
    (or [Lost_reply]), a second query while one is outstanding is a
    [Protocol_violation]. *)

val record_reply : t -> user:int -> seq:int -> string -> unit
(** Cache the encoded reply to [seq] and clear it as outstanding. *)

val handle_frame : t -> session -> Codec.frame -> unit
(** Every frame the process does not handle itself. *)

(** {2 The round clock} *)

val start_clock : t -> unit
(** Start ticking once every user has joined a lockstep session. *)

val tick_complete : t -> bool
val retick : t -> unit
(** Re-send the current [Tick] to unanswered users after 0.5 s. *)

val end_session : t -> alarmed:bool -> reason:string -> unit

val close_round : t -> alarm:string option -> idle:bool -> unit
(** The tail of a completed round: end the session alarmed on the
    process's [alarm] or any client alarm; end it clean after 64
    consecutive rounds in which every user is drained and nothing is
    pending ([idle] covers the process's own queues); otherwise tick
    the next round. *)

(** {2 Serving} *)

type listener = { lfd : Unix.file_descr; port : int; admin : Admin.t option }

val listen :
  t ->
  port:int ->
  port_file:string option ->
  admin_port:int option ->
  admin_port_file:string option ->
  (listener, string) result
(** Install the SIGTERM/SIGINT drain handlers, bind the loopback
    listener and the optional admin endpoint, write the port files. *)

val serve :
  t ->
  listener ->
  handle:(session -> Codec.frame -> unit) ->
  snapshot:(unit -> string) ->
  step:(unit -> unit) ->
  ?links:(unit -> Conn.t list) ->
  ?read_links:(Unix.file_descr list -> unit) ->
  close:(unit -> unit) ->
  unit ->
  (unit, string) result
(** The select loop, until the session ends (or a signal drains it).
    Each turn: [step] (the process's pre-select work), [Unix.select]
    with a 0.05 s timeout over the listener, sessions, [links] and the
    admin endpoint, then accept, admin scrapes ([snapshot]), session
    frames ([handle]), [read_links] on the readable fds, and a flush of
    sessions and links. Once the session is over the loop flushes what
    is queued (for at most 2 s), closes sessions, listener, admin and
    journal, then calls [close]. *)
