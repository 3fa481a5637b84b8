(** Deterministic discrete-round simulator — the paper's system model
    (Section 2.1) made executable.

    Time advances in rounds. In round [m]:

    + every message sent during round [m - 1] is delivered (the paper
      assumes messages "are not lost and are delivered in a single
      round"), in deterministic FIFO order;
    + every registered agent is activated once (its local clock
      "ticks"), giving 1-partial synchrony; an agent that wants to be
      offline simply does nothing when activated.

    Agents are registered with two callbacks and communicate only via
    {!send} — or {!broadcast}, which models the {e external} broadcast
    channel among users that Protocols I and II require and Protocol
    III must do without. The engine counts broadcast uses so
    experiments can report external-communication cost.

    The engine is single-threaded and entirely deterministic: a given
    program of agents over a given number of rounds always produces the
    identical event sequence. *)

type 'msg t

type 'msg handlers = {
  on_message : round:int -> src:Id.t -> 'msg -> unit;
  on_activate : round:int -> unit;
}

val create : ?measure:('msg -> int) -> ?classify:('msg -> string) -> unit -> 'msg t
(** [measure] reports a message's wire size in bytes; when provided,
    {!bytes_sent} accumulates it per send (broadcasts count once per
    recipient, like real point-to-point links would).

    [classify] names a message's kind (e.g. ["query"]); when provided,
    every delivery additionally bumps the [sim.sent.<kind>] and
    [sim.sent_bytes.<kind>] counters in the {!Obs} registry, giving run
    reports a per-message-type wire breakdown for free. *)

val register : 'msg t -> Id.t -> 'msg handlers -> unit
(** @raise Invalid_argument on duplicate registration. *)

val send : 'msg t -> src:Id.t -> dst:Id.t -> 'msg -> unit
(** Enqueue for delivery at the start of the next round. Messages to
    unregistered agents are silently dropped (a sleeping user's mail is
    modelled by the user's own handler, not by the network). *)

val broadcast : 'msg t -> src:Id.t -> 'msg -> unit
(** Deliver to every registered user except the sender, next round,
    over the external channel (never through the server). *)

val round : 'msg t -> int
(** The current round (0 before the first step). *)

val step : 'msg t -> unit
(** Advance one round. *)

val run_until : 'msg t -> ?max_rounds:int -> (unit -> bool) -> bool
(** Step until the predicate holds or [max_rounds] (default 100_000)
    elapse; returns whether the predicate held. *)

(** {2 Instrumentation} *)

val messages_sent : 'msg t -> int
val bytes_sent : 'msg t -> int
(** Total measured bytes (0 when no [measure] function was given). *)

val broadcasts_sent : 'msg t -> int
(** Number of point-to-point external deliveries caused by
    {!broadcast} (a broadcast to [n] users counts [n]). *)

val alarm : 'msg t -> agent:Id.t -> reason:string -> unit
(** Record that [agent] detected server misbehaviour ("terminates and
    reports an error" in the paper's phrasing). *)

type alarm_record = { agent : Id.t; at_round : int; reason : string }

val alarms : 'msg t -> alarm_record list
(** Oldest first. *)

val first_alarm : 'msg t -> alarm_record option
