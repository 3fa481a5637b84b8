(** Frame-aware network fault proxy — Figure 1 over real sockets.

    Sits between {!Client}s and a {!Daemon}, decodes every frame, and
    injects faults {e only into payload frames} ([Request], [Publish],
    [Reply], [Deliver], [Deliver_ack], [Ack]) — the traffic the
    reliability layer retransmits. Control frames ([Hello], [Welcome],
    [Tick], [Tick_done], [Session_end], …) always pass, so the session
    structure survives while its contents get mangled: drops and
    duplicates exercise the retransmission and dedup machinery, and a
    {e partition} silently discards server→client [Deliver]s whose
    publisher sits on the other side of the cut — from the victims'
    point of view the external broadcast channel has failed, which is
    exactly what Protocol II's sync timeout must turn into an alarm.

    The proxy learns each connection's user id from the [Hello] it
    relays and the current round from passing [Tick]s. All randomness
    comes from the seeded PRNG (split per accepted connection), so a
    fault schedule is replayable. *)

type faults = {
  drop : float;  (** P(drop) per payload frame *)
  delay : float;
      (** P(hold) per payload frame; held frames are released at the
          next round boundary (the next control frame on the same leg) *)
  duplicate : float;  (** P(forward twice) per payload frame *)
  partition : (int list * int list * int) option;
      (** [(group_a, group_b, from_round)]: from [from_round] on, drop
          [Deliver]s crossing between the groups *)
}

val no_faults : faults

type config = {
  listen_port : int;  (** 0 picks an ephemeral port *)
  port_file : string option;
  dst_host : string;
  dst_port : int;
  seed : string;
  faults : faults;
  journal : string option;
      (** when set, per-op span events (proxy.to_server / proxy.to_client
          / proxy.drop / proxy.delay / proxy.duplicate) are appended to
          this JSONL file, attributed via the frame's wire trace ctx —
          no body decoding needed *)
}

val default_config : dst_port:int -> config

val run : config -> (unit, string) result
(** Relay until SIGTERM/SIGINT. Each accepted client connection gets
    its own upstream connection to the daemon, dialled without
    blocking (frames wait in its buffer until it connects); either side
    closing tears down the pair. *)
