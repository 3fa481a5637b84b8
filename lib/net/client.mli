(** The Trusted-CVS network client.

    {!run} hosts one {e real} protocol agent, built exactly as the
    in-process harness builds it ({!Tcvs.Harness.build_user}), and
    drives it itself on the session's clock. Each [Tick r] from the
    {!Daemon} is the agent's round r, as the simulator runs it: what
    the agent sent the server in round r-1 leaves now and is served in
    round r, the agent gets every reply and peer broadcast that arrived
    since its last tick, then it ticks; a broadcast leaves in the tick
    that made it and reaches each peer before the next [Tick]. So every
    message takes one round, as in the paper's model. test_net's parity
    cases pin each user's completed transactions and alarms to the
    in-process harness on the same seed and script.

    Reliability: every [Request]/[Publish] is retransmitted on a
    jittered exponential tick backoff (deterministic under the seeded
    PRNG) until acknowledged; received [Deliver]s are deduplicated on
    [(src, sseq)] and always re-acked. If the connection drops, the
    client reconnects with capped exponential backoff and re-runs the
    handshake; a [Welcome] whose store generation regressed — the
    daemon restarted on rolled-back state — raises a local alarm, so a
    [kill -9]-and-rollback is observed just like the in-process
    [rollback-crash:R] adversary, while an honest restart (same or
    advanced generation, counters intact) passes revalidation and the
    session continues cleanly. *)

type config = {
  host : string;
  port : int;
  user : int;
  users : int;
  protocol : Tcvs.Harness.protocol;
  files : int;
  branching : int;
  shards : int;
  seed : string;  (** must match the daemon's and every peer's *)
  script : Tcvs.Harness.scripted list;
      (** the {e full} session script ({!Tcvs.Harness.script_of_events}
          numbering needs every user's writes); the client enqueues
          only its own entries *)
  response_timeout : int option;
  sync_timeout : int option;
  max_reconnects : int;
      (** redials (5 s connect + handshake bound each, 0.25 s base
          backoff doubling per attempt) before giving up; a lockstep
          link silent for 10 s is declared wedged and redialled *)
  journal : string option;
      (** when set, span events (client.send / client.retransmit /
          client.reply) are appended to this JSONL file for
          [tcvs_cli trace-join]; the span id is the request seq, reused
          on retransmits *)
}

val default_config : user:int -> port:int -> config
(** Loopback host, 4 users, protocol II (k=8), 32 files, branching 8,
    1 shard, empty script, 64-round response timeout, no sync timeout,
    8 reconnects. Retransmission backs off from a 4-tick base. *)

type verdict = {
  v_alarmed : bool;  (** local alarm or session-wide alarm *)
  v_local_alarms : (int * string) list;  (** (round, reason), oldest first *)
  v_transactions : Sim.Trace.transaction list;  (** the user's, in completion order *)
  v_session_alarmed : bool;
  v_session_reason : string;  (** the daemon's [Session_end] reason *)
  v_rounds : int;
  v_reconnects : int;
}

val run : config -> (verdict, string) result
(** Drive the session to its [Session_end]. [Error] is an environment
    failure (cannot connect, handshake rejected, reconnect budget
    exhausted) — never a detection verdict. *)
