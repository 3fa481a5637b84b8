(** Experiment harness: build a complete system (server with adversary,
    n protocol users, PKI), drive a workload schedule through it, and
    measure what the paper's theorems promise — whether the violation
    was detected, how many operations after the violation it took, how
    many rounds, and at what communication cost.

    Every experiment in `bench/` and every integration test builds on
    this module; the examples use it too, with scripted schedules. *)

type protocol =
  | Protocol_1 of { k : int }
  | Protocol_2 of {
      k : int;
      tag_mode : [ `Tagged | `Untagged ];
      check_gctr : bool;
      sync_trigger : [ `Per_user | `Global ];
    }
  | Protocol_3 of { epoch_len : int }
  | Protocol_4 of { announce_every : int }
      (** wait-free commutative-operation verification
          ({!Protocol4}); [announce_every] is the witness batch size *)
  | Token_baseline of { slot_len : int }
  | Unverified

val protocol_name : protocol -> string

type setup = {
  protocol : protocol;
  users : int;
  adversary : Adversary.t;
  scheme : Pki.Signer.scheme;
  branching : int;
  initial : (string * string) list;  (** initial database contents *)
  seed : string;
  tail_rounds : int;
      (** rounds to keep simulating after the last scheduled event (so
          trailing syncs / epoch checks can run) *)
  response_timeout : int option;
      (** availability-violation detection: alarm when a transaction
          gets no response within this many rounds (the paper's
          b*-bounded transaction time made checkable); [None] disables *)
  sync_timeout : int option;
      (** Protocols I and II: alarm when a sync session stays
          unresolved this many rounds ({!Sync_session.set_timeout});
          [None] (the default) is the bare paper protocol *)
  store_dir : string option;
      (** when set, run the server on a durable {!Store} rooted here
          (created on first use; an existing directory is loaded and
          {!Store.rebaseline}d as a new session); required by the
          crash adversaries *)
  shards : int option;
      (** key-range shards for the server database (default 1; implies
          the per-shard [server.s<i>.*] observability scopes) *)
  store_durability : Store.durability;
      (** group-commit flush cadence (default {!Store.Per_op} — the
          pinned-digest mode; [Per_round] defers all WAL flushing to
          the round-boundary group commit) *)
}

val default_setup : protocol:protocol -> users:int -> adversary:Adversary.t -> setup
(** HMAC-shared signatures (cheap, adequate for protocol-behaviour
    experiments), branching 8, 32 initial files, seed derived from the
    protocol and adversary names, 400 tail rounds, 64-round response
    timeout, no store, one shard. *)

val file_key : int -> string
(** Database key for workload file index [i]. *)

val initial_files : int -> (string * string) list
(** [n] files with deterministic initial contents. *)

type outcome = {
  rounds_run : int;
  completed_transactions : int;
  issued_transactions : int;
  alarms : Sim.Engine.alarm_record list;
  oracle : Sim.Oracle.verdict;
  detected : bool;  (** at least one alarm was raised *)
  detection_round : int option;
  violation_round : int option;
      (** round at which the adversary's trigger operation completed *)
  ops_after_violation : int;
      (** max over users of transactions issued after the violation and
          completed before the first alarm — the quantity k bounds *)
  total_ops_after_violation : int;
      (** transactions issued after the violation and completed, summed
          over all users — the quantity the stronger (global-k)
          requirement of Section 2.2.1 bounds *)
  messages_sent : int;
  broadcasts_sent : int;
  bytes_sent : int;
  latencies : (int * int) list;
      (** (user, completed_round - scheduled_round) per completed
          transaction, in completion order *)
}

type setup_error =
  | Store_required of Adversary.t
      (** a crash-and-restart adversary was configured without a
          durable store to recover from *)
  | Store_failed of string  (** the store could not be created/opened *)

exception Setup_error of setup_error
(** Raised by {!run} / {!run_script} on misconfiguration — the single
    typed error path for store-requiring setups (the CLI catches it and
    prints {!setup_error_message}). *)

val setup_error_message : setup_error -> string
(** Actionable one-line message, e.g. naming the flag to add. *)

val validate : setup -> (unit, setup_error) result
(** The checks {!run} performs up front, callable separately (the CLI
    validates before touching the filesystem). *)

val run : setup -> events:Workload.Schedule.event list -> outcome

type scripted = { at : int; by : int; what : Mtree.Vo.op }

val script_of_events : Workload.Schedule.event list -> scripted list
(** The deterministic intent→operation lowering {!run} applies:
    write contents are numbered per file {e globally} across users, so
    any party that knows the full schedule (e.g. a remote client
    process holding its slice of the workload) derives byte-identical
    operations. *)

val build_user :
  setup ->
  initial_root:string ->
  engine:Message.t Sim.Engine.t ->
  trace:Sim.Trace.t ->
  keyring:Pki.Keyring.t ->
  signers:Pki.Signer.t array ->
  user:int ->
  User_base.t
(** Construct one protocol user exactly as {!run} would — exported so
    a remote client process ({!Net}) can host the same agent over a
    local engine. *)

val create_server :
  ?store:Store.t ->
  ?route_counters:bool ->
  protocol ->
  adversary:Adversary.t ->
  elected_signer:(unit -> Pki.Signer.t) ->
  engine:Message.t Sim.Engine.t ->
  db:Store.Shard_db.t ->
  Server.t
(** The server [protocol] runs against, built as {!run} builds it —
    exported so the network daemon sets up the same server. Protocol I
    gets the [`Signed] mode and the elected user's signature over
    [h(M(D₀) ‖ 0)]; only then is [elected_signer] called. Protocol III
    gets its epoch length, the token baseline the [`Token] mode, every
    other protocol [`Plain]. [db] and the optional arguments are
    {!Server.create}'s. *)

val run_script : setup -> script:scripted list -> outcome
(** Like {!run} but with explicit database operations instead of
    workload intents — for scenarios that need exact control over keys
    and values (e.g. the Figure 3 replay, where two users must write
    identical bytes). *)

val classify : outcome -> [ `True_alarm | `False_alarm | `Missed | `Clean ]
(** [`True_alarm]: violation occurred and was detected. [`False_alarm]:
    alarm without any violation (soundness failure — must never happen).
    [`Missed]: violation with no alarm. [`Clean]: honest run, no
    alarm. A violation "occurred" when the adversary is not honest. *)
