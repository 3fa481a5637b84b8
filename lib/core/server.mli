(** The CVS/database server agent — honest logic plus adversary hooks.

    The server executes operations serially in arrival order against
    its Merkle B⁺-tree, producing for each query the response tuple of
    Table 1: the answer [Q(D)], the verification object [v(Q, D)], the
    operation counter [ctr], the id [j] of the last user to operate
    and, in Protocol I mode, the stored root signature.

    Modes:
    - [`Signed] (Protocol I): the server {e blocks} after each response
      until the operating user returns the signature of the new root
      (the paper notes this blocking step hurts throughput — the
      `overhead-ops` experiment measures it). Queries arriving
      meanwhile are queued FIFO.
    - [`Plain] (Protocols II/III and the unverified baseline): no
      per-operation signature, no blocking. If [epoch_len] is set, the
      server also announces epochs, stores the signed register backups
      users piggyback on queries, and answers stored-state requests —
      Protocol III's use of the server as a bulletin board.
    - [`Token]: the token-passing baseline of Section 2.2.3; the server
      keeps a hash-chained log of signed turn records.

    The adversary hook decides, per operation, which state branch a
    user sees and whether the operation's effect is kept, dropped,
    forked or rolled back ({!Adversary}). Responses remain internally
    consistent regardless, so detection is the protocols' job. *)

type mode = [ `Signed | `Plain | `Token ]

type config = {
  mode : mode;
  epoch_len : int option;  (** rounds per epoch (Protocol III) *)
  adversary : Adversary.t;
}

val history_cap : int
(** 64: the most pre-operation snapshots a branch retains for the
    [Rollback] adversary — comfortably deeper than any rollback the
    adversary model uses. Long simulations would otherwise grow the
    snapshot spine linearly with the number of operations. *)

type t

val create :
  ?store:Store.t ->
  ?route_counters:bool ->
  ?sign_initial_root:(string -> string) ->
  config ->
  db:Store.Shard_db.t ->
  reply:(user:int -> Message.t -> unit) ->
  alarm:(string -> unit) ->
  t
(** Build the server state. The main branch starts at [db], D₀, which
    the caller builds once and shares with its users' [M(D₀)].
    [sign_initial_root], given in Protocol I, is called once with the
    root of [db] and returns the elected user's signature over it (the
    paper's initialisation step). Replies go to [reply]; [alarm]
    reports what the server detects in itself (a sanitizer failure,
    an unrecoverable store).

    [store], when given, makes the server durable: [db] must be
    {!Store.db}[ store] (the initial contents on a fresh store, the
    loaded database on a resumed one; anything else raises
    [Invalid_argument]). The server adopts the store's {!Store.book} —
    ctr, last user, root signature, epoch backups — so a restarted
    server continues the same session; it adopts the store's database
    and book again after every simulated crash. Every served
    operation, stored root signature and epoch backup is logged to the
    store's WAL, and the crash adversaries become meaningful.
    [route_counters] (default [false]) switches on the per-shard
    [server.s<i>.ops_routed] routing counters plus the
    [server.ops_routed] aggregate; callers set it on store and sharded
    runs, so legacy single-tree reports keep their exact metric set. *)

val handle : t -> round:int -> user:int -> Message.t -> unit
(** Serve [user]'s query, root signature or token turn in session
    round [round] (a Protocol III response announces epoch
    [round / epoch_len]). *)

val end_round : t -> round:int -> unit
(** End session round [round]: flush the store's staged records (the
    group commit), then run a crash adversary due by [round], once. *)

val on_engine :
  Message.t Sim.Engine.t ->
  (reply:(user:int -> Message.t -> unit) -> alarm:(string -> unit) -> t) ->
  t
(** The simulator binding: [on_engine engine (create config ~db)] is
    the server registered as {!Sim.Id.Server}, replying and alarming
    there; it handles each message in the round the engine delivers
    it, and ends every round. *)

val initial_root : t -> string
(** [M(D₀)] — common knowledge among users. *)

val ops_performed : t -> int
(** Operations the {e true} branch has performed (the adversary may
    have shown users other numbers). *)

val true_root : t -> string
(** Root digest of the branch an honest continuation would serve. *)

val history_length : t -> int
(** Snapshots currently retained on the main branch — bounded by
    {!history_cap}; exposed for tests. *)

(** {2 Runtime sanitizers}

    Run automatically after every mutation while {!Sanitize.enabled};
    a failure goes to the server's [alarm]. Also
    callable directly (tests, the harness's end-of-run backstop). *)

val check_invariants : t -> (unit, string) result
(** Full state validation: {!Store.Shard_db.check_invariants} on every
    live branch database (digest recomputation from raw bytes — this
    is what catches {!Adversary.Bitrot} — plus shard routing), then
    branch history well-formedness: snapshot count within
    {!history_cap}, and — under adversaries that apply operations
    honestly (Honest, Bitrot) — strictly decreasing counters down the
    newest-first snapshot list. *)
