(** Protocol II (Section 4.3): XOR state registers with user-tagged
    states — no per-operation signature, no PKI, non-blocking server.

    Per operation, user [i]
    + replays the verification object to recover [M(D)] and [M(D')],
    + rejects a counter that went backwards for it ([ctr < gctrᵢ] —
      this is what forces in-degree 1 in the transition graph),
    + folds the transition into its registers:
      [σᵢ ⊕= h(M(D) ‖ ctr ‖ j) ⊕ h(M(D') ‖ ctr+1 ‖ i)],
      [lastᵢ ← h(M(D') ‖ ctr+1 ‖ i)], [gctrᵢ ← ctr + 1].

    At sync (every k operations), users broadcast their registers;
    user [i] reports success iff
    [h(M(D₀) ‖ 1) ⊕ lastᵢ = ⊕ₖ σₖ]. By Lemma 4.1, all registers
    XOR-ing down to exactly ⟨initial, somebody's last⟩ forces the
    transition graph to be one directed path — i.e. a single serial
    history everyone took part in (Theorem 4.2).

    Ablation knobs: [tag_mode = `Untagged] reproduces the broken
    Figure 3 variant (states hashed without the user id);
    [check_gctr = false] drops the monotonicity check. Both default to
    the paper's fixed protocol.

    [sync_trigger] selects which detection bound the sync schedule
    enforces. [`Per_user] is the paper's protocol ("the first user to
    complete k operations announces sync-up"): detection before any
    user completes more than k post-violation transactions.
    [`Global] implements the {e stronger} requirement Section 2.2.1
    mentions but leaves open — detection before k further operations
    happen on the data at all: a user announces sync-up when the
    server's counter has advanced k past the last certified prefix,
    regardless of who performed the operations. *)

type config = {
  n : int;
  k : int;
  initial_root : string;
  tag_mode : [ `Tagged | `Untagged ];
  check_gctr : bool;
  sync_trigger : [ `Per_user | `Global ];
}

val default_config : n:int -> k:int -> initial_root:string -> config

type t

val create :
  config ->
  user:int ->
  trace:Sim.Trace.t ->
  send:(Message.t -> unit) ->
  broadcast:(Message.t -> unit) ->
  alarm:(string -> unit) ->
  t

val base : t -> User_base.t
val agent : t -> User_base.agent

val sync : t -> State_tag.registers Sync_session.t
(** The user's sync driver; reports carry the registers. *)

(** {2 Runtime sanitizer}

    The protocol keeps, alongside σ, the ledger of every transition
    contribution it ever folded in. {!check_registers} recomputes the
    XOR-fold from scratch and compares — catching a register that was
    corrupted between operations, which the incremental updates would
    silently carry forward. Runs automatically after every register
    update while {!Sanitize.enabled} (a failure terminates the user
    with an alarm, like any protocol check). *)

val check_registers : t -> (unit, string) result

val debug_corrupt_sigma : t -> unit
(** Flip σ without touching the ledger — sanitizer test hook. *)
