(** Protocol III (Section 4.4): epoch-based detection with {e no}
    external communication — the server itself is used as a bulletin
    board for signed register backups.

    Time is divided into epochs of [epoch_len] rounds; the workload
    assumption is that every user performs at least two operations per
    epoch. Per Figure 4, user [i]:

    + runs Protocol II's per-operation register updates within each
      epoch (registers reset at epoch boundaries);
    + on its first operation of a new epoch (point A) snapshots the
      previous epoch's registers;
    + on its second operation (point B) piggybacks the {e signed}
      snapshot onto the query, to be stored by the server;
    + if assigned to verify epoch [e] (assignment: [e mod n]), during
      epoch [e + 2] (point C) it requests the stored states of epochs
      [e - 1] and [e], checks every backup's signature, reconstructs
      the epoch-initial state from epoch [e - 1]'s final state, and
      runs the Protocol II path check over epoch [e]'s σ registers.

    A server fault in epoch [e] is detected by the end of epoch
    [e + 2] — a time bound rather than an operation bound
    (Theorem 4.3).

    Two engineering refinements the paper leaves implicit are
    documented in DESIGN.md: backups carry [gctr] so the verifier can
    select the epoch-final state among the [last] values, and users
    cross-check the server's announced epoch against their local clock
    (partial synchrony) so a server that freezes the epoch counter is
    itself detected. *)

type config = {
  n : int;
  epoch_len : int;  (** rounds per epoch; users know it (t in the paper) *)
  initial_root : string;
}

type t

val create :
  config ->
  user:int ->
  engine:Message.t Sim.Engine.t ->
  trace:Sim.Trace.t ->
  keyring:Pki.Keyring.t ->
  signer:Pki.Signer.t ->
  t

val base : t -> User_base.t

(** {2 Runtime sanitizer}

    Validates the epoch bookkeeping the protocol assumes but never
    re-derives: epochs only roll forward, and the verifier assignment
    walks [user, user+n, user+2n, ...] in lockstep with the number of
    epochs verified. Runs automatically after every register update
    while {!Sanitize.enabled}; a violation terminates the user with an
    alarm. *)

val check_epochs : t -> (unit, string) result

val debug_corrupt_assignment : t -> unit
(** Knock the verifier assignment off its arithmetic progression —
    sanitizer test hook. *)
