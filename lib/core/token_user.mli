(** The token-passing baseline of Section 2.2.3.

    Users act only in pre-specified slots, round-robin: slot [s]
    (rounds [s·slot_len .. (s+1)·slot_len)) belongs to user
    [s mod n]. In its slot a user fetches the head of the server's
    hash-chained log of signed turn records, verifies it (signature,
    chain position, root digest), performs at most one pending
    operation — or signs a {e null record} if it has nothing to do —
    and stores the new signed record.

    Because exactly one record is produced per slot, the head record's
    counter must equal [slot - 1]; any drop, fork or replay by the
    server breaks either that equality or a signature and is detected
    at the very next slot. The price is the paper's motivating
    workload-preservation failure: a user with two back-to-back
    operations waits a full rotation of null records — measured by the
    `wp-baseline` experiment. *)

type config = {
  n : int;
  slot_len : int;  (** rounds per slot; must cover one round trip (≥ 3) *)
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
