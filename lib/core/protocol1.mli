(** Protocol I (Section 4.2): signed root digests + counter, with a
    synchronisation over the broadcast channel every k operations.

    Per operation, the user
    + replays the verification object to recover [M(D)] and [M(D')],
    + checks the server's stored signature [sig_j(h(M(D) ‖ ctr))] is
      legitimate — signed by the claimed last user [j] under the PKI,
    + checks the claimed answer matches the replayed answer,
    + returns [sign_i(h(M(D') ‖ ctr+1))] to the server (the message the
      server is blocked on),
    + updates [lctrᵢ] and [gctrᵢ ← ctr + 1].

    The first user to complete [k] operations since the last sync
    announces sync-up; users broadcast [lctrᵢ]; user [i] reports
    success iff [gctrᵢ = Σ lctrₖ]; if nobody succeeds, everyone
    terminates and reports the error (Theorem 4.1: k-bounded deviation
    detection with constant per-operation overhead). *)

type config = {
  n : int;  (** number of users *)
  k : int;  (** sync period (operations) *)
  initial_root : string;  (** M(D₀), common knowledge *)
  elected_signer : int;  (** user whose signature seeds ctr = 0 *)
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
(** Registers the agent with the engine under [User user]. *)

val base : t -> User_base.t

val sync : t -> int Sync_session.t
(** The user's sync driver; reports carry [lctrᵢ]. *)

val initial_signature : signer:Pki.Signer.t -> root:string -> string
(** The elected user's signature over [h(M(D₀) ‖ 0)] that initialises
    the server (protocol initialisation step). *)
