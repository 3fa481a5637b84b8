(** Wire messages of every protocol — the concrete realisation of the
    paper's Table 1 notation.

    One variant type covers all protocols so the simulation engine,
    server, adversaries and harness can be shared; fields irrelevant to
    a given protocol are simply absent ([option]) in its flows. The
    `tab1-notation` experiment prints which constructor and fields
    realise each row of Table 1, along with concrete encoded sizes. *)

(** Per-epoch register backup stored on the server in Protocol III. *)
type epoch_backup = {
  backup_user : int;
  backup_epoch : int;
  sigma : string;  (** σᵢ at the end of that epoch *)
  last : string;  (** lastᵢ at the end of that epoch *)
  backup_gctr : int;  (** gctrᵢ, used to order final states *)
  backup_signature : string;
}

(** One record of the token-passing baseline's hash-chained log. *)
type token_record = {
  token_user : int;
  token_ctr : int;
  root : string;  (** M(D) after this turn's operation (or no-op) *)
  op_digest : string;  (** digest of the op performed; null op = hash of "" *)
  prev_digest : string;  (** hash chain back-pointer *)
  token_signature : string;
}

(** Payloads a user attaches to a query (Protocol III bookkeeping). A
    query may carry several — e.g. a user with exactly two operations
    per epoch must ship its register backup and its stored-state
    request together to meet the two-epoch bound. *)
type piggyback =
  | Backup of epoch_backup
  | Request_states of { epochs : int list }

type t =
  (* user -> server *)
  | Query of { op : Mtree.Vo.op; piggyback : piggyback list }
  | Root_signature of { signer : int; ctr : int; signature : string }
      (** Protocol I step 6: sign_i(h(M(D') ‖ ctr+1)). *)
  | Token_take_turn of { op : Mtree.Vo.op option; record : token_record }
      (** Baseline: the user's (possibly null) turn, pre-signed. *)
  (* server -> user *)
  | Response of {
      answer : Mtree.Vo.answer;  (** Q(D) *)
      vo : Mtree.Vo.t;  (** v(Q, D) *)
      ctr : int;  (** ops performed before this one *)
      last_user : int;  (** j; -1 when ctr = 0 *)
      root_sig : string option;  (** Protocol I: sig_j(h(M(D) ‖ ctr)) *)
      epoch : int;  (** server's current epoch (Protocol III; else 0) *)
      epoch_states : (int * epoch_backup list) list;
          (** requested (epoch, stored backups) pairs *)
    }
  | Token_state of { record : token_record option; vo : Mtree.Vo.t }
      (** Baseline: latest log record (None before the first turn). *)
  (* user -> user, broadcast (external channel). [session] numbers the
     sync session a message belongs to ({!Sync_session}). *)
  | Sync_begin of { session : int; initiator : int }
  | Sync_count of { session : int; reporter : int; lctr : int }  (** Protocol I *)
  | Sync_registers of { session : int; reporter : int; registers : State_tag.registers }
      (** Protocol II *)
  | Sync_verdict of { session : int; reporter : int; success : bool }
  | Shard_witness of { reporter : int; entries : (int * int * string) list }
      (** Protocol IV: wait-free witness announcements over the
          external channel — [(shard, position, root)] triples, where
          [position] is the global operation counter at which the shard
          had digest [root]. Users merge received witnesses into their
          per-shard chains; two witnesses for the same (shard,
          position) with different roots are a fork proof. *)

val kind : t -> string
(** Stable snake_case tag of the constructor — the per-kind label the
    simulator's wire metrics are keyed on. *)

val encoded_size : t -> int
(** Size in bytes of a canonical binary encoding — used by the
    overhead experiments to report message-size costs without the
    simulator actually serialising every message. *)
