(** The hashed state identifiers the protocols exchange and accumulate.

    Protocol II's correctness hinges on what exactly gets hashed into a
    state tag: Figure 3 shows that tagging states with
    [h(M(D) ‖ ctr)] alone lets a malicious server replay states (even
    total degrees cancel in the XOR registers), while adding the user
    id — [h(M(D) ‖ ctr ‖ j)] — forces in-degree 1 and rescues Lemma
    4.1. Both variants are provided so the `abl-ctr-tag` ablation can
    measure the difference; every hash is domain-separated and
    length-framed. *)

val initial : root:string -> string
(** Tag of the initial database state [s = h(M(D₀) ‖ 1)] — the
    distinguished source vertex of the transition graph. *)

val tagged : root:string -> ctr:int -> user:int -> string
(** [h(M(D) ‖ ctr ‖ j)]: the state reached by operation number [ctr],
    performed by [user] — Protocol II's (fixed) tag. *)

val untagged : root:string -> ctr:int -> string
(** [h(M(D) ‖ ctr)]: the broken variant of Figure 3, for the
    ablation. *)

val root_sig_message : root:string -> ctr:int -> string
(** The byte string users sign in Protocol I: [h(M(D) ‖ ctr)]. *)

val backup_message : epoch:int -> sigma:string -> last:string -> gctr:int -> string
(** The byte string users sign over their per-epoch register backup in
    Protocol III. *)

val token_record_message :
  prev_digest:string -> root:string -> ctr:int -> user:int -> op_digest:string -> string
(** The byte string signed for each record of the token-passing
    baseline's hash-chained log. *)

type registers = { sigma : string; last : string option; gctr : int }
(** A user's XOR state registers σᵢ, lastᵢ and gctrᵢ (Protocol II;
    Protocol III keeps one set per epoch). [last = None] until the
    user's first operation. *)

val no_registers : registers
(** σ = 0, no last state, gctr = 0. *)

val fold :
  tag:(root:string -> ctr:int -> user:int -> string) ->
  registers ->
  old_root:string ->
  new_root:string ->
  ctr:int ->
  last_user:int ->
  user:int ->
  registers
(** Fold one verified operation into the registers: operation [ctr]
    by [user] took [M(D)] = [old_root], last written by [last_user], to
    [M(D')] = [new_root]. [σ ⊕= old_tag ⊕ new_tag], [last ← new_tag],
    [gctr ← ctr + 1], where the old tag is {!initial} at [ctr = 0] and
    both tags are otherwise [tag] ({!tagged}, or {!untagged} for the
    Figure 3 ablation). *)

val xor : string -> string -> string
(** Byte-wise XOR of two equal-length strings (32-byte register
    arithmetic). @raise Invalid_argument on length mismatch. *)

val zero : string
(** The all-zero 32-byte register initial value. *)
