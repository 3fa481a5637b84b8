(** Ground-truth deviation detection (Definition 2.1), for experiments.

    In the trusted system the server executes transactions serially in
    arrival order and answers within bounded time. Under the model's
    assumptions (at most one query action per round, fixed one-round
    delivery) the arrival order equals the issue order, so a recorded
    run is {e consistent with some trusted run} exactly when replaying
    the completed transactions in issue order against a trusted
    executor reproduces every answer the server gave.

    This module performs that replay. It is the experiment harness's
    oracle: protocols must raise an alarm iff the oracle says the run
    deviated (soundness/completeness of detection), and the detection
    delay is measured from the oracle's first deviating transaction.

    The oracle is {e not} available to users inside the protocols — it
    sees the whole global trace at once, which no user does; that
    asymmetry is exactly the problem the paper's protocols solve. *)

type verdict = {
  deviated : bool;
  first_deviation : Trace.transaction option;
      (** earliest issued transaction whose reported answer — or whose
          claimed (old, new) root-digest transition, when the user
          recorded one — differs from the trusted replay. Root-chain
          checking is what makes write-only fork divergence visible:
          answers alone ([Updated]) carry no state. *)
}

val trusted_answer :
  Mtree.Merkle_btree.t -> Mtree.Vo.op -> Mtree.Merkle_btree.t * Mtree.Vo.answer
(** One step of the trusted executor: apply the operation, return the
    new database and the answer a trusted server gives. It runs on one
    flat tree and shares no code with the server, which executes
    through {!Store.Shard_db.apply}: it is the independent reference
    the oracle replays with and [test_store] checks the sharded
    executor against. *)

val replay : ?branching:int -> initial:(string * string) list -> Trace.t -> verdict
(** [replay ~initial trace] starts from a trusted database holding
    [initial] and replays [trace]'s completed transactions in issue
    order. *)

val replay_with :
  init:'db ->
  apply:('db -> Mtree.Vo.op -> 'db * Mtree.Vo.answer) ->
  root:('db -> string) ->
  Trace.t ->
  verdict
(** Generalised replay over any trusted executor — the sharded store
    records composed (multi-shard) root digests in its traces, which a
    single-tree replay would wrongly flag; the harness passes the
    matching executor instead. {!replay} is [replay_with] over
    {!trusted_answer}. *)

val answers_equal : Mtree.Vo.answer -> Mtree.Vo.answer -> bool
