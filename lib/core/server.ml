module Vo = Mtree.Vo
module Sdb = Store.Shard_db

type mode = [ `Signed | `Plain | `Token ]

type config = { mode : mode; epoch_len : int option; adversary : Adversary.t }

(* One copy of the database as some set of users sees it. A fork
   attack maintains two of these. [history] (newest first) holds the
   pre-operation snapshots that Rollback rewinds to. *)
type branch = {
  mutable db : Sdb.t;
  mutable ctr : int;
  mutable last_user : int;
  mutable root_sig : string option;
  mutable history : (Sdb.t * int * int * string option) list;
}

type t = {
  config : config;
  engine : Message.t Sim.Engine.t;
  initial_root : string;
  (* Retained so a crash-recovery that rewinds to the pristine state
     can re-seed Protocol I's bootstrap signature. *)
  initial_root_sig : string option;
  store : Store.t option;
  main : branch;
  mutable forked : branch option;
  (* The paper's server is serial: one query at a time, in arrival
     order; in Signed mode it blocks until the operating user returns
     the root signature. *)
  queue : (int * Vo.op * Message.piggyback list) Queue.t;
  mutable awaiting_sig_on : branch option;
  mutable discard_next_sig : bool;
  (* Per-epoch register backups, kept sorted by user (one slot per
     user, re-backup replaces) so [states_for] is deterministic. *)
  epoch_store : (int, Message.epoch_backup list) Hashtbl.t;
  mutable token_log : Message.token_record list; (* newest first *)
  mutable total_ops : int; (* across branches; drives adversary triggers *)
  mutable crashed : bool; (* Crash/Rollback_crash are one-shot *)
  mutable halted : bool;
  (* Set when recovery fails (unrecoverable MANIFEST): the server has
     alarmed and refuses to serve anything rather than answer from a
     half-initialized shard map. *)
  (* Present only on store/sharded runs, so legacy single-tree reports
     keep their exact metric set: per-shard routing counters plus the
     aggregate. *)
  route_counters : (Obs.counter array * Obs.counter) option;
}

let history_cap = 64

let obs_scope = Obs.Scope.v "server"
let c_queries = Obs.counter ~scope:obs_scope "queries_served"
let c_stalled = Obs.counter ~scope:obs_scope "queries_stalled"
let c_tampered = Obs.counter ~scope:obs_scope "tamper_fires"
let c_dropped = Obs.counter ~scope:obs_scope "drop_fires"
let c_rollbacks = Obs.counter ~scope:obs_scope "rollback_fires"
let c_fork_activations = Obs.counter ~scope:obs_scope "fork_activations"
let c_backups_stored = Obs.counter ~scope:obs_scope "backups_stored"
let c_state_requests = Obs.counter ~scope:obs_scope "state_requests_served"
let c_bitrot = Obs.counter ~scope:obs_scope "bitrot_fires"
let c_crashes = Obs.counter ~scope:obs_scope "crash_fires"

let snapshot_of b = (b.db, b.ctr, b.last_user, b.root_sig)

(* Keep at most [cap] snapshots: Rollback only ever rewinds a bounded
   depth, so an unbounded history just grows memory linearly with the
   run length. The snapshots themselves are cheap (the tree is
   persistent), but the spine is not free over millions of ops. *)
let rec take n = function
  | [] -> []
  | x :: rest -> if n <= 0 then [] else x :: take (n - 1) rest

let push_history b snap = b.history <- snap :: take (history_cap - 1) b.history

let restore b (db, ctr, last_user, root_sig) =
  b.db <- db;
  b.ctr <- ctr;
  b.last_user <- last_user;
  b.root_sig <- root_sig

let copy_branch b =
  {
    db = b.db;
    ctr = b.ctr;
    last_user = b.last_user;
    root_sig = b.root_sig;
    history = b.history;
  }

let in_group user group = List.exists (Int.equal user) group

(* A stealthy fork waits for a moment when the branch state is
   presentable: in Signed mode that means the latest root signature has
   been stored (forking mid-handshake would produce a response the very
   first verification rejects). *)
let maybe_activate_fork t =
  match t.config.adversary with
  | Adversary.Fork { at_op; _ } ->
      if
        t.forked = None && t.total_ops >= at_op
        && (t.config.mode <> `Signed || t.main.root_sig <> None)
      then begin
        t.forked <- Some (copy_branch t.main);
        Obs.incr c_fork_activations
      end
  | Adversary.Honest | Adversary.Tamper_value _ | Adversary.Drop_update _
  | Adversary.Rollback _ | Adversary.Stall _ | Adversary.Freeze_epoch _
  | Adversary.Bitrot _ | Adversary.Crash _ | Adversary.Rollback_crash _
  | Adversary.Torn_manifest _ | Adversary.Checkpoint_crash _ ->
      ()

let branch_for t ~user =
  maybe_activate_fork t;
  match (t.config.adversary, t.forked) with
  | Adversary.Fork { group_a; _ }, Some fork when not (in_group user group_a) -> fork
  | _, _ -> t.main

let current_epoch t ~round =
  match t.config.epoch_len with
  | None -> 0
  | Some len -> (
      let real = round / len in
      match t.config.adversary with
      | Adversary.Freeze_epoch { at_epoch } -> min real at_epoch
      | _ -> real)

(* Corrupt a write: flip the payload; corrupt a read: silently modify
   the queried key. Either way, the effect applied to the branch
   differs from the operation the user verified. *)
let tampered_op (op : Vo.op) : Vo.op =
  match op with
  | Vo.Set (k, v) -> Vo.Set (k, v ^ "\x00corrupted")
  | Vo.Set_many ((k, v) :: rest) -> Vo.Set_many ((k, v ^ "\x00corrupted") :: rest)
  | Vo.Set_many [] -> Vo.Set_many []
  | Vo.Get k | Vo.Remove k -> Vo.Set (k, "\x00planted")
  | Vo.Range (lo, _) -> Vo.Set (lo, "\x00planted")

let store_backup t (b : Message.epoch_backup) =
  (* The untrusted server stores blindly; verifiers check signatures. *)
  Obs.incr c_backups_stored;
  let existing = Option.value ~default:[] (Hashtbl.find_opt t.epoch_store b.backup_epoch) in
  let others =
    List.filter
      (fun (e : Message.epoch_backup) -> not (Int.equal e.backup_user b.backup_user))
      existing
  in
  let backups =
    List.sort
      (fun (a : Message.epoch_backup) b -> Int.compare a.backup_user b.backup_user)
      (b :: others)
  in
  Hashtbl.replace t.epoch_store b.backup_epoch backups

let log_backup_to_store t (b : Message.epoch_backup) =
  match t.store with
  | None -> ()
  | Some store ->
      Store.log_backup store
        {
          Store.user = b.backup_user;
          epoch = b.backup_epoch;
          sigma = b.sigma;
          last = b.last;
          gctr = b.backup_gctr;
          signature = b.backup_signature;
        }

let states_for t epochs =
  List.map
    (fun epoch ->
      (epoch, Option.value ~default:[] (Hashtbl.find_opt t.epoch_store epoch)))
    epochs

(* ---- Runtime sanitizers --------------------------------------------- *)

(* History snapshots are newest-first pre-operation states, so under an
   honest continuation (Honest, Bitrot — which applies operations
   honestly before corrupting storage — and Crash, whose recovery is
   loss-free and clears the history) the counters must strictly
   decrease down the list. Rollback/Tamper/Fork legitimately break
   monotonicity, so only the cap is checked for them. *)
let check_branch_history t b ~label =
  if List.length b.history > history_cap then
    Error
      (Printf.sprintf "%s: history holds %d snapshots, cap is %d" label
         (List.length b.history) history_cap)
  else begin
    let monotone_expected =
      match t.config.adversary with
      | Adversary.Honest | Adversary.Bitrot _ | Adversary.Crash _
      | Adversary.Torn_manifest _ | Adversary.Checkpoint_crash _ ->
          true
      | Adversary.Tamper_value _ | Adversary.Drop_update _ | Adversary.Fork _
      | Adversary.Rollback _ | Adversary.Stall _ | Adversary.Freeze_epoch _
      | Adversary.Rollback_crash _ ->
          false
    in
    if not monotone_expected then Ok ()
    else begin
      let rec strictly_decreasing prev = function
        | [] -> Ok ()
        | (_, ctr, _, _) :: rest ->
            if ctr >= prev then
              Error
                (Printf.sprintf "%s: history counter %d not below successor %d" label ctr
                   prev)
            else strictly_decreasing ctr rest
      in
      strictly_decreasing b.ctr b.history
    end
  end

let check_history t =
  match check_branch_history t t.main ~label:"main branch" with
  | Error _ as e -> e
  | Ok () -> (
      match t.forked with
      | None -> Ok ()
      | Some fork -> check_branch_history t fork ~label:"forked branch")

let check_invariants t =
  let check_db label db =
    match Sdb.check_invariants db with
    | Ok () -> Ok ()
    | Error e -> Error (Printf.sprintf "%s: %s" label e)
  in
  match check_db "main branch db" t.main.db with
  | Error _ as e -> e
  | Ok () -> (
      let fork_ok =
        match t.forked with
        | None -> Ok ()
        | Some fork -> check_db "forked branch db" fork.db
      in
      match fork_ok with Error _ as e -> e | Ok () -> check_history t)

(* Validate the stored state after every mutation; a violation becomes
   a simulator alarm attributed to the server (there is no user to
   blame — the state itself went bad). Only the first alarm matters to
   the harness, so later repeats are harmless. *)
let sanitize_pass t =
  if Sanitize.enabled () then begin
    Sanitize.count_check ();
    match check_invariants t with
    | Ok () -> ()
    | Error reason ->
        Sim.Engine.alarm t.engine ~agent:Sim.Id.Server ~reason:("sanitize: " ^ reason)
  end

(* ---- Persistence ---------------------------------------------------- *)

let record_routing t branch op =
  match t.route_counters with
  | None -> ()
  | Some (per_shard, aggregate) ->
      List.iter
        (fun i -> Obs.incr per_shard.(i))
        (Vo.shards_for (Store.Shard_map.boundaries (Sdb.map branch.db)) op);
      Obs.incr aggregate

(* Only the main branch is durable: a fork is a lie the server tells
   some users, not state it would recover after a restart. *)
let persist_op t branch op =
  match t.store with
  | Some store when branch == t.main ->
      Store.log_op store ~db:branch.db ~op ~ctr:branch.ctr
        ~last_user:branch.last_user
  | Some _ | None -> ()

(* Serve one query. Fires Tamper/Drop/Rollback/Stall when the global
   operation index matches. *)
let execute_query t ~round ~user ~(op : Vo.op) ~piggyback =
  let epoch_states =
    List.concat_map
      (function
        | Message.Request_states { epochs } ->
            Obs.incr c_state_requests;
            states_for t epochs
        | Message.Backup _ -> [])
      piggyback
  in
  let branch = branch_for t ~user in
  match t.config.adversary with
  | Adversary.Stall { at_op } when t.total_ops = at_op ->
      (* Swallow the query: the transaction never completes. *)
      Obs.incr c_stalled;
      t.total_ops <- t.total_ops + 1;
      ignore epoch_states
  | _ ->
  (* Rollback fires before the operation is served. *)
  (match t.config.adversary with
  | Adversary.Rollback { at_op; depth; repeat }
    when t.total_ops >= at_op && t.total_ops < at_op + max 1 repeat && depth > 0 -> (
      let rec nth_or_last n = function
        | [] -> None
        | [ s ] -> Some s
        | s :: rest -> if n <= 1 then Some s else nth_or_last (n - 1) rest
      in
      match nth_or_last depth branch.history with
      | Some snap ->
          Obs.incr c_rollbacks;
          restore branch snap
      | None -> ())
  | _ -> ());
  let pre = snapshot_of branch in
  let vo = Sdb.generate_vo branch.db op in
  let db', answer = Sdb.apply branch.db op in
  let response =
    Message.Response
      {
        answer;
        vo;
        ctr = branch.ctr;
        last_user = branch.last_user;
        root_sig = (if t.config.mode = `Signed then branch.root_sig else None);
        epoch = current_epoch t ~round;
        epoch_states;
      }
  in
  (match t.config.adversary with
  | Adversary.Drop_update { at_op } when t.total_ops = at_op ->
      (* Acknowledge without applying; in Signed mode also swallow the
         signature the user is about to send, keeping the stored one
         consistent with the frozen state. Nothing reached the state,
         so nothing reaches the log. *)
      Obs.incr c_dropped;
      t.discard_next_sig <- true
  | Adversary.Tamper_value { at_op } when t.total_ops = at_op ->
      Obs.incr c_tampered;
      let tampered, _ = Sdb.apply branch.db (tampered_op op) in
      push_history branch pre;
      branch.db <- tampered;
      branch.ctr <- branch.ctr + 1;
      branch.last_user <- user;
      branch.root_sig <- None;
      (* The WAL records what the server actually did — the tampered
         effect — so recovery reproduces the corrupted state exactly. *)
      persist_op t branch (tampered_op op)
  | Adversary.Bitrot { at_op } when t.total_ops = at_op ->
      (* Serve and apply honestly, then rot the stored bytes without
         touching any cached digest: the tree keeps asserting the old
         value, so clients (and the server's own digest arithmetic)
         notice nothing. The rot is in the in-memory value cache; the
         log records the honest operation. *)
      Obs.incr c_bitrot;
      push_history branch pre;
      branch.db <- Sdb.debug_bitrot db';
      branch.ctr <- branch.ctr + 1;
      branch.last_user <- user;
      branch.root_sig <- None;
      persist_op t branch op
  | Adversary.Honest | Adversary.Tamper_value _ | Adversary.Drop_update _
  | Adversary.Fork _ | Adversary.Rollback _ | Adversary.Stall _
  | Adversary.Freeze_epoch _ | Adversary.Bitrot _ | Adversary.Crash _
  | Adversary.Rollback_crash _ | Adversary.Torn_manifest _
  | Adversary.Checkpoint_crash _ ->
      push_history branch pre;
      branch.db <- db';
      branch.ctr <- branch.ctr + 1;
      branch.last_user <- user;
      branch.root_sig <- None;
      persist_op t branch op);
  t.total_ops <- t.total_ops + 1;
  record_routing t branch op;
  sanitize_pass t;
  Obs.incr c_queries;
  if t.config.mode = `Signed then t.awaiting_sig_on <- Some branch;
  Sim.Engine.send t.engine ~src:Sim.Id.Server ~dst:(Sim.Id.User user) response

let rec process_queue t ~round =
  if t.awaiting_sig_on = None && not (Queue.is_empty t.queue) then begin
    let user, op, piggyback = Queue.pop t.queue in
    execute_query t ~round ~user ~op ~piggyback;
    process_queue t ~round
  end

let handle_query t ~round ~user ~op ~piggyback =
  List.iter
    (function
      | Message.Backup b ->
          store_backup t b;
          log_backup_to_store t b
      | Message.Request_states _ -> ())
    piggyback;
  Queue.add (user, op, piggyback) t.queue;
  process_queue t ~round

let handle_root_signature t ~round ~signature =
  (match t.awaiting_sig_on with
  | Some branch when not t.discard_next_sig ->
      branch.root_sig <- Some signature;
      (match t.store with
      | Some store when branch == t.main -> Store.log_root_sig store signature
      | Some _ | None -> ())
  | Some _ | None -> ());
  t.discard_next_sig <- false;
  t.awaiting_sig_on <- None;
  process_queue t ~round

(* ---- Crash / recovery ----------------------------------------------- *)

(* Serve what the store holds: its database, counter, last user, root
   signature and epoch backups. The server does this when it is
   created over a store, and again after every simulated crash, once
   the store has reloaded its directory. Volatile lies die with the
   process — a forked branch and the rollback history are gone (a
   recovered server must not re-present pre-crash branch history as
   fresh). The request queue is modelled as preserved: in the paper's
   model users retransmit an unanswered query, which is
   indistinguishable from the queue surviving, and it keeps honest
   crashes free of spurious availability timeouts. *)
let adopt t store =
  let book = Store.book store in
  t.main.db <- Store.db store;
  t.main.ctr <- book.Store.ctr;
  t.main.last_user <- book.Store.last_user;
  t.main.root_sig <- book.Store.root_sig;
  t.main.history <- [];
  t.forked <- None;
  t.discard_next_sig <- false;
  Hashtbl.reset t.epoch_store;
  List.iter
    (fun (b : Store.backup) ->
      store_backup t
        {
          Message.backup_user = b.Store.user;
          backup_epoch = b.Store.epoch;
          sigma = b.Store.sigma;
          last = b.Store.last;
          backup_gctr = b.Store.gctr;
          backup_signature = b.Store.signature;
        })
    book.Store.backups;
  match t.config.mode with
  | `Signed ->
      if t.main.root_sig = None then
        if t.main.ctr = 0 then
          (* Rewound to the pristine state: the bootstrap signature
             over the initial root is common knowledge. *)
          t.main.root_sig <- t.initial_root_sig
        else
          (* Crashed mid-handshake: the operating user's signature
             is still in flight, so block the queue until it
             arrives — the restarted server rebuilds the waiting
             state from "unsigned root, non-zero counter". *)
          t.awaiting_sig_on <- Some t.main
      else t.awaiting_sig_on <- None
  | `Plain | `Token -> ()

(* Kill the server at the start of the round and restart it from the
   durable store: damage the directory as the fault would, then reload
   it. An honest [Crash] damages nothing; [Rollback_crash] leaves only
   the stale previous generation; the torn-manifest variants tear the
   MANIFEST (and its twin); [Checkpoint_crash] dies mid-checkpoint. *)
let crash_recover t ~round =
  match t.store with
  | None -> () (* no store, nothing to crash back onto *)
  | Some store -> (
      Obs.incr c_crashes;
      (match t.config.adversary with
      | Adversary.Rollback_crash _ -> Store.debug_rollback store
      | Adversary.Torn_manifest { wreck; _ } ->
          Store.debug_tear_manifest ~dir:(Store.dir store) ~wreck_backup:wreck
      | Adversary.Checkpoint_crash _ -> Store.debug_partial_checkpoint store ~db:t.main.db
      | _ -> ());
      match Store.recover store with
      | Error e ->
          (* An unrecoverable store is a loud failure, never a
             half-initialized shard map served as truth: alarm as the
             server and stop answering anything. *)
          t.halted <- true;
          Sim.Engine.alarm t.engine ~agent:Sim.Id.Server
            ~reason:("store recovery failed: " ^ e)
      | Ok () ->
          adopt t store;
          process_queue t ~round)

let maybe_crash t ~round =
  match t.config.adversary with
  | ( Adversary.Crash { at_round }
    | Adversary.Rollback_crash { at_round }
    | Adversary.Torn_manifest { at_round; _ }
    | Adversary.Checkpoint_crash { at_round } )
    when round = at_round && not t.crashed ->
      t.crashed <- true;
      crash_recover t ~round
  | _ -> ()

(* ---- Token mode ---------------------------------------------------- *)

let token_head t = match t.token_log with [] -> None | r :: _ -> Some r

let handle_token_query t ~user ~op =
  let vo = Sdb.generate_vo t.main.db op in
  Sim.Engine.send t.engine ~src:Sim.Id.Server ~dst:(Sim.Id.User user)
    (Message.Token_state { record = token_head t; vo })

let handle_token_turn t ~op ~record =
  (match op with
  | None -> ()
  | Some op ->
      let effective_op =
        match t.config.adversary with
        | Adversary.Tamper_value { at_op } when t.total_ops = at_op -> Some (tampered_op op)
        | Adversary.Drop_update { at_op } when t.total_ops = at_op -> None
        | _ -> Some op
      in
      (match effective_op with
      | None -> ()
      | Some op ->
          let db', _ = Sdb.apply t.main.db op in
          t.main.db <- db');
      t.total_ops <- t.total_ops + 1;
      sanitize_pass t);
  t.token_log <- record :: t.token_log

(* ---- Wiring --------------------------------------------------------- *)

let create ?store ?(route_counters = false) ?sign_initial_root config ~engine ~db =
  (match store with
  | Some s when Store.db s != db -> invalid_arg "Server.create: db is not the store's database"
  | Some _ | None -> ());
  let initial_root = Sdb.root_digest db in
  let initial_root_sig = Option.map (fun sign -> sign initial_root) sign_initial_root in
  let route_counters =
    if not route_counters then None
    else
      Some
        ( Array.init (Sdb.shard_count db) (fun i ->
              Obs.counter ~scope:(Obs.Scope.v (Printf.sprintf "server.s%d" i)) "ops_routed"),
          Obs.counter ~scope:obs_scope "ops_routed" )
  in
  let main =
    { db; ctr = 0; last_user = -1; root_sig = initial_root_sig; history = [] }
  in
  let t =
    {
      config;
      engine;
      initial_root;
      initial_root_sig;
      store;
      main;
      forked = None;
      queue = Queue.create ();
      awaiting_sig_on = None;
      discard_next_sig = false;
      epoch_store = Hashtbl.create 64;
      token_log = [];
      total_ops = 0;
      crashed = false;
      halted = false;
      route_counters;
    }
  in
  Option.iter
    (fun store ->
      adopt t store;
      t.total_ops <- t.main.ctr)
    store;
  let on_message ~round ~src msg =
    if t.halted then ()
    else
      match (src, msg) with
    | Sim.Id.User user, Message.Query { op; piggyback } ->
        if config.mode = `Token then handle_token_query t ~user ~op
        else handle_query t ~round ~user ~op ~piggyback
    | Sim.Id.User _, Message.Root_signature { signature; _ } ->
        handle_root_signature t ~round ~signature
    | Sim.Id.User _, Message.Token_take_turn { op; record } ->
        handle_token_turn t ~op ~record
    | _, (Message.Response _ | Message.Token_state _) -> ()
    | _, (Message.Sync_begin _ | Message.Sync_count _ | Message.Sync_registers _
         | Message.Sync_verdict _ | Message.Shard_witness _) ->
        () (* external channel traffic never reaches the server *)
    | Sim.Id.Server, _ -> ()
  in
  let on_activate ~round =
    (* Round boundary = the group-commit point: flush staged WAL
       records (and run any due compaction) before the adversary gets
       a chance to crash us, so Per_round durability loses nothing at
       a boundary crash. *)
    (match t.store with
    | Some store when not t.halted -> Store.flush store
    | Some _ | None -> ());
    maybe_crash t ~round
  in
  Sim.Engine.register engine Sim.Id.Server { on_message; on_activate };
  t

let initial_root t = t.initial_root
let ops_performed t = t.main.ctr
let true_root t = Sdb.root_digest t.main.db
(* test_protocols' "server: history cap bounds rollback snapshots" and
   test_store's "server: crash clears history" read the spine's length
   through this; nothing else can see it *)
let[@tcvs.lint.allow "dead-code"] history_length t = List.length t.main.history
