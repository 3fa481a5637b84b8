module Vo = Mtree.Vo

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
  | Token_baseline of { slot_len : int }
  | Unverified

let protocol_name = function
  | Protocol_1 { k } -> Printf.sprintf "protocol-1(k=%d)" k
  | Protocol_2 { k; tag_mode; check_gctr; sync_trigger } ->
      Printf.sprintf "protocol-2(k=%d%s%s%s)" k
        (match tag_mode with `Tagged -> "" | `Untagged -> ",untagged")
        (if check_gctr then "" else ",no-gctr")
        (match sync_trigger with `Per_user -> "" | `Global -> ",global-k")
  | Protocol_3 { epoch_len } -> Printf.sprintf "protocol-3(t=%d)" epoch_len
  | Protocol_4 { announce_every } -> Printf.sprintf "protocol-4(a=%d)" announce_every
  | Token_baseline { slot_len } -> Printf.sprintf "token(slot=%d)" slot_len
  | Unverified -> "unverified"

type setup = {
  protocol : protocol;
  users : int;
  adversary : Adversary.t;
  scheme : Pki.Signer.scheme;
  branching : int;
  initial : (string * string) list;
  seed : string;
  tail_rounds : int;
  response_timeout : int option;
  sync_timeout : int option;
  store_dir : string option;
  shards : int option;
  store_durability : Store.durability;
}

let file_key i = Printf.sprintf "src/file_%04d.ml" i

let initial_files n =
  List.init n (fun i ->
      (file_key i, Printf.sprintf "(* file %d *)\nlet version = 0\n" i))

let default_setup ~protocol ~users ~adversary =
  {
    protocol;
    users;
    adversary;
    scheme = Pki.Signer.Hmac_shared { key = "experiment-shared-key" };
    branching = 8;
    initial = initial_files 32;
    seed = Printf.sprintf "%s/%s/%d" (protocol_name protocol) (Adversary.name adversary) users;
    tail_rounds = 400;
    response_timeout = Some 64;
    sync_timeout = None;
    store_dir = None;
    shards = None;
    store_durability = Store.Per_op;
  }

type outcome = {
  rounds_run : int;
  trace : Sim.Trace.t;
  completed_transactions : int;
  issued_transactions : int;
  alarms : Sim.Engine.alarm_record list;
  oracle : Sim.Oracle.verdict;
  detected : bool;
  detection_round : int option;
  violation_round : int option;
  ops_after_violation : int;
  total_ops_after_violation : int;
  messages_sent : int;
  broadcasts_sent : int;
  bytes_sent : int;
  latencies : (int * int) list;
}

(* Content of the c-th write by [user] to file [f]: a plausible small
   source-file edit, deterministic for replayability. *)
let write_content ~user ~file ~counter =
  Printf.sprintf "(* file %d *)\nlet version = %d\nlet last_author = %d\n" file counter user

let op_of_intent ~user ~write_counts (intent : Workload.Schedule.intent) =
  match intent with
  | Workload.Schedule.Read f -> Vo.Get (file_key f)
  | Workload.Schedule.Write f ->
      let c = 1 + (try Hashtbl.find write_counts f with Not_found -> 0) in
      Hashtbl.replace write_counts f c;
      Vo.Set (file_key f, write_content ~user ~file:f ~counter:c)

type scripted = { at : int; by : int; what : Vo.op }

let script_of_events events =
  let write_counts = Hashtbl.create 64 in
  List.map
    (fun (ev : Workload.Schedule.event) ->
      {
        at = ev.round;
        by = ev.user;
        what = op_of_intent ~user:ev.user ~write_counts ev.intent;
      })
    events

(* ---- Setup validation ----------------------------------------------- *)

type setup_error =
  | Store_required of Adversary.t
  | Store_failed of string

exception Setup_error of setup_error

let setup_error_message = function
  | Store_required adv ->
      Printf.sprintf
        "adversary %s crashes and restarts the server, which only means \
         something with a durable store to recover from; rerun with \
         --store DIR (and optionally --shards N)"
        (Adversary.name adv)
  | Store_failed e -> Printf.sprintf "store setup failed: %s" e

let adversary_requires_store = function
  | Adversary.Crash _ | Adversary.Rollback_crash _ | Adversary.Torn_manifest _
  | Adversary.Checkpoint_crash _ ->
      true
  | Adversary.Honest | Adversary.Tamper_value _ | Adversary.Drop_update _
  | Adversary.Fork _ | Adversary.Rollback _ | Adversary.Stall _
  | Adversary.Freeze_epoch _ | Adversary.Bitrot _ ->
      false

let validate setup =
  if adversary_requires_store setup.adversary && setup.store_dir = None then
    Error (Store_required setup.adversary)
  else Ok ()

let obs_scope = Obs.Scope.v "detection"
let oracle_scope = Obs.Scope.v "oracle"

(* ---- User construction ---------------------------------------------- *)

let keys setup =
  Pki.Keyring.setup ~scheme:setup.scheme ~users:setup.users
    (Crypto.Prng.create ~seed:setup.seed)

let fresh_db setup initial =
  Store.Shard_db.create ~branching:setup.branching
    ~shards:(Option.value ~default:1 setup.shards)
    initial

let initial_root setup = Store.Shard_db.root_digest (fresh_db setup setup.initial)

let build_user setup ~initial_root ~trace ~keyring ~signers ~script ~user ~send ~broadcast
    ~alarm =
  let agent : User_base.agent =
    match setup.protocol with
    | Protocol_1 { k } ->
        let p1 =
          Protocol1.create
            { Protocol1.n = setup.users; k; initial_root; elected_signer = 0 }
            ~user ~trace ~keyring ~signer:signers.(user) ~send ~broadcast ~alarm
        in
        Sync_session.set_timeout (Protocol1.sync p1) ~rounds:setup.sync_timeout;
        Protocol1.agent p1
    | Protocol_2 { k; tag_mode; check_gctr; sync_trigger } ->
        let p2 =
          Protocol2.create
            { Protocol2.n = setup.users; k; initial_root; tag_mode; check_gctr; sync_trigger }
            ~user ~trace ~send ~broadcast ~alarm
        in
        Sync_session.set_timeout (Protocol2.sync p2) ~rounds:setup.sync_timeout;
        Protocol2.agent p2
    | Protocol_3 { epoch_len } ->
        Protocol3.agent
          (Protocol3.create
             { Protocol3.n = setup.users; epoch_len; initial_root }
             ~user ~trace ~keyring ~signer:signers.(user) ~send ~broadcast ~alarm)
    | Protocol_4 { announce_every } ->
        Protocol4.agent
          (Protocol4.create
             { (Protocol4.default_config ~n:setup.users ~initial_root) with announce_every }
             ~user ~trace ~send ~broadcast ~alarm)
    | Token_baseline { slot_len } ->
        Token_user.agent
          (Token_user.create
             { Token_user.n = setup.users; slot_len; initial_root }
             ~user ~trace ~keyring ~signer:signers.(user) ~send ~broadcast ~alarm)
    | Unverified -> Plain_user.agent (User_base.create ~user ~trace ~send ~broadcast ~alarm)
  in
  User_base.set_response_timeout agent.base ~rounds:setup.response_timeout;
  (* Intents are round-gated, so the user's whole share of the script
     is queued up front. *)
  List.iter
    (fun { at; by; what } ->
      if by = user then User_base.enqueue_intent agent.base ~round:at ~op:what)
    script;
  agent

let create_server ?store ?route_counters protocol ~adversary ~elected_signer ~db =
  let mode, epoch_len =
    match protocol with
    | Protocol_1 _ -> (`Signed, None)
    | Protocol_2 _ | Protocol_4 _ | Unverified -> (`Plain, None)
    | Protocol_3 { epoch_len } -> (`Plain, Some epoch_len)
    | Token_baseline _ -> (`Token, None)
  in
  let sign_initial_root =
    match protocol with
    | Protocol_1 _ ->
        Some (fun root -> Protocol1.initial_signature ~signer:(elected_signer ()) ~root)
    | Protocol_2 _ | Protocol_3 _ | Protocol_4 _ | Token_baseline _ | Unverified -> None
  in
  Server.create ?store ?route_counters ?sign_initial_root
    { Server.mode; epoch_len; adversary }
    ~db

let run_common setup ~script =
  (match validate setup with Ok () -> () | Error e -> raise (Setup_error e));
  (* Every harness run owns the whole registry: reset, then stamp the
     run's identity so a snapshot taken at any later point says what it
     measured. The reset is what makes same-seed reports byte-identical
     even when several experiments share a process. *)
  Obs.reset ();
  Obs.set_meta "protocol" (protocol_name setup.protocol);
  Obs.set_meta "adversary" (Adversary.name setup.adversary);
  Obs.set_meta "users" (string_of_int setup.users);
  Obs.set_meta "seed" setup.seed;
  (* Durable store: create or reopen before anything reads the initial
     state. A reopened directory starts a new session over its data
     (Store.rebaseline): the loaded contents *are* the initial state
     every agent (and the oracle) must agree on. The directory path
     stays out of the Obs meta so same-seed reports are byte-identical
     regardless of where the store lives. *)
  let store, initial =
    match setup.store_dir with
    | None -> (None, setup.initial)
    | Some dir -> (
        match
          Store.create_or_open ~durability:setup.store_durability ~dir
            ~branching:setup.branching
            ~shards:(Option.value ~default:1 setup.shards)
            ~initial:setup.initial ()
        with
        | Error e -> raise (Setup_error (Store_failed e))
        | Ok (s, `Fresh) -> (Some s, setup.initial)
        | Ok (s, `Reopened) ->
            Store.rebaseline s;
            (Some s, Store.Shard_db.to_alist (Store.db s)))
  in
  let engine =
    Sim.Engine.create ~measure:Message.encoded_size ~classify:Message.kind ()
  in
  let trace = Sim.Trace.create () in
  let keyring, signers = keys setup in
  let initial_db = match store with Some s -> Store.db s | None -> fresh_db setup initial in
  let sharded = store <> None || setup.shards <> None in
  if sharded then
    Obs.set_meta "shards" (string_of_int (Store.Shard_db.shard_count initial_db));
  let server =
    Server.on_engine engine
      (create_server ?store ~route_counters:sharded setup.protocol ~adversary:setup.adversary
         ~elected_signer:(fun () -> signers.(0)) ~db:initial_db)
  in
  (* The server composed M(D₀) once: for N ≥ 2 shards it is one extra
     hash level over the sorted shard roots. *)
  let initial_root = Server.initial_root server in
  let bases =
    Array.init setup.users (fun user ->
        (User_base.on_engine engine ~user ~agent:Fun.id
           (build_user setup ~initial_root ~trace ~keyring ~signers ~script ~user))
          .User_base.base)
  in
  let last_event_round = List.fold_left (fun acc { at; _ } -> max acc at) 0 script in
  let max_rounds = last_event_round + setup.tail_rounds in
  let all_drained () =
    Array.for_all
      (fun b -> User_base.pending_intents b = 0 && User_base.in_flight_op b = None)
      bases
  in
  let _ =
    Sim.Engine.run_until engine ~max_rounds (fun () ->
        Sim.Engine.first_alarm engine <> None
        || (all_drained () && Sim.Engine.round engine >= last_event_round + 8))
  in
  (* Give trailing syncs / epoch verifications a chance even after the
     work is done (unless an alarm already fired). *)
  if Sim.Engine.first_alarm engine = None then
    ignore
      (Sim.Engine.run_until engine
         ~max_rounds:setup.tail_rounds
         (fun () -> Sim.Engine.first_alarm engine <> None));
  (* End-of-run sanitizer backstop: the server validates after every
     mutation, but a run that ends quietly (or a mode with no
     mutations) still deserves one final full-state check. *)
  if Sanitize.enabled () then begin
    Sanitize.count_check ();
    match Server.check_invariants server with
    | Ok () -> ()
    | Error reason ->
        Sim.Engine.alarm engine ~agent:Sim.Id.Server ~reason:("sanitize: " ^ reason)
  end;
  let alarms = Sim.Engine.alarms engine in
  let oracle =
    (* A sharded run exchanges composed roots, so the oracle must
       replay against a sharded database too — single-tree replay
       would false-flag every transition. *)
    if Store.Shard_db.shard_count initial_db > 1 then
      Sim.Oracle.replay_with ~init:initial_db ~apply:Store.Shard_db.apply
        ~root:Store.Shard_db.root_digest trace
    else Sim.Oracle.replay ~branching:setup.branching ~initial trace
  in
  (match store with Some s -> Store.close s | None -> ());
  let violation_round =
    match Adversary.violation_round setup.adversary with
    | Some r -> Some r
    | None -> (
    match Adversary.violation_op setup.adversary with
    | None -> None
    | Some at_op -> (
        (* The server's at_op-th processed operation corresponds to the
           trace transaction with seq = at_op (token null turns are not
           traced but also don't advance the data op counter used by
           triggers when op = None). *)
        match
          List.find_opt (fun (tx : Sim.Trace.transaction) -> tx.seq = at_op)
            (Sim.Trace.transactions trace)
        with
        | Some tx -> (
            match tx.completed_round with Some r -> Some r | None -> Some tx.issued_round)
        | None -> None))
  in
  let detection_round =
    match alarms with [] -> None | a :: _ -> Some a.Sim.Engine.at_round
  in
  let ops_after_violation, total_ops_after_violation =
    match violation_round with
    | None -> (0, 0)
    | Some vr ->
        let users = List.init setup.users Fun.id in
        let per_user =
          List.map (fun u -> Sim.Trace.completed_after trace ~round:vr ~user:u) users
        in
        (List.fold_left max 0 per_user, List.fold_left ( + ) 0 per_user)
  in
  (* Latency: pair each user's completed transactions with that user's
     scheduled operations, in order. *)
  let latencies =
    let by_user = Hashtbl.create 8 in
    List.iter
      (fun { at; by; _ } ->
        Hashtbl.replace by_user by (at :: (try Hashtbl.find by_user by with Not_found -> [])))
      (List.rev script);
    List.filter_map
      (fun (tx : Sim.Trace.transaction) ->
        match tx.completed_round with
        | None -> None
        | Some done_round -> (
            match Hashtbl.find_opt by_user tx.user with
            | Some (scheduled :: rest) ->
                Hashtbl.replace by_user tx.user rest;
                Some (tx.user, done_round - scheduled)
            | Some [] | None -> None))
      (Sim.Trace.completed trace)
  in
  let completed = List.length (Sim.Trace.completed trace) in
  (* Fold the run's verdict into the registry so a report written from
     any snapshot point carries the headline numbers. *)
  List.iter (fun (_, l) -> Obs.observe (Obs.histogram ~scope:(Obs.Scope.v "run") "latency_rounds") l) latencies;
  (match detection_round with
  | Some r ->
      Obs.incr (Obs.counter ~scope:obs_scope "detected");
      Obs.record_max (Obs.counter ~scope:obs_scope "round") r
  | None -> ());
  (match violation_round with
  | Some r -> Obs.record_max (Obs.counter ~scope:obs_scope "violation_round") r
  | None -> ());
  Obs.add (Obs.counter ~scope:obs_scope "ops_after_violation") ops_after_violation;
  Obs.add (Obs.counter ~scope:obs_scope "total_ops_after_violation") total_ops_after_violation;
  (match detection_round, violation_round with
  | Some d, Some v when d >= v ->
      Obs.record_max (Obs.counter ~scope:obs_scope "latency_rounds") (d - v)
  | _ -> ());
  if oracle.Sim.Oracle.deviated then Obs.incr (Obs.counter ~scope:oracle_scope "deviates");
  if completed > 0 then begin
    Obs.set_gauge ~scope:(Obs.Scope.v "run") "messages_per_op"
      (float_of_int (Sim.Engine.messages_sent engine) /. float_of_int completed);
    Obs.set_gauge ~scope:(Obs.Scope.v "run") "bytes_per_op"
      (float_of_int (Sim.Engine.bytes_sent engine) /. float_of_int completed)
  end;
  {
    rounds_run = Sim.Engine.round engine;
    trace;
    completed_transactions = completed;
    issued_transactions = Sim.Trace.count trace;
    alarms;
    oracle;
    detected = alarms <> [];
    detection_round;
    violation_round;
    ops_after_violation;
    total_ops_after_violation;
    messages_sent = Sim.Engine.messages_sent engine;
    broadcasts_sent = Sim.Engine.broadcasts_sent engine;
    bytes_sent = Sim.Engine.bytes_sent engine;
    latencies;
  }

let run_script setup ~script = run_common setup ~script

let run setup ~events = run_common setup ~script:(script_of_events events)

let classify outcome =
  let violation = outcome.violation_round <> None in
  match (violation, outcome.detected) with
  | true, true -> `True_alarm
  | false, true -> `False_alarm
  | true, false -> `Missed
  | false, false -> `Clean
