type 'report protocol = {
  report : unit -> 'report;
  message : session:int -> 'report -> Message.t;
  read : Message.t -> (int * int * 'report) option;
  success : (int * 'report) list -> bool;
  confirmed : (int * 'report) list -> int;
  failure : string;
  on_server : round:int -> Message.t -> unit;
}

type 'report event = Begin | Report of int * 'report | Verdict of int * bool

type 'report t = {
  base : User_base.t;
  n : int;
  k : int;
  trigger : [ `Per_user | `Global ];
  scope : Obs.Scope.t;
  name : string;
  (* Every user observes every session resolve, so the shared counter
     uses record_max over per-user session counts rather than
     increments (an increment per user would report n× the number of
     sessions). *)
  c_syncs_completed : Obs.counter;
  c_sync_failures : Obs.counter;
  h_sync_rounds : Obs.histogram;
  c_my_syncs : Obs.counter;
  mutable timeout : int option;
  mutable session : int; (* the session this user is in, or enters next *)
  mutable active : bool;
  mutable started_round : int;
  reports : (int, 'report) Hashtbl.t;
  verdicts : (int, bool) Hashtbl.t;
  mutable held : (int * 'report event) list; (* later sessions, oldest first *)
  mutable ops_since_sync : int;
  mutable last_good : int; (* highest prefix confirmed by a session *)
  mutable syncs_completed : int;
}

let create base ~n ~k ~trigger ~scope ~name =
  {
    base;
    n;
    k;
    trigger;
    scope;
    name;
    c_syncs_completed = Obs.counter ~scope "syncs_completed";
    c_sync_failures = Obs.counter ~scope "sync_failures";
    h_sync_rounds = Obs.histogram ~scope "sync_rounds";
    c_my_syncs =
      Obs.counter ~scope:Obs.Scope.(scope / Printf.sprintf "u%d" (User_base.user base)) "syncs";
    timeout = None;
    session = 0;
    active = false;
    started_round = 0;
    reports = Hashtbl.create 8;
    verdicts = Hashtbl.create 8;
    held = [];
    ops_since_sync = 0;
    last_good = 0;
    syncs_completed = 0;
  }

(* test_protocols' scripted-peer "sync: ..." cases count the sessions
   the real user resolved through this *)
let[@tcvs.lint.allow "dead-code"] syncs_completed t = t.syncs_completed
let set_timeout t ~rounds = t.timeout <- rounds
let me t = User_base.user t.base

let broadcast t msg = User_base.broadcast t.base msg

let activate t ~round =
  if not t.active then begin
    t.active <- true;
    t.started_round <- round
  end

let op_completed t ~round ~gctr =
  t.ops_since_sync <- t.ops_since_sync + 1;
  let due =
    match t.trigger with
    | `Per_user -> t.ops_since_sync >= t.k
    | `Global -> gctr - t.last_good >= t.k
  in
  if due && not t.active then begin
    activate t ~round;
    broadcast t (Message.Sync_begin { session = t.session; initiator = me t })
  end

(* Enumerate users 0..n-1 instead of folding over the table: the user
   order is then fixed by construction, not by hashing. *)
let reports t =
  List.concat
    (List.init t.n (fun user ->
         match Hashtbl.find_opt t.reports user with Some r -> [ (user, r) ] | None -> []))

(* Report once idle; send my verdict once all reports are in; resolve
   once all verdicts are. A success resolves the session and replays
   what the next session sent meanwhile. *)
let rec step t p ~round =
  if t.active && (not (Hashtbl.mem t.reports (me t))) && User_base.in_flight_op t.base = None
  then begin
    let report = p.report () in
    Hashtbl.replace t.reports (me t) report;
    broadcast t (p.message ~session:t.session report)
  end;
  if t.active then begin
    if Hashtbl.length t.reports >= t.n && not (Hashtbl.mem t.verdicts (me t)) then begin
      let success = p.success (reports t) in
      Hashtbl.replace t.verdicts (me t) success;
      broadcast t (Message.Sync_verdict { session = t.session; reporter = me t; success })
    end;
    if Hashtbl.length t.verdicts >= t.n then begin
      if List.exists (fun u -> Hashtbl.find_opt t.verdicts u = Some true) (List.init t.n Fun.id)
      then resolve t p ~round
      else begin
        Obs.incr t.c_sync_failures;
        (* Fault localisation (the paper's future direction (1)): the
           previous successful sync certified the prefix up to the last
           confirmed counter, so the fault lies in the window after it. *)
        User_base.terminate t.base ~round
          ~reason:
            (Printf.sprintf "%s sync failed: %s (fault after operation %d, the last synced prefix)"
               t.name p.failure t.last_good)
      end
    end
  end

and resolve t p ~round =
  let confirmed = p.confirmed (reports t) in
  t.last_good <- max t.last_good confirmed;
  Obs.observe t.h_sync_rounds (round - t.started_round);
  if Obs.tracing () then
    Obs.Trace.emit ~scope:t.scope ~dur:(round - t.started_round) ~at:round ~name:"sync"
      (Printf.sprintf "u%d session resolved ok (gctr=%d)" (me t) confirmed);
  t.active <- false;
  Hashtbl.reset t.reports;
  Hashtbl.reset t.verdicts;
  t.session <- t.session + 1;
  t.ops_since_sync <- 0;
  t.syncs_completed <- t.syncs_completed + 1;
  Obs.incr t.c_my_syncs;
  Obs.record_max t.c_syncs_completed t.syncs_completed;
  let now, later = List.partition (fun (session, _) -> session = t.session) t.held in
  t.held <- later;
  List.iter (fun (_, ev) -> on_event t p ~round ev) now

and on_event t p ~round ev =
  (match ev with
  | Begin -> activate t ~round
  | Report (reporter, report) ->
      activate t ~round;
      Hashtbl.replace t.reports reporter report
  | Verdict (reporter, success) -> Hashtbl.replace t.verdicts reporter success);
  step t p ~round

let event p : Message.t -> (int * _ event) option = function
  | Message.Sync_begin { session; _ } -> Some (session, Begin)
  | Message.Sync_verdict { session; reporter; success } ->
      Some (session, Verdict (reporter, success))
  | msg ->
      Option.map (fun (session, reporter, r) -> (session, Report (reporter, r))) (p.read msg)

let handle t p ~round ~src msg =
  if not (User_base.terminated t.base) then
    match src with
    | Sim.Id.Server ->
        p.on_server ~round msg;
        step t p ~round
    | Sim.Id.User _ -> (
        match event p msg with
        | Some (session, ev) when session = t.session -> on_event t p ~round ev
        | Some (session, ev) when session > t.session -> t.held <- t.held @ [ (session, ev) ]
        | Some _ | None -> ())

let tick t p ~round =
  if not (User_base.terminated t.base) then begin
    User_base.check_timeout t.base ~round;
    (match t.timeout with
    | Some limit when t.active && round - t.started_round > limit ->
        User_base.terminate t.base ~round
          ~reason:
            (Printf.sprintf
               "%s sync stuck for %d rounds — external broadcast channel partitioned or a \
                peer is withholding its report"
               t.name (round - t.started_round))
    | Some _ | None -> ());
    step t p ~round;
    if t.active then User_base.note_blocked t.base ~round
    else ignore (User_base.issue t.base ~round ~piggyback:[])
  end

let agent t p = { User_base.base = t.base; handle = handle t p; tick = tick t p }
