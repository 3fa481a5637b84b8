let src = Logs.Src.create "tcvs.net.client" ~doc:"Trusted-CVS TCP client"

module Log = (val Logs.src_log src : Logs.LOG)
module Message = Tcvs.Message
module Harness = Tcvs.Harness
module User_base = Tcvs.User_base

let obs_scope = Obs.Scope.v "net.client"
let c_retransmits = Obs.counter ~scope:obs_scope "retransmits"
let c_reconnects = Obs.counter ~scope:obs_scope "reconnects"
let c_dup_delivers = Obs.counter ~scope:obs_scope "dup_delivers"

type config = {
  host : string;
  port : int;
  user : int;
  users : int;
  protocol : Harness.protocol;
  files : int;
  branching : int;
  shards : int;
  seed : string;
  script : Harness.scripted list;
  response_timeout : int option;
  sync_timeout : int option;
  max_reconnects : int;
  journal : string option; (* JSONL span journal for trace-join *)
}

let default_config ~user ~port =
  {
    host = "127.0.0.1";
    port;
    user;
    users = 4;
    protocol = Harness.Protocol_2
        { k = 8; tag_mode = `Tagged; check_gctr = true; sync_trigger = `Per_user };
    files = 32;
    branching = 8;
    shards = 1;
    seed = "net-session";
    script = [];
    response_timeout = Some 64;
    sync_timeout = None;
    max_reconnects = 8;
    journal = None;
  }

(* Seconds per connect + handshake; base seconds of the reconnect
   backoff (doubling per attempt); base retransmission backoff in
   ticks; seconds of silence on an established lockstep link before it
   is declared wedged and redialled. *)
let dial_timeout = 5.0
let redial_backoff = 0.25
let retrans_base = 4
let silence_limit = 10.0

type verdict = {
  v_alarmed : bool;
  v_local_alarms : (int * string) list;
  v_transactions : Sim.Trace.transaction list;
  v_session_alarmed : bool;
  v_session_reason : string;
  v_rounds : int;
  v_reconnects : int;
}

(* ---- Lockstep session ------------------------------------------------ *)

(* A dial returns at once and the Welcome arrives as a frame, due
   [dial_timeout] after the dial; a lost link is redialled at a
   jittered backoff time, counting attempts per outage. *)
type link =
  | Joining of int * float (* redial attempt, Welcome due by *)
  | Up
  | Redial of int * float (* attempt, dial at *)

type pending = {
  p_frame : Codec.frame;
  mutable p_last_sent : int; (* tick *)
  mutable p_attempt : int;
}

type session = {
  cfg : config;
  outbox : Message.t Queue.t; (* the agent's server-bound sends of this round *)
  inbound : (Sim.Id.t * Message.t) Queue.t; (* for the agent, at its next tick *)
  mutable alarms : (int * string) list; (* (round, reason), newest first *)
  unacked : (int, pending) Hashtbl.t; (* seq → awaiting Reply/Ack *)
  seen : (int * int, unit) Hashtbl.t; (* delivered (src, sseq) *)
  rng : Crypto.Prng.t; (* retransmission jitter *)
  initial_root : string; (* M(D₀), common knowledge *)
  addr : Unix.inet_addr; (* [cfg.host], resolved once *)
  mutable conn : Conn.t;
  mutable link : link;
  mutable seq : int;
  mutable last_stepped : int;
  mutable generation : int;
  mutable boot_id : string;
  mutable reconnects : int;
  mutable last_rx : float; (* wall clock of the last complete frame *)
  mutable finished : (bool * string * int) option; (* Session_end *)
  mutable fatal : string option;
  journal : Obs.Journal.t option;
}

let jot s ?span ?dur_us ~ev detail =
  match s.journal with
  | Some j ->
      Obs.Journal.event j ~user:s.cfg.user ?span ?dur_us ~round:s.last_stepped
        ~ev detail
  | None -> ()

let local_alarm s reason = s.alarms <- (s.last_stepped, reason) :: s.alarms

(* Number [msg] from the client's one counter, frame it with [make]
   (a Request or a Publish), send it and track it until acknowledged. *)
let track_and_send s make msg =
  s.seq <- s.seq + 1;
  let seq = s.seq in
  let frame = make seq { Codec.x_round = s.last_stepped; x_user = s.cfg.user; x_span = seq } msg in
  Hashtbl.replace s.unacked seq
    { p_frame = frame; p_last_sent = s.last_stepped; p_attempt = 0 };
  Log.debug (fun f ->
      f "send %s seq %d (tick %d)" (Codec.frame_kind frame) seq s.last_stepped);
  jot s ~span:seq ~ev:"client.send" (Codec.frame_kind frame);
  Conn.send s.conn frame

(* The exponential backoff must stay far inside the availability bound:
   the user agent alarms after [response_timeout] rounds without a
   response (the paper's b* detection), and that alarm must mean "the
   server is withholding service", never "the transport backed off past
   the detector". Capping at response_timeout/8 leaves ~9 transmissions
   inside the window, so only a genuinely unresponsive server trips
   it. *)
let retransmit_due s ~tick =
  let cap =
    match s.cfg.response_timeout with
    | Some rt -> max retrans_base (rt / 8)
    | None -> retrans_base * (1 lsl 6)
  in
  Hashtbl.iter
    (fun sq p ->
      let backoff = min cap (retrans_base * (1 lsl min p.p_attempt 6)) in
      let jitter = Crypto.Prng.int s.rng (retrans_base + 1) in
      if tick - p.p_last_sent >= backoff + jitter then begin
        p.p_last_sent <- tick;
        p.p_attempt <- p.p_attempt + 1;
        Obs.incr c_retransmits;
        Log.debug (fun f ->
            f "retransmit %s (attempt %d, tick %d)"
              (Codec.frame_kind p.p_frame) p.p_attempt tick);
        (* same seq, hence same span id: a retransmission is more of the
           same op, never a new one *)
        jot s ~span:sq ~ev:"client.retransmit"
          (Printf.sprintf "attempt %d" p.p_attempt);
        Conn.send s.conn p.p_frame
      end)
    s.unacked

let request s = track_and_send s (fun seq ctx msg -> Codec.Request { seq; ctx; msg })

(* A broadcast leaves in the tick that made it. The daemon relays a
   Publish as soon as it arrives, before this client's Tick_done, and
   every link is FIFO, so each peer holds it before the next Tick: one
   round, as in the simulator. *)
let publish s = track_and_send s (fun seq ctx msg -> Codec.Publish { seq; ctx; msg })

let send_tick_done s (a : User_base.agent) ~round =
  let drained =
    User_base.pending_intents a.base = 0 && User_base.in_flight_op a.base = None
    && Hashtbl.length s.unacked = 0 && Queue.is_empty s.outbox
  in
  Conn.send s.conn (Codec.Tick_done { round; drained; alarmed = s.alarms <> [] })

(* A round's messages in the simulator's order, as far as a client can
   tell it: the server's reply first, since the server answers while a
   round is delivered, before any user ticks; then peers' broadcasts in
   user order, since users tick in order, each peer's in sending order.
   Socket arrival order would be a race between peers. *)
let sender_rank = function Sim.Id.Server -> -1 | Sim.Id.User v -> v

(* Round r of the agent, as the simulator runs it: what it sent the
   server in round r-1 leaves now (the daemon serves it in round r),
   then it gets what arrived since its last tick, then it ticks. A Tick
   that skips rounds runs each of them. *)
let handle_tick s (a : User_base.agent) ~round =
  if round <= s.last_stepped then begin
    Log.debug (fun f ->
        f "duplicate tick %d (at %d), resending tick_done" round s.last_stepped);
    send_tick_done s a ~round
  end
  else begin
    while s.last_stepped < round do
      s.last_stepped <- s.last_stepped + 1;
      let round = s.last_stepped in
      Queue.iter (request s) s.outbox;
      Queue.clear s.outbox;
      List.iter
        (fun (src, msg) -> a.handle ~round ~src msg)
        (List.stable_sort
           (fun (x, _) (y, _) -> Int.compare (sender_rank x) (sender_rank y))
           (List.of_seq (Queue.to_seq s.inbound)));
      Queue.clear s.inbound;
      a.tick ~round
    done;
    retransmit_due s ~tick:round;
    send_tick_done s a ~round
  end

let handle_frame s a frame =
  match frame with
  | Codec.Tick { round } -> handle_tick s a ~round
  | Codec.Reply { seq; msg; _ } ->
      if Hashtbl.mem s.unacked seq then begin
        Log.debug (fun f -> f "reply for seq %d" seq);
        jot s ~span:seq ~ev:"client.reply" (Message.kind msg);
        Hashtbl.remove s.unacked seq;
        Queue.add (Sim.Id.Server, msg) s.inbound
      end
      else Log.debug (fun f -> f "duplicate reply for seq %d ignored" seq)
  | Codec.Ack { seq } ->
      Log.debug (fun f -> f "ack for seq %d" seq);
      if Hashtbl.mem s.unacked seq then
        jot s ~span:seq ~ev:"client.reply" "ack";
      Hashtbl.remove s.unacked seq
  | Codec.Deliver { src = dsrc; sseq; msg; _ } ->
      Conn.send s.conn (Codec.Deliver_ack { src = dsrc; sseq });
      if Hashtbl.mem s.seen (dsrc, sseq) then Obs.incr c_dup_delivers
      else begin
        Hashtbl.replace s.seen (dsrc, sseq) ();
        Queue.add (Sim.Id.User dsrc, msg) s.inbound
      end
  | Codec.Session_end { round; alarmed; reason } ->
      s.finished <- Some (alarmed, reason, round)
  | Codec.Error_frame { code = Codec.Lost_reply; detail } ->
      (* an op of ours was executed but its effect on us is unknowable —
         exactly the situation the paper's user terminates on *)
      local_alarm s ("server lost a reply across a crash: " ^ detail)
  | Codec.Error_frame { code; detail } ->
      s.fatal <-
        Some
          (Printf.sprintf "server error (%s): %s"
             (Codec.error_code_to_string code)
             detail)
  | Codec.Bye -> ()
  | Codec.Hello _ | Codec.Welcome _ | Codec.Request _ | Codec.Publish _
  | Codec.Deliver_ack _ | Codec.Tick_done _ | Codec.Prepare _ | Codec.Shard_root _
  | Codec.Commit _ ->
      s.fatal <- Some ("unexpected frame: " ^ Codec.frame_kind frame)

let send_hello s =
  Conn.send s.conn
    (Codec.hello ~role:Codec.Lockstep ~user:s.cfg.user ~users:s.cfg.users ~round:s.last_stepped)

let connect_error s e = Printf.sprintf "connect %s:%d: %s" s.cfg.host s.cfg.port e

(* Redial attempt [i] of this outage, within the reconnect budget: at
   once for the first, after a jittered backoff for the rest. *)
let schedule_redial s i =
  if i > s.cfg.max_reconnects then
    s.fatal <- Some (Printf.sprintf "server unreachable after %d reconnect attempts" i)
  else begin
    let backoff =
      (redial_backoff *. float_of_int (1 lsl min i 6)) *. (0.5 +. Crypto.Prng.float s.rng)
    in
    s.link <- Redial (i, Unix.gettimeofday () +. if i > 0 then backoff else 0.)
  end

(* A dial or handshake that ended without a Welcome: an environment
   failure on first contact, the next attempt on a redial. *)
let join_failed s i why =
  Conn.close s.conn;
  if s.boot_id = "" then s.fatal <- Some why
  else begin
    Log.info (fun f -> f "reconnect %d failed: %s" i why);
    schedule_redial s (i + 1)
  end

let handle_welcome s i (w : Codec.welcome) =
  let first_contact = s.boot_id = "" in
  if first_contact then begin
    (* M(D₀) is common knowledge — a fresh store that doesn't serve it
       is not our session *)
    if w.Codec.w_ctr = 0 && w.Codec.w_root <> s.initial_root then
      local_alarm s "handshake: server's initial root is not M(D0)"
  end
  else begin
    if w.Codec.w_generation < s.generation then
      local_alarm s
        (Printf.sprintf
           "handshake: store generation regressed %d -> %d across restart"
           s.generation w.Codec.w_generation);
    if w.Codec.w_boot_id <> s.boot_id then
      Log.info (fun f ->
          f "server restarted (boot %s -> %s), revalidated" s.boot_id
            w.Codec.w_boot_id)
  end;
  s.generation <- max s.generation w.Codec.w_generation;
  s.boot_id <- w.Codec.w_boot_id;
  (* a restarted daemon has lost its relay/outstanding state: offer
     everything unacknowledged again, immediately *)
  Hashtbl.iter (fun _ p -> Conn.send s.conn p.p_frame) s.unacked;
  s.link <- Up;
  if not first_contact then jot s ~ev:"client.reconnect" (Printf.sprintf "attempt %d" i)

(* Link supervision before each turn: dead-peer detection on an
   established link, the Welcome deadline on a joining one, the redial
   time of a lost one. *)
let check_link s =
  let now = Unix.gettimeofday () in
  match s.link with
  | Up when Conn.eof s.conn || now -. s.last_rx > silence_limit ->
      (* Dead-peer detection: the round clock guarantees a frame at
         least every half second while the daemon is alive, so
         prolonged silence means the link (not the protocol) is wedged
         — tear it down and let the redial, which the daemon answers
         with a fresh Tick, recover the round. *)
      if not (Conn.eof s.conn) then
        Log.warn (fun f -> f "no frame for %.1fs — link wedged, reconnecting" silence_limit);
      Conn.close s.conn;
      schedule_redial s 0
  | Joining (i, due) when Conn.eof s.conn || now > due ->
      join_failed s i
        (match Conn.dial_error s.conn with
        | Some e -> connect_error s e
        | None when Conn.eof s.conn -> "handshake: connection closed"
        | None -> "handshake: no Welcome before timeout")
  | Redial (i, at) when now >= at -> (
      match Loop.dial s.addr s.cfg.port with
      | Error e -> join_failed s i (connect_error s e)
      | Ok conn ->
          s.conn <- conn;
          s.reconnects <- s.reconnects + 1;
          Obs.incr c_reconnects;
          send_hello s;
          s.link <- Joining (i, now +. dial_timeout))
  | Up | Joining _ | Redial _ -> ()

let on_frame s a frame =
  s.last_rx <- Unix.gettimeofday ();
  match (s.link, frame) with
  | Up, _ -> handle_frame s a frame
  | Joining (i, _), Codec.Welcome w -> handle_welcome s i w
  | Joining (i, _), Codec.Error_frame { code; detail } ->
      join_failed s i
        (Printf.sprintf "handshake rejected (%s): %s"
           (Codec.error_code_to_string code)
           detail)
  | Joining (i, _), f -> join_failed s i ("handshake: unexpected " ^ Codec.frame_kind f)
  | Redial _, _ -> ()

(* The event-loop root: the client's frame handlers and its link
   supervision run between two selects of its one loop, which waits
   at most until the next redial. Nothing is dispatched once the
   session has ended or failed. *)
let[@tcvs.lint.root "event-loop"] drive s (a : User_base.agent) =
  let live () = s.finished = None && s.fatal = None in
  let rec loop () =
    if live () then check_link s;
    match (s.finished, s.fatal) with
    | Some (session_alarmed, reason, round), _ ->
        Conn.send s.conn Codec.Bye;
        Conn.flush s.conn;
        Conn.close s.conn;
        Ok
          {
            v_alarmed = session_alarmed || s.alarms <> [];
            v_local_alarms = List.rev s.alarms;
            v_transactions = Sim.Trace.completed (User_base.trace a.base);
            v_session_alarmed = session_alarmed;
            v_session_reason = reason;
            v_rounds = round;
            v_reconnects = s.reconnects;
          }
    | None, Some e ->
        Conn.close s.conn;
        Error e
    | None, None ->
        let timeout =
          match s.link with
          | Redial (_, at) -> Float.min 0.25 (Float.max 0. (at -. Unix.gettimeofday ()))
          | Up | Joining _ -> 0.25
        in
        Loop.turn ~timeout
          [
            Loop.Frames
              ( s.conn,
                (fun frame -> if live () then on_frame s a frame),
                fun e ->
                  let e = Codec.error_to_string e in
                  match s.link with
                  | _ when not (live ()) -> ()
                  | Joining (i, _) -> join_failed s i ("handshake: " ^ e)
                  | Up | Redial _ -> s.fatal <- Some ("bad frame from server: " ^ e) );
          ];
        loop ()
  in
  loop ()

(* The session's transport, then its user exactly as the in-process
   harness builds it, sending through this client. *)
let build_session cfg addr conn =
  let setup =
    {
      (Harness.default_setup ~protocol:cfg.protocol ~users:cfg.users
         ~adversary:Tcvs.Adversary.Honest)
      with
      Harness.branching = cfg.branching;
      initial = Harness.initial_files cfg.files;
      seed = cfg.seed;
      response_timeout = cfg.response_timeout;
      sync_timeout = cfg.sync_timeout;
      shards = Some cfg.shards;
    }
  in
  let s =
    {
      cfg;
      outbox = Queue.create ();
      inbound = Queue.create ();
      alarms = [];
      unacked = Hashtbl.create 16;
      seen = Hashtbl.create 64;
      rng =
        Crypto.Prng.split
          (Crypto.Prng.create ~seed:cfg.seed)
          ~label:(Printf.sprintf "net-client-%d" cfg.user);
      initial_root = Harness.initial_root setup;
      addr;
      conn;
      link = Joining (0, Unix.gettimeofday () +. dial_timeout);
      seq = 0;
      last_stepped = 0;
      generation = 0;
      boot_id = "";
      reconnects = 0;
      last_rx = Unix.gettimeofday ();
      finished = None;
      fatal = None;
      journal =
        Option.map
          (fun p -> Obs.Journal.open_ ~proc:(Printf.sprintf "client%d" cfg.user) p)
          cfg.journal;
    }
  in
  let keyring, signers = Harness.keys setup in
  let agent =
    Harness.build_user setup ~initial_root:s.initial_root ~trace:(Sim.Trace.create ())
      ~keyring ~signers ~script:cfg.script ~user:cfg.user
      ~send:(fun msg -> Queue.add msg s.outbox)
      ~broadcast:(publish s) ~alarm:(local_alarm s)
  in
  (s, agent)

let run cfg =
  match
    Result.bind (Loop.resolve cfg.host) (fun addr ->
        Result.map (fun conn -> (addr, conn)) (Loop.dial addr cfg.port))
  with
  | Error e -> Error (Printf.sprintf "connect %s:%d: %s" cfg.host cfg.port e)
  | Ok (addr, conn) ->
      let s, agent = build_session cfg addr conn in
      send_hello s;
      let r = drive s agent in
      Option.iter Obs.Journal.close s.journal;
      r
