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
  v_session_alarmed : bool;
  v_session_reason : string;
  v_rounds : int;
  v_reconnects : int;
}

(* ---- Lockstep session ------------------------------------------------ *)

type pending = {
  p_frame : Codec.frame;
  mutable p_last_sent : int; (* tick *)
  mutable p_attempt : int;
}

type session = {
  cfg : config;
  engine : Message.t Sim.Engine.t;
  base : User_base.t;
  to_server : Message.t Queue.t; (* captured user→server sends *)
  to_peers : Message.t Queue.t; (* captured broadcasts *)
  inbound : (Sim.Id.t * Message.t) Queue.t; (* to inject before next step *)
  unacked : (int, pending) Hashtbl.t; (* seq → awaiting Reply/Ack *)
  seen : (int * int, unit) Hashtbl.t; (* delivered (src, sseq) *)
  rng : Crypto.Prng.t; (* retransmission jitter *)
  initial_root : string; (* M(D₀), common knowledge *)
  mutable conn : Conn.t;
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

let local_alarm s reason =
  Sim.Engine.alarm s.engine ~agent:(Sim.Id.User s.cfg.user) ~reason

let next_seq s =
  s.seq <- s.seq + 1;
  s.seq

let track_and_send s frame =
  let seq =
    match frame with
    | Codec.Request { seq; _ } | Codec.Publish { seq; _ } -> seq
    | _ -> invalid_arg "track_and_send"
  in
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

let drained s =
  User_base.pending_intents s.base = 0
  && User_base.in_flight_op s.base = None
  && Hashtbl.length s.unacked = 0
  && Queue.is_empty s.to_server && Queue.is_empty s.to_peers

let alarmed s = Sim.Engine.first_alarm s.engine <> None

let send_tick_done s ~round =
  Conn.send s.conn
    (Codec.Tick_done { round; drained = drained s; alarmed = alarmed s })

let handle_tick s ~round =
  if round <= s.last_stepped then begin
    Log.debug (fun f ->
        f "duplicate tick %d (at %d), resending tick_done" round s.last_stepped);
    send_tick_done s ~round
  end
  else begin
    (* inject everything received since the last step — the local
       engine delivers sends enqueued now at the very next step *)
    Queue.iter
      (fun (from, msg) ->
        Sim.Engine.send s.engine ~src:from ~dst:(Sim.Id.User s.cfg.user) msg)
      s.inbound;
    Queue.clear s.inbound;
    while s.last_stepped < round do
      Sim.Engine.step s.engine;
      s.last_stepped <- s.last_stepped + 1
    done;
    let ctx seq =
      { Codec.x_round = s.last_stepped; x_user = s.cfg.user; x_span = seq }
    in
    Queue.iter
      (fun msg ->
        let seq = next_seq s in
        track_and_send s (Codec.Request { seq; ctx = ctx seq; msg }))
      s.to_server;
    Queue.clear s.to_server;
    Queue.iter
      (fun msg ->
        let seq = next_seq s in
        track_and_send s (Codec.Publish { seq; ctx = ctx seq; msg }))
      s.to_peers;
    Queue.clear s.to_peers;
    retransmit_due s ~tick:round;
    send_tick_done s ~round
  end

let handle_frame s frame =
  match frame with
  | Codec.Tick { round } -> handle_tick s ~round
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

let handshake s =
  Conn.send s.conn
    (Codec.Hello
       {
         Codec.h_version = Codec.protocol_version;
         h_role = Codec.Lockstep;
         h_user = s.cfg.user;
         h_users = s.cfg.users;
         h_round = s.last_stepped;
       });
  Conn.flush s.conn;
  match Sock.await_frame s.conn ~timeout:dial_timeout with
  | Error e -> Error ("handshake: " ^ e)
  | Ok None -> Error "handshake: no Welcome before timeout"
  | Ok (Some (Codec.Welcome w)) ->
      if s.boot_id = "" then begin
        (* first contact: M(D₀) is common knowledge — a fresh store
           that doesn't serve it is not our session *)
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
      Ok ()
  | Ok (Some (Codec.Error_frame { code; detail })) ->
      Error
        (Printf.sprintf "handshake rejected (%s): %s"
           (Codec.error_code_to_string code)
           detail)
  | Ok (Some f) -> Error ("handshake: unexpected " ^ Codec.frame_kind f)

let reconnect s =
  let rec attempt i =
    if i > s.cfg.max_reconnects then
      Error
        (Printf.sprintf "server unreachable after %d reconnect attempts" i)
    else begin
      let backoff =
        (redial_backoff *. float_of_int (1 lsl min i 6))
        *. (0.5 +. Crypto.Prng.float s.rng)
      in
      if i > 0 then ignore (Unix.select [] [] [] backoff);
      match Sock.connect_fd ~host:s.cfg.host ~port:s.cfg.port ~timeout:dial_timeout with
      | Error e ->
          Log.info (fun f -> f "reconnect %d failed: %s" i e);
          attempt (i + 1)
      | Ok fd -> (
          s.conn <- Conn.create fd;
          s.reconnects <- s.reconnects + 1;
          Obs.incr c_reconnects;
          match handshake s with
          | Ok () ->
              s.last_rx <- Unix.gettimeofday ();
              jot s ~ev:"client.reconnect" (Printf.sprintf "attempt %d" i);
              Ok ()
          | Error e ->
              Conn.close s.conn;
              Log.info (fun f -> f "rehandshake %d failed: %s" i e);
              attempt (i + 1))
    end
  in
  attempt 0

let build_session cfg conn =
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
  let engine =
    Sim.Engine.create ~measure:Message.encoded_size ~classify:Message.kind ()
  in
  let trace = Sim.Trace.create () in
  let rng = Crypto.Prng.create ~seed:cfg.seed in
  let keyring, signers =
    Pki.Keyring.setup ~scheme:setup.Harness.scheme ~users:cfg.users rng
  in
  let initial_root =
    Store.Shard_db.root_digest
      (Store.Shard_db.create ~branching:cfg.branching ~shards:cfg.shards
         setup.Harness.initial)
  in
  let to_server = Queue.create () in
  let to_peers = Queue.create () in
  let me = Sim.Id.User cfg.user in
  (* the server-side of every conversation lives across the wire; a
     stub captures what the agent sends to it *)
  Sim.Engine.register engine Sim.Id.Server
    {
      Sim.Engine.on_message =
        (fun ~round:_ ~src msg -> if src = me then Queue.add msg to_server);
      on_activate = (fun ~round:_ -> ());
    };
  (* broadcasts go to every registered user except the sender: one stub
     peer is enough to capture each broadcast exactly once *)
  if cfg.users > 1 then
    Sim.Engine.register engine
      (Sim.Id.User ((cfg.user + 1) mod cfg.users))
      {
        Sim.Engine.on_message =
          (fun ~round:_ ~src msg -> if src = me then Queue.add msg to_peers);
        on_activate = (fun ~round:_ -> ());
      };
  let base =
    Harness.build_user setup ~initial_root ~engine ~trace ~keyring ~signers
      ~user:cfg.user
  in
  User_base.set_response_timeout base ~rounds:cfg.response_timeout;
  List.iter
    (fun { Harness.at; by; what } ->
      if by = cfg.user then User_base.enqueue_intent base ~round:at ~op:what)
    cfg.script;
  {
    cfg;
    engine;
    base;
    to_server;
    to_peers;
    inbound = Queue.create ();
    unacked = Hashtbl.create 16;
    seen = Hashtbl.create 64;
    rng = Crypto.Prng.split rng ~label:(Printf.sprintf "net-client-%d" cfg.user);
    initial_root;
    conn;
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
        (fun p ->
          Obs.Journal.open_ ~proc:(Printf.sprintf "client%d" cfg.user) p)
        cfg.journal;
  }

let run cfg =
  match Sock.connect_fd ~host:cfg.host ~port:cfg.port ~timeout:dial_timeout with
  | Error e -> Error (Printf.sprintf "connect %s:%d: %s" cfg.host cfg.port e)
  | Ok fd -> (
      let s = build_session cfg (Conn.create fd) in
      let finish r =
        (match s.journal with Some j -> Obs.Journal.close j | None -> ());
        r
      in
      match handshake s with
      | Error e -> Conn.close s.conn; finish (Error e)
      | Ok () ->
          let rec loop () =
            match (s.finished, s.fatal) with
            | Some (session_alarmed, reason, round), _ ->
                Conn.send s.conn Codec.Bye;
                Conn.flush s.conn;
                Conn.close s.conn;
                let local =
                  List.map
                    (fun (a : Sim.Engine.alarm_record) -> (a.at_round, a.reason))
                    (Sim.Engine.alarms s.engine)
                in
                Ok
                  {
                    v_alarmed = session_alarmed || local <> [];
                    v_local_alarms = local;
                    v_session_alarmed = session_alarmed;
                    v_session_reason = reason;
                    v_rounds = round;
                    v_reconnects = s.reconnects;
                  }
            | None, Some e -> Conn.close s.conn; Error e
            | None, None ->
                (* Dead-peer detection: the round clock guarantees a frame at
                   least every half second while the daemon is alive, so
                   prolonged silence means the link (not the protocol) is
                   wedged — tear it down and let the reconnect path, which
                   the daemon answers with a fresh Tick, recover the round. *)
                if
                  (not (Conn.eof s.conn))
                  && Unix.gettimeofday () -. s.last_rx > silence_limit
                then begin
                  Log.warn (fun f ->
                      f "no frame for %.1fs — link wedged, reconnecting"
                        silence_limit);
                  Conn.close s.conn
                end;
                if Conn.eof s.conn then begin
                  Conn.close s.conn;
                  match reconnect s with
                  | Error e -> Error e
                  | Ok () -> loop ()
                end
                else begin
                  (match
                     Unix.select [ Conn.fd s.conn ]
                       (if Conn.want_write s.conn then [ Conn.fd s.conn ] else [])
                       [] 0.25
                   with
                  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
                  | r, w, _ ->
                      if r <> [] then Conn.fill s.conn;
                      if w <> [] then Conn.flush s.conn);
                  let rec pump () =
                    if s.finished = None && s.fatal = None then
                      match Conn.pop s.conn with
                      | Ok None -> ()
                      | Ok (Some frame) ->
                          s.last_rx <- Unix.gettimeofday ();
                          handle_frame s frame;
                          pump ()
                      | Error e ->
                          s.fatal <-
                            Some ("bad frame from server: " ^ Codec.error_to_string e)
                  in
                  pump ();
                  Conn.flush s.conn;
                  loop ()
                end
          in
          finish (loop ()))
