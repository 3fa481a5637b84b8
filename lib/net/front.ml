(* The client-facing serving core shared by the daemon and the router.
   Both present one protocol to clients — the Hello/Welcome handshake,
   exactly-once requests, the Publish → Deliver broadcast relay and the
   lockstep round clock — and differ only in how a fresh query is
   answered: the daemon hands it to its server, the router
   fans it out to shard daemons and composes the reply. This module is
   the shared half: plain functions over a state record [t] that each
   process's own state embeds. *)

module Message = Tcvs.Message

type session = {
  conn : Conn.t;
  peer : string;
  mutable user : int; (* -1 before Hello *)
  mutable role : Codec.role option;
  mutable said_bye : bool;
  mutable dedup_hits : int; (* per-connection, for the admin snapshot *)
}

type relay = { r_msg : Message.t; r_ctx : Codec.ctx; r_pending : (int, unit) Hashtbl.t }

type metrics = {
  m_dedup : Obs.counter;
  m_lost : Obs.counter;
  m_relays : Obs.counter;
  m_ticks : Obs.counter;
  m_accepts : Obs.counter;
  m_scrapes : Obs.counter;
}

let register scope =
  {
    m_dedup = Obs.counter ~scope "dedup_hits";
    m_lost = Obs.counter ~scope "lost_replies";
    m_relays = Obs.counter ~scope "publishes_relayed";
    m_ticks = Obs.counter ~scope "ticks";
    m_accepts = Obs.counter ~scope "connections_accepted";
    (* scrape counts are volatile: readable live through the admin
       endpoint, never in the deterministic report *)
    m_scrapes = Obs.counter ~scope ~volatile:true "admin_scrapes";
  }

type t = {
  src : Logs.src;
  m : metrics;
  users : int;
  max_conns : int;
  boot_id : string;
  journal : Obs.Journal.t option;
  fwd_ctx : bool;
  ev_dispatch : string;
  ev_dedup : string;
  ev_end : string;
  mutable sessions : session list;
  vseq : (int, int) Hashtbl.t; (* per-user highest admitted request seq *)
  reply_cache : (int, int * string) Hashtbl.t; (* user → (seq, encoded reply) *)
  (* user → admitted query (seq, trace ctx) awaiting its reply; the ctx
     is echoed verbatim on the Reply so the op keeps one span id *)
  outstanding : (int, int * Codec.ctx) Hashtbl.t;
  held : (int * int * string * string) Queue.t; (* (user, seq, reply, its frame) *)
  relays : (int * int, relay) Hashtbl.t; (* (src, sseq) → broadcast relay state *)
  u_done : int array; (* per-user last Tick_done round *)
  u_drained : bool array;
  u_alarmed : bool array;
  mutable round : int;
  mutable ticking : bool;
  mutable tick_sent_at : float;
  mutable drain_ticks : int;
  mutable session_over : bool;
  mutable ended_at : float;
}

(* Seconds before an unanswered Tick is re-sent, and all-drained rounds
   before a clean Session_end (time for trailing syncs, mirroring the
   harness's tail). *)
let retick_after = 0.5
let drain_rounds = 64

let make_boot_id () =
  let raw = Printf.sprintf "%f-%d" (Unix.gettimeofday ()) (Unix.getpid ()) in
  let hex = Buffer.create 16 in
  String.iteri
    (fun i c -> if i < 8 then Buffer.add_string hex (Printf.sprintf "%02x" (Char.code c)))
    (Crypto.Sha256.digest raw);
  Buffer.contents hex

let create ~src ~scope ~ev ~ev_dispatch ?(fwd_ctx = false) ~users ~max_conns journal =
  let n = max users 1 in
  {
    src;
    m = register scope;
    users;
    max_conns;
    boot_id = make_boot_id ();
    journal;
    fwd_ctx;
    ev_dispatch;
    ev_dedup = ev ^ ".dedup";
    ev_end = ev ^ ".end";
    sessions = [];
    vseq = Hashtbl.create 16;
    reply_cache = Hashtbl.create 16;
    outstanding = Hashtbl.create 16;
    held = Queue.create ();
    relays = Hashtbl.create 64;
    u_done = Array.make n (-1);
    u_drained = Array.make n false;
    u_alarmed = Array.make n false;
    round = 0;
    ticking = false;
    tick_sent_at = 0.;
    drain_ticks = 0;
    session_over = false;
    ended_at = 0.;
  }

let jot t ?user ?span ?dur_us ~ev detail =
  match t.journal with
  | Some j -> Obs.Journal.event j ?user ?span ?dur_us ~round:t.round ~ev detail
  | None -> ()

(* A shard daemon's op span belongs to the originating client, not to
   the router's link seq: journal under the forwarded trace context
   (ids and round) so `trace-join` threads client → router → shard into
   one span in the client's round. *)
let jot_fwd t ~user ~seq ~(ctx : Codec.ctx) ~ev detail =
  match t.journal with
  | None -> ()
  | Some j ->
      if t.fwd_ctx && ctx.Codec.x_user >= 0 then
        Obs.Journal.event j ~user:ctx.Codec.x_user ~span:ctx.Codec.x_span
          ~round:ctx.Codec.x_round ~ev detail
      else Obs.Journal.event j ~user ~span:seq ~round:t.round ~ev detail

let session_for_user t u =
  List.find_opt (fun s -> s.user = u && not (Conn.eof s.conn)) t.sessions

let lockstep s = s.role = Some Codec.Lockstep
let has_role t role = List.exists (fun s -> s.role = Some role) t.sessions

let lockstep_joined t =
  let joined = Array.make t.users false in
  List.iter (fun s -> if lockstep s && s.user >= 0 then joined.(s.user) <- true) t.sessions;
  Array.for_all Fun.id joined

let send_to t u bytes =
  match session_for_user t u with
  | Some s -> Conn.send_encoded s.conn bytes
  | None -> () (* disconnected; a re-request or the next tick recovers *)

let reject sess code detail =
  Conn.send sess.conn (Codec.Error_frame { code; detail });
  Conn.flush sess.conn;
  Conn.close sess.conn

(* ---- Handshake --------------------------------------------------------- *)

let version_ok sess (h : Codec.hello) =
  h.Codec.h_version = Codec.protocol_version
  || begin
       reject sess Codec.Version_mismatch
         (Printf.sprintf "server speaks protocol %d, client sent %d"
            Codec.protocol_version h.Codec.h_version);
       false
     end

let join t sess (h : Codec.hello) ~welcome =
  let role = h.Codec.h_role in
  if h.Codec.h_user < 0 || h.Codec.h_user >= t.users then
    reject sess Codec.Bad_user
      (Printf.sprintf "user %d out of range [0, %d)" h.Codec.h_user t.users)
  else if h.Codec.h_users <> t.users then
    reject sess Codec.Bad_user
      (Printf.sprintf "client expects %d users, session has %d" h.Codec.h_users t.users)
  else if session_for_user t h.Codec.h_user <> None then
    reject sess Codec.Bad_user (Printf.sprintf "user %d is already connected" h.Codec.h_user)
  else if
    (* one server runs one kind of session at a time *)
    has_role t (match role with Codec.Lockstep -> Codec.Free | _ -> Codec.Lockstep)
  then reject sess Codec.Busy "serving a session of the other role"
  else begin
    sess.user <- h.Codec.h_user;
    sess.role <- Some role;
    (* free connections are independent workloads, not resumed
       sessions: a fresh one restarts its seq space *)
    if role = Codec.Free then begin
      Hashtbl.remove t.vseq sess.user;
      Hashtbl.remove t.reply_cache sess.user;
      Hashtbl.remove t.outstanding sess.user
    end;
    if not t.ticking then t.round <- max t.round h.Codec.h_round;
    Conn.send sess.conn (welcome ());
    Logs.info ~src:t.src (fun f ->
        f "u%d joined (%s, round %d) from %s" sess.user
          (if role = Codec.Lockstep then "lockstep" else "free")
          h.Codec.h_round sess.peer);
    (* a reconnect mid-round: let the client catch up immediately *)
    if t.ticking && role = Codec.Lockstep then
      Conn.send sess.conn (Codec.Tick { round = t.round })
  end

(* ---- Exactly-once queries ---------------------------------------------- *)

let lost_reply t sess detail =
  Obs.incr t.m.m_lost;
  Conn.send sess.conn (Codec.Error_frame { code = Codec.Lost_reply; detail })

let admit_query t sess ~seq ~ctx =
  let u = sess.user in
  let last = Option.value ~default:(-1) (Hashtbl.find_opt t.vseq u) in
  match Hashtbl.find_opt t.outstanding u with
  | Some (s, _) when s = seq -> false (* admitted, reply pending: retransmission noise *)
  | pending ->
      if seq <= last then begin
        Obs.incr t.m.m_dedup;
        sess.dedup_hits <- sess.dedup_hits + 1;
        jot_fwd t ~user:u ~seq ~ctx ~ev:t.ev_dedup "duplicate query";
        Logs.debug ~src:t.src (fun f -> f "u%d: duplicate query seq %d, resending reply" u seq);
        (match Hashtbl.find_opt t.reply_cache u with
        | Some (s, payload) when s = seq ->
            Conn.send_encoded sess.conn (Codec.encode_reply ~seq ~ctx payload)
        | _ ->
            (* The at-most-once residue: the op ran (its WAL record
               survived a crash, or it predates a router restart) but
               its reply is gone. Never re-execute — surface it loudly
               and let the client alarm. *)
            lost_reply t sess
              (Printf.sprintf "request %d was executed but its reply is no longer cached" seq));
        false
      end
      else if Option.is_some pending then begin
        Conn.send sess.conn
          (Codec.Error_frame
             {
               code = Codec.Protocol_violation;
               detail = "a second query while one is outstanding";
             });
        false
      end
      else begin
        Hashtbl.replace t.vseq u seq;
        Hashtbl.replace t.outstanding u (seq, ctx);
        true
      end

(* A reply joins the dedup path only when it may leave, so a re-sent
   query cannot fetch it before the durability point that covers it. *)
let hold t ~user ~seq ~ctx payload =
  Queue.add (user, seq, payload, Codec.encode_reply ~seq ~ctx payload) t.held

let release t =
  Queue.iter
    (fun (user, seq, payload, frame) ->
      Hashtbl.replace t.reply_cache user (seq, payload);
      if Option.map fst (Hashtbl.find_opt t.outstanding user) = Some seq then
        Hashtbl.remove t.outstanding user;
      send_to t user frame)
    t.held;
  Queue.clear t.held

(* ---- Broadcast relay --------------------------------------------------- *)

let deliver_to t v ~src ~sseq ~ctx msg =
  send_to t v (Codec.encode_frame (Codec.Deliver { src; sseq; ctx; msg }))

let handle_publish t sess ~seq ~ctx ~msg =
  let u = sess.user in
  match Hashtbl.find_opt t.relays (u, seq) with
  | Some r ->
      (* duplicate Publish: the publisher has not seen our Ack yet.
         Re-deliver with the original ctx so the span id stays stable. *)
      Hashtbl.iter (fun v () -> deliver_to t v ~src:u ~sseq:seq ~ctx:r.r_ctx r.r_msg) r.r_pending
  | None ->
      let pending = Hashtbl.create 8 in
      for v = 0 to t.users - 1 do
        if v <> u then Hashtbl.replace pending v ()
      done;
      if Hashtbl.length pending = 0 then Conn.send sess.conn (Codec.Ack { seq })
      else begin
        Obs.incr t.m.m_relays;
        jot t ~user:u ~span:seq ~ev:t.ev_dispatch ("publish " ^ Message.kind msg);
        Hashtbl.replace t.relays (u, seq) { r_msg = msg; r_ctx = ctx; r_pending = pending };
        Hashtbl.iter (fun v () -> deliver_to t v ~src:u ~sseq:seq ~ctx msg) pending
      end

let handle_deliver_ack t sess ~psrc ~sseq =
  match Hashtbl.find_opt t.relays (psrc, sseq) with
  | None -> ()
  | Some r ->
      Hashtbl.remove r.r_pending sess.user;
      if Hashtbl.length r.r_pending = 0 then begin
        Hashtbl.remove t.relays (psrc, sseq);
        (* the Publish is only acknowledged once every recipient has
           acknowledged its Deliver — end-to-end reliable broadcast *)
        send_to t psrc (Codec.encode_frame (Codec.Ack { seq = sseq }))
      end

(* Every frame a process does not handle itself: the pre-Hello and
   second-Hello violations, the relay, the round clock's Tick_done, Bye,
   and a violation for anything a client has no business sending. *)
let handle_frame t sess frame =
  match (sess.role, frame) with
  | None, _ -> reject sess Codec.Protocol_violation "first frame must be Hello"
  | Some _, Codec.Hello _ -> reject sess Codec.Protocol_violation "second Hello on a connection"
  | Some _, Codec.Publish { seq; ctx; msg } -> handle_publish t sess ~seq ~ctx ~msg
  | Some _, Codec.Deliver_ack { src; sseq } -> handle_deliver_ack t sess ~psrc:src ~sseq
  | Some _, Codec.Tick_done { round = r; drained; alarmed } ->
      if sess.user >= 0 && r = t.round then begin
        t.u_done.(sess.user) <- r;
        t.u_drained.(sess.user) <- drained;
        t.u_alarmed.(sess.user) <- alarmed
      end
      else
        Logs.debug ~src:t.src (fun f ->
            f "u%d: stale tick_done r=%d at round %d ignored" sess.user r t.round)
  | Some _, Codec.Bye -> sess.said_bye <- true
  | Some _, (Codec.Ack _ | Codec.Error_frame _) -> ()
  | Some _, f ->
      reject sess Codec.Protocol_violation
        (Printf.sprintf "unexpected %s from a client" (Codec.frame_kind f))

(* ---- The round clock --------------------------------------------------- *)

let begin_tick t =
  t.round <- t.round + 1;
  Obs.incr t.m.m_ticks;
  t.tick_sent_at <- Unix.gettimeofday ();
  (* retransmit undelivered broadcasts before announcing the round *)
  Hashtbl.iter
    (fun (psrc, sseq) r ->
      Hashtbl.iter (fun v () -> deliver_to t v ~src:psrc ~sseq ~ctx:r.r_ctx r.r_msg) r.r_pending)
    t.relays;
  List.iter
    (fun s -> if lockstep s && s.user >= 0 then Conn.send s.conn (Codec.Tick { round = t.round }))
    t.sessions

let end_session t ~alarmed ~reason =
  t.session_over <- true;
  t.ended_at <- Unix.gettimeofday ();
  Logs.info ~src:t.src (fun f -> f "session over at round %d: %s" t.round reason);
  jot t ~ev:t.ev_end reason;
  List.iter
    (fun s ->
      if s.user >= 0 then Conn.send s.conn (Codec.Session_end { round = t.round; alarmed; reason }))
    t.sessions

let tick_complete t =
  let ok = ref true in
  for u = 0 to t.users - 1 do
    if t.u_done.(u) < t.round then ok := false
  done;
  !ok

let start_clock t =
  if (not t.ticking) && t.users > 0 && has_role t Codec.Lockstep && lockstep_joined t then begin
    t.ticking <- true;
    Logs.info ~src:t.src (fun f -> f "all %d users joined — starting round clock" t.users);
    begin_tick t
  end

(* A Tick or Tick_done lost to a reconnect: re-announce the round to
   every lockstep user that has not answered it. *)
let retick t =
  let now = Unix.gettimeofday () in
  if now -. t.tick_sent_at > retick_after then begin
    t.tick_sent_at <- now;
    List.iter
      (fun s ->
        if lockstep s && s.user >= 0 && t.u_done.(s.user) < t.round then begin
          Logs.debug ~src:t.src (fun f ->
              f "re-tick round %d to u%d (done %d)" t.round s.user t.u_done.(s.user));
          Conn.send s.conn (Codec.Tick { round = t.round })
        end)
      t.sessions
  end

let close_round t ~alarm ~idle =
  let alarm =
    if alarm = None && Array.exists Fun.id t.u_alarmed then Some "client-alarm" else alarm
  in
  match alarm with
  | Some reason -> end_session t ~alarmed:true ~reason
  | None ->
      let idle = idle && Hashtbl.length t.outstanding = 0 && Hashtbl.length t.relays = 0 in
      if idle && Array.for_all Fun.id t.u_drained then begin
        t.drain_ticks <- t.drain_ticks + 1;
        if t.drain_ticks >= drain_rounds then end_session t ~alarmed:false ~reason:"drained"
        else begin_tick t
      end
      else begin
        t.drain_ticks <- 0;
        begin_tick t
      end

(* ---- Listener and main loop -------------------------------------------- *)

type listener = { lfd : Unix.file_descr; port : int; admin : Admin.t option }

let stop_requested = ref false

let listen t ~port ~port_file ~admin_port ~admin_port_file =
  Loop.trap_stop stop_requested;
  Loop.listen ~port ()
  |> Result.map (fun (lfd, port) ->
         Option.iter (fun path -> Loop.write_port_file path port) port_file;
         let admin =
           Option.bind admin_port (fun p ->
               match Admin.listen ~port:p with
               | Error e ->
                   Logs.err ~src:t.src (fun f -> f "admin: %s" e);
                   None
               | Ok (a, ap) ->
                   Option.iter (fun path -> Loop.write_port_file path ap) admin_port_file;
                   Logs.app ~src:t.src (fun f -> f "admin endpoint on 127.0.0.1:%d" ap);
                   Some a)
         in
         { lfd; port; admin })

let prune_sessions t =
  let dead, live = List.partition (fun s -> Conn.eof s.conn || s.said_bye) t.sessions in
  List.iter
    (fun s ->
      if s.user >= 0 then Logs.info ~src:t.src (fun f -> f "u%d disconnected" s.user);
      Conn.close s.conn)
    dead;
  t.sessions <- live

let accept t fd addr =
  let peer =
    match addr with
    | Unix.ADDR_INET (a, p) -> Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
    | Unix.ADDR_UNIX p -> p
  in
  let sess =
    { conn = Conn.create fd; peer; user = -1; role = None; said_bye = false; dedup_hits = 0 }
  in
  if List.length t.sessions >= t.max_conns then
    reject sess Codec.Busy (Printf.sprintf "connection limit %d reached" t.max_conns)
  else begin
    Obs.incr t.m.m_accepts;
    t.sessions <- sess :: t.sessions
  end

(* An undecodable frame is answered with a typed violation before the
   close; nothing is dispatched once the session is over. *)
let session_watch t ~handle sess =
  Loop.Frames
    ( sess.conn,
      (fun frame -> if not t.session_over then handle sess frame),
      fun e ->
        if not t.session_over then begin
          Logs.warn ~src:t.src (fun f ->
              f "u%d: bad frame: %s — closing" sess.user (Codec.error_to_string e));
          reject sess Codec.Protocol_violation (Codec.error_to_string e)
        end )

let serve t l ~handle ~snapshot ~step ?(links = fun () -> []) ~close () =
  let scrape () =
    Obs.incr t.m.m_scrapes;
    snapshot ()
  in
  let rec loop () =
    if !stop_requested && not t.session_over then
      end_session t ~alarmed:false ~reason:"sigterm-drain";
    prune_sessions t;
    let flushed () = List.for_all (fun s -> Conn.pending_out s.conn = 0) t.sessions in
    if t.session_over && (flushed () || Unix.gettimeofday () -. t.ended_at > 2.0) then begin
      List.iter (fun s -> Conn.close s.conn) t.sessions;
      Unix.close l.lfd;
      Option.iter Admin.close l.admin;
      Option.iter Obs.Journal.close t.journal;
      close ();
      Ok ()
    end
    else begin
      if not t.session_over then step ();
      let admin = Option.to_list (Option.map (Admin.watch ~snapshot:scrape) l.admin) in
      Loop.turn ~timeout:0.05
        ((Loop.Listener (l.lfd, accept t) :: admin)
        @ List.map (session_watch t ~handle) t.sessions
        @ links ());
      Option.iter Admin.service l.admin;
      loop ()
    end
  in
  loop ()
