let src = Logs.Src.create "tcvs.net.daemon" ~doc:"Trusted-CVS TCP daemon"

module Log = (val Logs.src_log src : Logs.LOG)
module Message = Tcvs.Message
module Harness = Tcvs.Harness
module Server = Tcvs.Server
module Adversary = Tcvs.Adversary

let obs_scope = Obs.Scope.v "net.daemon"
let c_requests = Obs.counter ~scope:obs_scope "requests_executed"

(* Round wall-clock latency is volatile: readable live through the
   admin endpoint, never in the deterministic report. *)
let h_round_us = Obs.histogram ~scope:obs_scope ~volatile:true "round_us"

type config = {
  listen_port : int;
  port_file : string option;
  store_dir : string option;
  shards : int;
  branching : int;
  files : int;
  protocol : Harness.protocol;
  users : int;
  seed : string;
  adversary : Adversary.t;
  max_conns : int;
  checkpoint_every : int;
  durability : Store.durability;
  journal : string option; (* JSONL span journal path *)
  admin_port : int option; (* read-only admin socket; [Some 0] = ephemeral *)
  admin_port_file : string option;
  (* Cluster shard mode: [Some i] serves only shard [i] of a
     [shard_count]-way partition of the key space — a 1-shard store
     over the keys the cluster map routes to shard [i], accepting a
     single [Shard_link] connection from the router. *)
  shard_id : int option;
  shard_count : int;
}

let default_config =
  {
    listen_port = 0;
    port_file = None;
    store_dir = None;
    shards = 1;
    branching = 8;
    files = 32;
    protocol = Harness.Protocol_2
        { k = 8; tag_mode = `Tagged; check_gctr = true; sync_trigger = `Per_user };
    users = 4;
    seed = "net-session";
    adversary = Adversary.Honest;
    max_conns = 64;
    checkpoint_every = 64;
    (* Per_op, the mode the smoke tests run, flushes every record;
       Per_round once per tick. Either way a reply is held
       ([Front.hold]) until [commit]'s flush covers its records. *)
    durability = Store.Per_op;
    journal = None;
    admin_port = None;
    admin_port_file = None;
    shard_id = None;
    shard_count = 1;
  }

type state = {
  cfg : config;
  fe : Front.t;
  server : Server.t;
  store : Store.t option;
  alarmed : bool ref; (* the server raised an alarm *)
  mutable due : (int * int * Message.t) list; (* the tick's (user, seq, request), newest first *)
}

let jot st = Front.jot st.fe

let generation st = match st.store with Some s -> Store.generation s | None -> 0

let welcome st () =
  Codec.Welcome
    {
      w_version = Codec.protocol_version;
      w_boot_id = st.fe.Front.boot_id;
      w_generation = generation st;
      w_ctr = Server.ops_performed st.server;
      w_users = st.cfg.users;
      w_shards = st.cfg.shards;
      w_round = st.fe.Front.round;
      w_root = Server.true_root st.server;
    }

(* ---- Replies ---------------------------------------------------------- *)

(* The server's reply to [u]'s outstanding query, as the server
   produces it: encoded once, logged at once, and held until a flush
   makes the records behind it durable. *)
let queue_reply fe store ~user:u msg =
  match Hashtbl.find_opt fe.Front.outstanding u with
  | Some (seq, ctx) ->
      let payload = Codec.encode_message msg in
      Option.iter (fun s -> Store.log_reply s ~user:u ~seq ~payload) store;
      Obs.incr c_requests;
      Log.debug (fun f -> f "u%d: reply for seq %d" u seq);
      Front.jot_fwd fe ~user:u ~seq ~ctx ~ev:"daemon.reply" (Message.kind msg);
      Front.hold fe ~user:u ~seq ~ctx payload
  | None -> Log.warn (fun f -> f "response for u%d with no outstanding request" u)

(* Group commit: flush what the batch staged (ops, origins, replies),
   then cache its replies and queue them on their sockets. A user who
   disconnected meanwhile gets the cached reply on its re-request. *)
let commit st =
  Option.iter Store.flush st.store;
  Front.release st.fe

(* Serve [user]'s request at the session's round. A signature or token
   turn is acked only once served: a crash cannot lose one it acked. *)
let serve st ~user ~seq msg =
  match msg with
  | Message.Query _ ->
      Option.iter (fun s -> Store.declare_origin s ~user ~seq) st.store;
      Server.handle st.server ~round:st.fe.round ~user msg
  | _ ->
      Server.handle st.server ~round:st.fe.round ~user msg;
      Option.iter
        (fun (s : Front.session) -> Conn.send s.conn (Codec.Ack { seq }))
        (Front.session_for_user st.fe user)

(* A lockstep request waits for its tick's end. A free or shard-link
   one is served now as its own group commit, so its reply leaves this
   turn, before a later request's checkpoint. *)
let execute st (sess : Front.session) ~seq msg =
  if Front.lockstep sess then st.due <- (sess.user, seq, msg) :: st.due
  else begin
    serve st ~user:sess.user ~seq msg;
    commit st
  end

(* ---- Frame handling -------------------------------------------------- *)

(* The router's Hello names the shard it expects ([h_user] = shard id)
   and the cluster width ([h_users] = shard count) — miswired
   deployments fail the handshake instead of serving the wrong keys.
   Unlike [Free], the dedup state survives a shard-link handshake:
   exactly-once must hold across router reconnects and shard crashes. *)
let handle_shard_hello st (sess : Front.session) (h : Codec.hello) ~my_shard =
  if h.Codec.h_user <> my_shard then
    Front.reject sess Codec.Bad_user
      (Printf.sprintf "router expects shard %d, this daemon serves shard %d"
         h.Codec.h_user my_shard)
  else if h.Codec.h_users <> st.cfg.shard_count then
    Front.reject sess Codec.Bad_user
      (Printf.sprintf "router expects %d shards, this daemon is 1 of %d"
         h.Codec.h_users st.cfg.shard_count)
  else if Front.session_for_user st.fe 0 <> None then
    Front.reject sess Codec.Bad_user "a router is already connected"
  else begin
    sess.user <- 0;
    sess.role <- Some Codec.Shard_link;
    Conn.send sess.conn (welcome st ());
    Log.info (fun f ->
        f "router linked shard %d (round %d) from %s" my_shard h.Codec.h_round
          sess.peer)
  end

let handle_hello st sess (h : Codec.hello) =
  if Front.version_ok sess h then
    match (h.Codec.h_role, st.cfg.shard_id) with
    | Codec.Shard_link, None ->
        Front.reject sess Codec.Bad_user "not a shard daemon (no --shard-id)"
    | Codec.Shard_link, Some my_shard -> handle_shard_hello st sess h ~my_shard
    | (Codec.Lockstep | Codec.Free), Some _ ->
        Front.reject sess Codec.Bad_user
          "shard daemon accepts only shard-link connections (use the router)"
    | (Codec.Lockstep | Codec.Free), None -> Front.join st.fe sess h ~welcome:(welcome st)

let handle_request st (sess : Front.session) ~seq ~ctx ~msg =
  let u = sess.user in
  match msg with
  | Message.Query _ ->
      if Front.admit_query st.fe sess ~seq ~ctx then begin
        Log.debug (fun f -> f "u%d: query seq %d (round %d)" u seq st.fe.round);
        Front.jot_fwd st.fe ~user:u ~seq ~ctx ~ev:"daemon.dispatch" (Message.kind msg);
        execute st sess ~seq msg
      end
  | Message.Root_signature _ | Message.Token_take_turn _ ->
      (* At-least-once is safe here: the server ignores a signature it is
         not waiting for, so the ack can race a retransmission. A
         retransmission of one still waiting for its tick is acked when
         that is served. *)
      let vseq = st.fe.Front.vseq in
      if seq > Option.value ~default:(-1) (Hashtbl.find_opt vseq u) then begin
        jot st ~user:u ~span:seq ~ev:"daemon.dispatch" (Message.kind msg);
        Hashtbl.replace vseq u seq;
        execute st sess ~seq msg
      end
      else if not (List.exists (fun (v, q, _) -> v = u && q = seq) st.due) then
        Conn.send sess.conn (Codec.Ack { seq })
  | _ ->
      Conn.send sess.conn
        (Codec.Error_frame
           {
             code = Codec.Protocol_violation;
             detail = "request carries a server-to-user message";
           })

(* Prepare phase of the cluster round barrier: end the round on the
   server (flush, then a crash adversary due now), then vote with the
   shard's current root. Idempotent — a retransmitted Prepare
   re-reports the same root. *)
let handle_prepare st (sess : Front.session) ~round =
  match (sess.role, st.cfg.shard_id) with
  | Some Codec.Shard_link, Some shard_id ->
      if round > st.fe.round then st.fe.round <- round;
      Server.end_round st.server ~round;
      commit st;
      jot st ~ev:"shard.seal" (Printf.sprintf "prepare r%d" round);
      Conn.send sess.conn
        (Codec.Shard_root
           {
             round;
             shard_id;
             generation = generation st;
             ctr = Server.ops_performed st.server;
             root = Server.true_root st.server;
           })
  | _ -> Front.reject sess Codec.Protocol_violation "prepare outside a shard link"

let handle_commit st (sess : Front.session) ~round =
  match sess.role with
  | Some Codec.Shard_link ->
      if round > st.fe.round then st.fe.round <- round;
      jot st ~ev:"shard.commit" (Printf.sprintf "composed root published r%d" round)
  | _ -> Front.reject sess Codec.Protocol_violation "commit outside a shard link"

let handle_frame st (sess : Front.session) frame =
  match (sess.role, frame) with
  | None, Codec.Hello h -> handle_hello st sess h
  | Some _, Codec.Request { seq; ctx; msg } -> handle_request st sess ~seq ~ctx ~msg
  | Some _, Codec.Prepare { round } -> handle_prepare st sess ~round
  | Some _, Codec.Commit { round; root = _ } -> handle_commit st sess ~round
  | _ -> Front.handle_frame st.fe sess frame

(* ---- The round clock ------------------------------------------------- *)

(* The tick's end: its requests are served in user order, as the
   simulator serves a round (stably), then the group commit makes all it
   staged durable before its replies, acks and the next Tick go out
   (under Per_round, the only flush); a crash adversary fires first. *)
let finish_round st =
  let t0 = Unix.gettimeofday () in
  let due = List.stable_sort (fun (a, _, _) (b, _, _) -> Int.compare a b) (List.rev st.due) in
  st.due <- [];
  List.iter (fun (user, seq, msg) -> serve st ~user ~seq msg) due;
  Server.end_round st.server ~round:st.fe.round;
  commit st;
  let dur_us = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) in
  if st.store <> None then jot st ~dur_us ~ev:"daemon.flush" "group-commit";
  Obs.observe h_round_us
    (int_of_float ((Unix.gettimeofday () -. st.fe.tick_sent_at) *. 1e6));
  Front.close_round st.fe
    ~alarm:(if !(st.alarmed) then Some "server-alarm" else None)
    ~idle:true

(* The daemon's work before each turn of the loop. *)
let step st =
  Front.start_clock st.fe;
  if st.fe.ticking then
    if Front.tick_complete st.fe then finish_round st else Front.retick st.fe

(* ---- Setup ----------------------------------------------------------- *)

(* The slice of the seeded key space a shard daemon owns: the same
   boundaries the router (and a single-daemon [--shards N] run)
   computes from the full initial key list, so this daemon's 1-shard
   tree equals the corresponding shard subtree by construction — the
   composed cluster root is byte-identical to the sharded root. *)
let initial_slice cfg =
  let initial = Harness.initial_files cfg.files in
  match cfg.shard_id with
  | None -> initial
  | Some i ->
      let map =
        Store.Shard_map.create ~branching:cfg.branching ~shards:cfg.shard_count
          ~keys:(List.map fst initial)
      in
      (Store.Shard_map.split map initial).(i)

let open_store cfg ~initial =
  match cfg.store_dir with
  | None -> Ok None
  | Some dir ->
      Result.map
        (fun (s, _) -> Some s)
        (Store.create_or_open ~checkpoint_every:cfg.checkpoint_every
           ~durability:cfg.durability ~dir ~branching:cfg.branching ~shards:cfg.shards
           ~initial ())

let build_state cfg =
  let initial = initial_slice cfg in
  match open_store cfg ~initial with
  | Error e -> Error ("store: " ^ e)
  | Ok store ->
      let db =
        match store with
        | Some s -> Store.db s
        | None -> Store.Shard_db.create ~branching:cfg.branching ~shards:cfg.shards initial
      in
      let proc =
        match cfg.shard_id with Some i -> "shard" ^ string_of_int i | None -> "daemon"
      in
      let fe =
        Front.create ~src ~scope:obs_scope ~ev:"daemon" ~ev_dispatch:"daemon.dispatch"
          ~fwd_ctx:(cfg.shard_id <> None) ~users:cfg.users ~max_conns:cfg.max_conns
          (Option.map (fun p -> Obs.Journal.open_ ~proc p) cfg.journal)
      in
      (* A resumed store carries the dedup table and reply cache of the
         session it continues. *)
      Option.iter
        (fun s ->
          let b = Store.book s in
          List.iter (fun (u, seq) -> Hashtbl.replace fe.vseq u seq) b.Store.seqs;
          List.iter (fun (u, r) -> Hashtbl.replace fe.reply_cache u r) b.Store.replies)
        store;
      let alarmed = ref false in
      let server =
        Harness.create_server ?store ~route_counters:true cfg.protocol
          ~adversary:cfg.adversary
          ~elected_signer:(fun () ->
            (* same deterministic PKI ceremony as the clients *)
            let _, signers =
              Pki.Keyring.setup
                ~scheme:(Pki.Signer.Hmac_shared { key = "experiment-shared-key" })
                ~users:cfg.users
                (Crypto.Prng.create ~seed:cfg.seed)
            in
            signers.(0))
          ~db ~reply:(queue_reply fe store)
          ~alarm:(fun reason ->
            Log.err (fun f -> f "server alarm: %s" reason);
            alarmed := true)
      in
      Ok { cfg; fe; server; store; alarmed; due = [] }

(* ---- Admin endpoint --------------------------------------------------- *)

(* Scrape-on-connect: accepting a connection on the admin socket sends
   one JSON snapshot and closes. No request parsing, no admin state in
   the loop — the simplest protocol a `watch`-style client and
   `tcvs_cli top` can both speak. *)

let admin_snapshot st =
  let fe = st.fe in
  let buf = Buffer.create 4096 in
  Printf.bprintf buf
    "{\n  \"schema\": \"tcvs-admin/1\",\n  \"round\": %d,\n  \"ticking\": %b,\n\
    \  \"sessions\": %d,\n  \"outstanding\": %d,\n  \"relays_pending\": %d,\n\
    \  \"connections\": ["
    fe.round fe.ticking (List.length fe.sessions)
    (Hashtbl.length fe.outstanding)
    (Hashtbl.length fe.relays);
  let joined =
    List.filter (fun (s : Front.session) -> s.user >= 0) fe.sessions
    |> List.sort (fun (a : Front.session) b -> Int.compare a.user b.user)
  in
  List.iteri
    (fun i (s : Front.session) ->
      if i > 0 then Buffer.add_char buf ',';
      let io = Conn.io_stats s.conn in
      Printf.bprintf buf
        "\n    { \"user\": %d, \"role\": %S, \"frames_in\": %d, \"frames_out\": \
         %d, \"bytes_in\": %d, \"bytes_out\": %d, \"backlog_bytes\": %d, \
         \"dedup_hits\": %d, \"outstanding\": %d }"
        s.user
        (match s.role with
        | Some Codec.Free -> "free"
        | Some Codec.Shard_link -> "shard-link"
        | _ -> "lockstep")
        io.Conn.frames_in io.Conn.frames_out io.Conn.bytes_in io.Conn.bytes_out
        (Conn.pending_out s.conn) s.dedup_hits
        (if Hashtbl.mem fe.outstanding s.user then 1 else 0))
    joined;
  if joined <> [] then Buffer.add_string buf "\n  ";
  Buffer.add_string buf "],\n  \"registry\": ";
  Buffer.add_string buf (String.trim (Obs.Report.to_json ~volatile:true ()));
  Buffer.add_string buf "\n}\n";
  Buffer.contents buf

(* ---- Main loop ------------------------------------------------------- *)

let[@tcvs.lint.root "event-loop"] serve st l =
  Front.serve st.fe l ~handle:(handle_frame st)
    ~snapshot:(fun () -> admin_snapshot st)
    ~step:(fun () -> step st)
    ~close:(fun () -> Option.iter Store.close st.store)
    ()

let run cfg =
  match
    (* shard mode: one user (the router) over a single internal shard;
       the cluster-wide partition lives in [initial_slice] *)
    match cfg.shard_id with
    | Some i when i < 0 || i >= cfg.shard_count ->
        Error
          (Printf.sprintf "shard id %d out of range [0, %d)" i cfg.shard_count)
    | Some _ -> build_state { cfg with users = 1; shards = 1 }
    | None -> build_state cfg
  with
  | Error e -> Error e
  | Ok st -> (
      match
        Front.listen st.fe ~port:cfg.listen_port ~port_file:cfg.port_file
          ~admin_port:cfg.admin_port ~admin_port_file:cfg.admin_port_file
      with
      | Error e -> Error e
      | Ok l ->
          Log.app (fun f ->
              f "listening on 127.0.0.1:%d (boot %s, %d users, %s)" l.Front.port
                st.fe.boot_id cfg.users
                (Harness.protocol_name cfg.protocol));
          serve st l)
