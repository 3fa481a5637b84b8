let src = Logs.Src.create "tcvs.net.router" ~doc:"Trusted-CVS cluster router"

module Log = (val Logs.src_log src : Logs.LOG)
module Message = Tcvs.Message
module Harness = Tcvs.Harness
module Vo = Mtree.Vo
module Node = Mtree.Node

let obs_scope = Obs.Scope.v "net.router"
let c_ops = Obs.counter ~scope:obs_scope "ops_routed"
let c_subops = Obs.counter ~scope:obs_scope "subops_sent"
let c_sub_retransmits = Obs.counter ~scope:obs_scope "subop_retransmits"
let c_barriers = Obs.counter ~scope:obs_scope "barriers_committed"
let c_barrier_retries = Obs.counter ~scope:obs_scope "barrier_retries"
let c_link_reconnects = Obs.counter ~scope:obs_scope "link_reconnects"

(* Sub-request retransmit base, re-Prepare interval and the re-Prepares
   before the wedge alarm; shard dial timeout and reconnect base. *)
let subreq_retry = 0.25
let reprepare_after = 0.5
let max_reprepares = 20
let link_timeout = 5.0
let link_backoff = 0.1

type config = {
  listen_port : int;
  port_file : string option;
  shard_addrs : (string * int) array; (* shard i's daemon address *)
  branching : int;
  files : int;
  users : int;
  max_conns : int;
  journal : string option;
  admin_port : int option;
  admin_port_file : string option;
}

let default_config ~shard_addrs =
  {
    listen_port = 0;
    port_file = None;
    shard_addrs;
    branching = 8;
    files = 32;
    users = 4;
    max_conns = 64;
    journal = None;
    admin_port = None;
    admin_port_file = None;
  }

(* ---- State ------------------------------------------------------------ *)

(* One client op moving through the cluster: fanned to its owning
   shards, composed back in strict dispatch order. *)
type rop = {
  o_user : int;
  o_seq : int; (* client-facing seq *)
  o_ctx : Codec.ctx; (* forwarded verbatim — one span end to end *)
  o_op : Vo.op;
  o_piggyback : Message.piggyback list;
  o_lockstep : bool; (* reply held until the round's Commit *)
  o_touched : int list; (* owning shards, ascending *)
  mutable o_replies : (int * Message.t) list; (* shard id → Response *)
}

(* The link to one shard daemon: a FIFO of sub-requests with exactly one
   in flight (the shard enforces a single outstanding query per link),
   retransmitted on loss and re-sent verbatim across reconnects — the
   shard's persistent dedup keeps the hop exactly-once. *)
type link = {
  l_id : int;
  l_host : string;
  l_port : int;
  l_queue : rop Queue.t;
  mutable l_conn : Conn.t option;
  mutable l_boot : string; (* "" before first contact *)
  mutable l_gen : int;
  mutable l_rseq : int; (* last sub-request seq assigned on this link *)
  mutable l_inflight : (int * rop) option;
  mutable l_sent_at : float;
  mutable l_attempts : int;
  mutable l_next_connect : float;
  mutable l_reconnects : int;
}

type barrier =
  | Idle
  | Sealing of {
      b_round : int;
      b_votes : bool array;
      mutable b_sent_at : float;
      mutable b_attempts : int;
    }

type state = {
  cfg : config;
  shard_count : int;
  boundaries : string array; (* from the full seeded key list *)
  initial_roots : string array; (* each shard's expected fresh root *)
  serial_roots : string array; (* root chain, advanced at compose time *)
  links : link array;
  (* client-facing state; its exactly-once tables are in-memory: a
     router crash ends the session loudly via the shards' persistent
     dedup, never via a silent re-execution *)
  fe : Front.t;
  compose_q : rop Queue.t; (* global dispatch order *)
  held : (int * Codec.frame) Queue.t; (* lockstep replies awaiting Commit *)
  mutable g_ctr : int; (* composed ops — the cluster's global ctr *)
  mutable g_last_user : int;
  mutable dirty : bool; (* an op was composed since the last barrier *)
  mutable barrier : barrier;
  mutable alarms : string list; (* newest first *)
}

let jot st = Front.jot st.fe

let alarm st reason =
  Log.err (fun f -> f "ALARM: %s" reason);
  jot st ~ev:"router.alarm" reason;
  st.alarms <- reason :: st.alarms

let composed_root st =
  if st.shard_count = 1 then st.serial_roots.(0)
  else Vo.compose_root st.boundaries st.serial_roots

(* The composed generation: the sum over shard generations, so any
   shard's recovery bumps it and the clients' monotonicity check spans
   the whole cluster. *)
let cluster_generation st =
  Array.fold_left (fun acc l -> acc + l.l_gen) 0 st.links

let welcome st () =
  Codec.Welcome
    {
      w_version = Codec.protocol_version;
      w_boot_id = st.fe.boot_id;
      w_generation = cluster_generation st;
      w_ctr = st.g_ctr;
      w_users = st.cfg.users;
      w_shards = st.shard_count;
      w_round = st.fe.round;
      w_root = composed_root st;
    }

(* ---- Shard links ------------------------------------------------------ *)

let link_welcome_check st l (w : Codec.welcome) =
  if w.Codec.w_shards <> 1 then
    Error (Printf.sprintf "shard %d serves %d internal shards, want 1" l.l_id w.Codec.w_shards)
  else begin
    if l.l_boot = "" then begin
      (* First contact. A fresh shard store must serve its slice of
         M(D₀); a resumed one re-anchors the serial chain at its
         recovered root — the per-op VO replay verifies every hop from
         here on. *)
      if w.Codec.w_ctr = 0 && w.Codec.w_root <> st.initial_roots.(l.l_id) then
        Error (Printf.sprintf "shard %d: fresh store does not serve its M(D0) slice" l.l_id)
      else begin
        st.serial_roots.(l.l_id) <- w.Codec.w_root;
        Ok ()
      end
    end
    else if w.Codec.w_generation < l.l_gen then
      Error
        (Printf.sprintf "shard %d: store generation regressed %d -> %d" l.l_id
           l.l_gen w.Codec.w_generation)
    else begin
      if w.Codec.w_boot_id <> l.l_boot then begin
        Log.info (fun f ->
            f "shard %d restarted (boot %s -> %s)" l.l_id l.l_boot w.Codec.w_boot_id);
        (* With nothing in flight the shard must come back exactly where
           the serial chain left it — recovery is byte-exact or it is an
           alarm. With a sub-request in flight the re-sent request's
           reply (cached or Lost_reply) resolves the round trip and its
           VO replay performs this same check. *)
        if l.l_inflight = None && w.Codec.w_root <> st.serial_roots.(l.l_id) then
          Error
            (Printf.sprintf "shard %d: root diverged across restart (ctr %d)"
               l.l_id w.Codec.w_ctr)
        else Ok ()
      end
      else Ok ()
    end
  end

(* A handshake failure is [`Transient] (retry with backoff: the shard
   is down or slow) or [`Fatal] (the stores disagree about history —
   retrying cannot help, so the cluster alarms). *)
let link_handshake st l conn =
  Conn.send conn
    (Codec.Hello
       {
         Codec.h_version = Codec.protocol_version;
         h_role = Codec.Shard_link;
         h_user = l.l_id;
         h_users = st.shard_count;
         h_round = st.fe.round;
       });
  Conn.flush conn;
  match Sock.await_frame conn ~timeout:link_timeout with
  | Error e -> Error (`Transient e)
  | Ok None -> Error (`Transient "no Welcome before timeout")
  | Ok (Some (Codec.Welcome w)) -> (
      match link_welcome_check st l w with
      | Error e -> Error (`Fatal e)
      | Ok () ->
          l.l_boot <- w.Codec.w_boot_id;
          l.l_gen <- max l.l_gen w.Codec.w_generation;
          Ok ())
  | Ok (Some (Codec.Error_frame { code; detail })) ->
      Error
        (`Fatal
          (Printf.sprintf "rejected (%s): %s" (Codec.error_code_to_string code)
             detail))
  | Ok (Some f) -> Error (`Transient ("unexpected " ^ Codec.frame_kind f))

let sub_request st l (rseq, rop) =
  let sub_op = Vo.sub_op_for st.boundaries l.l_id rop.o_op in
  Codec.Request
    { seq = rseq; ctx = rop.o_ctx; msg = Message.Query { op = sub_op; piggyback = rop.o_piggyback } }

let close_link l =
  (match l.l_conn with Some c -> Conn.close c | None -> ());
  l.l_conn <- None

let connect_link st l ~now =
  l.l_next_connect <- now +. (link_backoff *. float_of_int (1 lsl min l.l_attempts 6));
  match Sock.connect_fd ~host:l.l_host ~port:l.l_port ~timeout:link_timeout with
  | Error e ->
      Log.info (fun f -> f "shard %d connect failed: %s" l.l_id e);
      l.l_attempts <- l.l_attempts + 1
  | Ok fd -> (
      let conn = Conn.create fd in
      match link_handshake st l conn with
      | Error (`Transient e) ->
          Conn.close conn;
          l.l_attempts <- l.l_attempts + 1;
          Log.info (fun f -> f "shard %d handshake failed: %s" l.l_id e)
      | Error (`Fatal e) ->
          Conn.close conn;
          l.l_attempts <- l.l_attempts + 1;
          alarm st (Printf.sprintf "shard %d handshake: %s" l.l_id e)
      | Ok () ->
          l.l_conn <- Some conn;
          l.l_attempts <- 0;
          if l.l_reconnects > 0 then Obs.incr c_link_reconnects;
          l.l_reconnects <- l.l_reconnects + 1;
          Log.info (fun f -> f "shard %d linked (%s:%d)" l.l_id l.l_host l.l_port);
          jot st ~ev:"router.link" (Printf.sprintf "shard %d up" l.l_id);
          (* Re-offer whatever the last socket may have swallowed: the
             in-flight sub-request (same rseq — the shard's dedup keeps
             it exactly-once) and, mid-barrier, this shard's Prepare. *)
          (match l.l_inflight with
          | Some (rseq, rop) ->
              l.l_sent_at <- Unix.gettimeofday ();
              Conn.send conn (sub_request st l (rseq, rop))
          | None -> ());
          (match st.barrier with
          | Sealing b when not b.b_votes.(l.l_id) ->
              Conn.send conn (Codec.Prepare { round = b.b_round })
          | _ -> ()))

(* Send the head of each idle link's queue; retransmit a stale
   in-flight sub-request; reconnect links whose socket died. *)
let pump_links st =
  let now = Unix.gettimeofday () in
  Array.iter
    (fun l ->
      (match l.l_conn with
      | Some c when Conn.eof c ->
          Log.info (fun f -> f "shard %d link lost" l.l_id);
          close_link l
      | _ -> ());
      match l.l_conn with
      | None -> if now >= l.l_next_connect then connect_link st l ~now
      | Some conn -> (
          match l.l_inflight with
          | Some (rseq, rop) ->
              let backoff = subreq_retry *. float_of_int (1 lsl min l.l_attempts 6) in
              if now -. l.l_sent_at >= backoff then begin
                l.l_sent_at <- now;
                l.l_attempts <- l.l_attempts + 1;
                Obs.incr c_sub_retransmits;
                Conn.send conn (sub_request st l (rseq, rop));
                (* a socket that eats this many retransmits is wedged:
                   force a fresh connection (same rseq — dedup holds) *)
                if l.l_attempts >= 8 then begin
                  Log.info (fun f -> f "shard %d wedged, reconnecting" l.l_id);
                  close_link l;
                  l.l_attempts <- 0;
                  l.l_next_connect <- now
                end
              end
          | None ->
              if not (Queue.is_empty l.l_queue) then begin
                let rop = Queue.peek l.l_queue in
                l.l_rseq <- l.l_rseq + 1;
                l.l_inflight <- Some (l.l_rseq, rop);
                l.l_sent_at <- now;
                l.l_attempts <- 0;
                Obs.incr c_subops;
                jot st ~user:rop.o_user ~span:rop.o_seq ~ev:"router.route"
                  (Printf.sprintf "shard %d seq %d" l.l_id l.l_rseq);
                Conn.send conn (sub_request st l (l.l_rseq, rop))
              end))
    st.links

(* ---- Composition ------------------------------------------------------ *)

(* Answers compose exactly as the sharded replay composes them
   ([Vo.replay_sharded]): ascending-shard Range entries concatenate;
   everything else is single-shard (or an empty [Set_many]). *)
let compose_answer (op : Vo.op) answers =
  match op with
  | Vo.Get _ | Vo.Set _ | Vo.Set_many _ | Vo.Remove _ -> (
      match answers with [] -> Vo.Updated | a :: _ -> a)
  | Vo.Range _ ->
      Vo.Entries
        (List.concat_map
           (function Vo.Entries es -> es | Vo.Value _ | Vo.Updated -> [])
           answers)

(* Verify one shard's flat proof against the serial chain and splice it
   into the composition; advances [serial_roots]. *)
let verify_part st rop i (resp : Message.t) =
  match resp with
  | Message.Response { vo; _ } -> (
      if not (Vo.is_flat vo) then
        Error (Printf.sprintf "shard %d sent a non-flat VO" i)
      else
        match Vo.apply vo (Vo.sub_op_for st.boundaries i rop.o_op) with
        | Error e ->
            Error
              (Format.asprintf "shard %d VO replay failed: %a" i Vo.pp_error e)
        | Ok (answer, old_root, new_root) ->
            if old_root <> st.serial_roots.(i) then
              Error
                (Printf.sprintf
                   "shard-root-divergence: shard %d proof starts off the serial \
                    chain (u%d seq %d)"
                   i rop.o_user rop.o_seq)
            else begin
              st.serial_roots.(i) <- new_root;
              Ok (answer, Vo.root_node vo, vo)
            end)
  | m -> Error (Printf.sprintf "shard %d answered %s, not a response" i (Message.kind m))

(* Compose the client-visible reply for the op at the head of the
   dispatch order: the owning shards' proofs plus stubs of every other
   shard's serial root — byte-identical to what one daemon with
   [--shards N] would emit for the same serialized history. *)
let compose st (rop : rop) =
  let parts = Array.map (fun r -> Node.Stub r) st.serial_roots in
  let flat = ref None in
  let verified =
    List.fold_left
      (fun acc i ->
        match acc with
        | Error _ as e -> e
        | Ok answers -> (
            match List.assoc_opt i rop.o_replies with
            | None -> Error (Printf.sprintf "shard %d reply missing at compose" i)
            | Some resp -> (
                match verify_part st rop i resp with
                | Error _ as e -> e
                | Ok (answer, part, vo) ->
                    parts.(i) <- part;
                    flat := Some vo;
                    Ok (answers @ [ answer ]))))
      (Ok []) rop.o_touched
  in
  match verified with
  | Error reason ->
      alarm st reason;
      None
  | Ok answers ->
      let vo =
        if st.shard_count = 1 then
          (* single-shard cluster: the flat proof passes through; every
             op touches shard 0 so a proof is always in hand *)
          match !flat with
          | Some v -> v
          | None -> Vo.of_node ~branching:st.cfg.branching parts.(0)
        else Vo.of_parts ~branching:st.cfg.branching ~boundaries:st.boundaries ~parts
      in
      let answer = compose_answer rop.o_op answers in
      let ctr = st.g_ctr in
      let last_user = st.g_last_user in
      st.g_ctr <- st.g_ctr + 1;
      st.g_last_user <- rop.o_user;
      st.dirty <- true;
      Some
        (Message.Response
           {
             answer;
             vo;
             ctr;
             last_user;
             root_sig = None;
             epoch = 0;
             epoch_states = [];
           })

(* Compose strictly in dispatch order: the head of [compose_q] may
   complete long after later single-shard ops on other links — they
   wait, so every composed VO extends one serial history. *)
let[@tcvs.lint.root "event-loop"] try_compose st =
  let rec loop () =
    match Queue.peek_opt st.compose_q with
    | Some rop when List.length rop.o_replies = List.length rop.o_touched -> (
        ignore (Queue.pop st.compose_q);
        match compose st rop with
        | None -> () (* alarmed; session teardown happens in the main loop *)
        | Some msg ->
            Front.record_reply st.fe ~user:rop.o_user ~seq:rop.o_seq
              (Codec.encode_message msg);
            Obs.incr c_ops;
            jot st ~user:rop.o_user ~span:rop.o_seq ~ev:"router.reply"
              (Message.kind msg);
            let frame = Codec.Reply { seq = rop.o_seq; ctx = rop.o_ctx; msg } in
            (* two-phase: a lockstep reply only leaves after the round's
               composed root is committed; bench replies flow freely *)
            if rop.o_lockstep then Queue.add (rop.o_user, frame) st.held
            else Front.send_to st.fe rop.o_user frame;
            loop ())
    | _ -> ()
  in
  loop ()

(* ---- Client-facing frames --------------------------------------------- *)

let handle_hello st sess (h : Codec.hello) =
  if Front.version_ok sess h then
    match h.Codec.h_role with
    | Codec.Shard_link ->
        Front.reject sess Codec.Bad_user "a router does not accept shard links"
    | Codec.Lockstep | Codec.Free -> Front.join st.fe sess h ~welcome:(welcome st)

let enqueue_op st (sess : Front.session) ~seq ~ctx ~op ~piggyback =
  let touched = if st.shard_count = 1 then [ 0 ] else Vo.shards_for st.boundaries op in
  let rop =
    {
      o_user = sess.user;
      o_seq = seq;
      o_ctx = ctx;
      o_op = op;
      o_piggyback = piggyback;
      o_lockstep = Front.lockstep sess;
      o_touched = touched;
      o_replies = [];
    }
  in
  Queue.add rop st.compose_q;
  List.iter (fun i -> Queue.add rop st.links.(i).l_queue) touched

let handle_request st (sess : Front.session) ~seq ~ctx ~msg =
  match msg with
  | Message.Query { op; piggyback } ->
      if Front.admit_query st.fe sess ~seq ~ctx then begin
        Log.debug (fun f -> f "u%d: query seq %d routed (round %d)" sess.user seq st.fe.round);
        enqueue_op st sess ~seq ~ctx ~op ~piggyback
      end
  | m ->
      (* The cluster serves the plain-mode protocols; signing and token
         servers are centralized by construction. *)
      Conn.send sess.conn
        (Codec.Error_frame
           {
             code = Codec.Protocol_violation;
             detail =
               Printf.sprintf "a sharded cluster cannot serve %s requests"
                 (Message.kind m);
           })

let[@tcvs.lint.root "event-loop"] handle_client_frame st (sess : Front.session) frame =
  match (sess.role, frame) with
  | None, Codec.Hello h -> handle_hello st sess h
  | Some _, Codec.Request { seq; ctx; msg } -> handle_request st sess ~seq ~ctx ~msg
  | _ -> Front.handle_frame st.fe sess frame

(* ---- Shard-link frames ------------------------------------------------ *)

let handle_shard_root st l ~round ~shard_id ~generation ~ctr ~root =
  if shard_id <> l.l_id then
    alarm st (Printf.sprintf "link %d voted as shard %d" l.l_id shard_id)
  else begin
    if generation < l.l_gen then
      alarm st
        (Printf.sprintf "shard %d: generation regressed %d -> %d in a vote" l.l_id
           l.l_gen generation);
    l.l_gen <- max l.l_gen generation;
    match st.barrier with
    | Sealing b when round = b.b_round && not b.b_votes.(l.l_id) ->
        (* the trust-but-verify point: the shard's sealed root must be
           exactly where the composed serial history says it is *)
        if root <> st.serial_roots.(l.l_id) then
          alarm st
            (Printf.sprintf
               "shard-root-divergence: shard %d sealed r%d off the serial chain \
                (shard ctr %d)"
               l.l_id round ctr)
        else b.b_votes.(l.l_id) <- true
    | _ ->
        Log.debug (fun f ->
            f "shard %d: stale shard_root r%d ignored" l.l_id round)
  end

let[@tcvs.lint.root "event-loop"] handle_link_frame st l frame =
  match frame with
  | Codec.Reply { seq; msg; _ } -> (
      match l.l_inflight with
      | Some (rseq, rop) when rseq = seq ->
          l.l_inflight <- None;
          l.l_attempts <- 0;
          ignore (Queue.pop l.l_queue);
          rop.o_replies <- rop.o_replies @ [ (l.l_id, msg) ]
      | _ -> Log.debug (fun f -> f "shard %d: stale reply seq %d" l.l_id seq))
  | Codec.Shard_root { round; shard_id; generation; ctr; root } ->
      handle_shard_root st l ~round ~shard_id ~generation ~ctr ~root
  | Codec.Error_frame { code = Codec.Lost_reply; detail } ->
      (* an op was executed on the shard but its effect is unknowable —
         composing any further root would be a guess *)
      alarm st (Printf.sprintf "shard %d lost a reply across a crash: %s" l.l_id detail)
  | Codec.Error_frame { code; detail } ->
      alarm st
        (Printf.sprintf "shard %d error (%s): %s" l.l_id
           (Codec.error_code_to_string code) detail)
  | Codec.Session_end _ | Codec.Bye ->
      Log.info (fun f -> f "shard %d ended the link" l.l_id);
      close_link l
  | Codec.Ack _ -> ()
  | Codec.Hello _ | Codec.Welcome _ | Codec.Request _ | Codec.Publish _
  | Codec.Deliver _ | Codec.Deliver_ack _ | Codec.Tick _ | Codec.Tick_done _
  | Codec.Prepare _ | Codec.Commit _ ->
      alarm st
        (Printf.sprintf "shard %d sent an unexpected %s" l.l_id
           (Codec.frame_kind frame))

(* ---- The round clock and the barrier ---------------------------------- *)

let release_held st =
  Queue.iter (fun (u, frame) -> Front.send_to st.fe u frame) st.held;
  Queue.clear st.held

(* After the barrier (or a clean round): alarm, drain, or tick again. *)
let post_round st =
  Front.close_round st.fe
    ~alarm:(if st.alarms <> [] then Some "router-alarm" else None)
    ~idle:(Queue.is_empty st.compose_q)

let send_prepares st ~round ~missing_only votes =
  Array.iter
    (fun l ->
      if (not missing_only) || not votes.(l.l_id) then
        match l.l_conn with
        | Some conn -> Conn.send conn (Codec.Prepare { round })
        | None -> () (* offered on reconnect *))
    st.links

let start_seal st =
  jot st ~ev:"router.seal" (Printf.sprintf "prepare r%d" st.fe.round);
  let b_votes = Array.make st.shard_count false in
  st.barrier <-
    Sealing
      { b_round = st.fe.round; b_votes; b_sent_at = Unix.gettimeofday (); b_attempts = 0 };
  send_prepares st ~round:st.fe.round ~missing_only:false b_votes

let commit_barrier st b_round =
  let root = composed_root st in
  Obs.incr c_barriers;
  jot st ~ev:"router.commit"
    (Printf.sprintf "r%d root %s" b_round (Crypto.Hex.encode root));
  Array.iter
    (fun l ->
      match l.l_conn with
      | Some conn -> Conn.send conn (Codec.Commit { round = b_round; root })
      | None -> ())
    st.links;
  st.barrier <- Idle;
  st.dirty <- false;
  release_held st;
  post_round st

(* A barrier that cannot seal ends the session: its held replies never
   leave, so no client acts on a root no shard vouched for. *)
let abandon_barrier st reason =
  st.barrier <- Idle;
  Queue.clear st.held;
  Front.end_session st.fe ~alarmed:true ~reason

(* Drive the lockstep round machine: called from the main loop whenever
   state may have advanced. *)
let[@tcvs.lint.root "event-loop"] drive_rounds st =
  let fe = st.fe in
  Front.start_clock fe;
  if fe.ticking then begin
    match st.barrier with
    | Sealing b ->
        if Array.for_all Fun.id b.b_votes then commit_barrier st b.b_round
        else if st.alarms <> [] then
          (* a divergent vote is terminal — never publish a guessed root *)
          abandon_barrier st "router-alarm"
        else if Unix.gettimeofday () -. b.b_sent_at > reprepare_after then begin
          b.b_attempts <- b.b_attempts + 1;
          if b.b_attempts > max_reprepares then begin
            alarm st (Printf.sprintf "barrier-wedged: round %d never sealed" b.b_round);
            abandon_barrier st "barrier-wedged"
          end
          else begin
            Obs.incr c_barrier_retries;
            b.b_sent_at <- Unix.gettimeofday ();
            send_prepares st ~round:b.b_round ~missing_only:true b.b_votes
          end
        end
    | Idle ->
        if Front.tick_complete fe then begin
          (* round input is complete; wait for the shard pipeline to
             drain, then seal — or skip the barrier on a clean round *)
          let inflight =
            Array.exists (fun l -> l.l_inflight <> None || not (Queue.is_empty l.l_queue))
              st.links
          in
          if (not inflight) && Queue.is_empty st.compose_q then begin
            if st.alarms <> [] then Front.end_session fe ~alarmed:true ~reason:"router-alarm"
            else if st.dirty then start_seal st
            else post_round st
          end
        end
        else Front.retick fe
  end
  else if st.alarms <> [] && not fe.session_over then
    (* free-mode (bench) sessions have no barrier; an alarm ends them *)
    Front.end_session fe ~alarmed:true ~reason:"router-alarm"

(* ---- Admin ------------------------------------------------------------ *)

let admin_snapshot st =
  let fe = st.fe in
  let buf = Buffer.create 4096 in
  Printf.bprintf buf
    "{\n  \"schema\": \"tcvs-router-admin/1\",\n  \"round\": %d,\n  \"ticking\": %b,\n\
    \  \"ctr\": %d,\n  \"root\": %S,\n  \"phase\": %S,\n  \"sessions\": %d,\n\
    \  \"outstanding\": %d,\n  \"compose_queue\": %d,\n  \"held_replies\": %d,\n\
    \  \"alarms\": %d,\n  \"shards\": ["
    fe.round fe.ticking st.g_ctr
    (Crypto.Hex.encode (composed_root st))
    (match st.barrier with Idle -> "idle" | Sealing b -> Printf.sprintf "sealing-r%d" b.b_round)
    (List.length fe.sessions)
    (Hashtbl.length fe.outstanding)
    (Queue.length st.compose_q) (Queue.length st.held)
    (List.length st.alarms);
  Array.iteri
    (fun i l ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf
        "\n    { \"shard\": %d, \"addr\": \"%s:%d\", \"connected\": %b, \
         \"generation\": %d, \"rseq\": %d, \"queued\": %d, \"inflight\": %b, \
         \"root\": %S }"
        l.l_id l.l_host l.l_port (l.l_conn <> None) l.l_gen l.l_rseq
        (Queue.length l.l_queue) (l.l_inflight <> None)
        (Crypto.Hex.encode st.serial_roots.(i)))
    st.links;
  if Array.length st.links > 0 then Buffer.add_string buf "\n  ";
  Buffer.add_string buf "],\n  \"registry\": ";
  Buffer.add_string buf (String.trim (Obs.Report.to_json ~volatile:true ()));
  Buffer.add_string buf "\n}\n";
  Buffer.contents buf

(* ---- Setup and main loop ---------------------------------------------- *)

(* The same quantile partition every shard daemon and every single
   [--shards N] daemon computes from the seeded key list — agreement on
   the boundaries is what makes the composed root byte-identical. *)
let build_state cfg =
  let shard_count = Array.length cfg.shard_addrs in
  if shard_count < 1 then Error "router needs at least one shard address"
  else begin
    let initial = Harness.initial_files cfg.files in
    let map =
      Store.Shard_map.create ~branching:cfg.branching ~shards:shard_count
        ~keys:(List.map fst initial)
    in
    let boundaries = Store.Shard_map.boundaries map in
    let initial_roots =
      Array.init shard_count (fun i ->
          let slice = List.filter (fun (k, _) -> Store.Shard_map.route map k = i) initial in
          Store.Shard_db.root_digest
            (Store.Shard_db.create ~branching:cfg.branching ~shards:1 slice))
    in
    let links =
      Array.mapi
        (fun i (host, port) ->
          {
            l_id = i;
            l_host = host;
            l_port = port;
            l_queue = Queue.create ();
            l_conn = None;
            l_boot = "";
            l_gen = 0;
            l_rseq = 0;
            l_inflight = None;
            l_sent_at = 0.;
            l_attempts = 0;
            l_next_connect = 0.;
            l_reconnects = 0;
          })
        cfg.shard_addrs
    in
    Ok
      {
        cfg;
        shard_count;
        boundaries;
        initial_roots;
        serial_roots = Array.copy initial_roots;
        links;
        fe =
          Front.create ~src ~scope:obs_scope ~ev:"router" ~ev_dispatch:"router.route"
            ~users:cfg.users ~max_conns:cfg.max_conns
            (Option.map (fun p -> Obs.Journal.open_ ~proc:"router" p) cfg.journal);
        compose_q = Queue.create ();
        held = Queue.create ();
        g_ctr = 0;
        g_last_user = -1;
        dirty = false;
        barrier = Idle;
        alarms = [];
      }
  end

let[@tcvs.lint.root "event-loop"] read_link st l =
  match l.l_conn with
  | None -> ()
  | Some conn ->
      Conn.fill conn;
      let rec pump () =
        match Conn.pop conn with
        | Ok None -> ()
        | Ok (Some frame) ->
            handle_link_frame st l frame;
            if l.l_conn <> None then pump ()
        | Error e ->
            Log.warn (fun f ->
                f "shard %d: undecodable frame (%s) — dropping the link" l.l_id
                  (Codec.error_to_string e));
            close_link l
      in
      pump ()

let run cfg =
  match build_state cfg with
  | Error e -> Error e
  | Ok st -> (
      match
        Front.listen st.fe ~port:cfg.listen_port ~port_file:cfg.port_file
          ~admin_port:cfg.admin_port ~admin_port_file:cfg.admin_port_file
      with
      | Error e -> Error e
      | Ok l ->
          Log.app (fun f ->
              f "routing 127.0.0.1:%d over %d shards (boot %s, %d users)" l.Front.port
                st.shard_count st.fe.boot_id cfg.users);
          (* [step] links every shard on the first turn, before any
             client Hello is read *)
          Front.serve st.fe l ~handle:(handle_client_frame st)
            ~snapshot:(fun () -> admin_snapshot st)
            ~step:(fun () ->
              pump_links st;
              try_compose st;
              drive_rounds st)
            ~links:(fun () -> List.filter_map (fun l -> l.l_conn) (Array.to_list st.links))
            ~read_links:(fun readable ->
              Array.iter
                (fun l ->
                  match l.l_conn with
                  | Some c when List.mem (Conn.fd c) readable -> read_link st l
                  | _ -> ())
                st.links)
            ~close:(fun () -> Array.iter close_link st.links)
            ())
