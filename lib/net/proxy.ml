let src = Logs.Src.create "tcvs.net.proxy" ~doc:"Trusted-CVS fault proxy"

module Log = (val Logs.src_log src : Logs.LOG)

let obs_scope = Obs.Scope.v "net.proxy"
let c_forwarded = Obs.counter ~scope:obs_scope "frames_forwarded"
let c_dropped = Obs.counter ~scope:obs_scope "frames_dropped"
let c_delayed = Obs.counter ~scope:obs_scope "frames_delayed"
let c_duplicated = Obs.counter ~scope:obs_scope "frames_duplicated"
let c_partitioned = Obs.counter ~scope:obs_scope "frames_partitioned"

type faults = {
  drop : float;
  delay : float;
  duplicate : float;
  partition : (int list * int list * int) option;
}

let no_faults = { drop = 0.; delay = 0.; duplicate = 0.; partition = None }

type config = {
  listen_port : int;
  port_file : string option;
  dst_host : string;
  dst_port : int;
  seed : string;
  faults : faults;
  journal : string option;
}

let default_config ~dst_port =
  {
    listen_port = 0;
    port_file = None;
    dst_host = "127.0.0.1";
    dst_port;
    seed = "proxy";
    faults = no_faults;
    journal = None;
  }

type leg = { conn : Conn.t; mutable held : Codec.frame list (* newest first *) }

type link = {
  client : leg; (* towards the client *)
  server : leg; (* towards the daemon *)
  rng : Crypto.Prng.t;
  mutable user : int;
  mutable round : int;
}

let is_payload = function
  | Codec.Request _ | Codec.Publish _ | Codec.Reply _ | Codec.Deliver _
  | Codec.Deliver_ack _ | Codec.Ack _ ->
      true
  (* Prepare/Shard_root/Commit are the shard link's round clock
     (exactly like Tick on a client link): control, never faulted —
     injected faults on a router↔shard link hit the payload requests
     and replies, whose loss the router's retransmit + the shard's
     dedup absorb. *)
  | Codec.Hello _ | Codec.Welcome _ | Codec.Tick _ | Codec.Tick_done _
  | Codec.Session_end _ | Codec.Error_frame _ | Codec.Bye | Codec.Prepare _
  | Codec.Shard_root _ | Codec.Commit _ ->
      false

let crosses_partition faults link frame =
  match (faults.partition, frame) with
  | Some (ga, gb, from_round), Codec.Deliver { src = psrc; _ }
    when link.round >= from_round ->
      (List.mem psrc ga && List.mem link.user gb)
      || (List.mem psrc gb && List.mem link.user ga)
  | _ -> false

(* The wire ctx is what lets the proxy attribute every fault to an op
   without decoding message bodies: (user, span) come straight off the
   frame header. Control frames journal nothing. *)
let jot jnl link ~ev frame =
  match jnl with
  | None -> ()
  | Some j -> (
      match Codec.ctx_of_frame frame with
      | None -> ()
      | Some c ->
          Obs.Journal.event j ~user:c.Codec.x_user ~span:c.Codec.x_span
            ~round:link.round ~ev (Codec.frame_kind frame))

(* [dst] is the leg the frame continues on; held frames are flushed
   there after the control frame that ends the round. *)
let relay cfg jnl link ~dst frame =
  (match frame with
  | Codec.Hello h -> link.user <- h.Codec.h_user
  | Codec.Tick { round } -> link.round <- round
  | _ -> ());
  (* physical identity: which leg the frame continues on names the
     direction in the journal *)
  let fwd_ev = if dst == link.server then "proxy.to_server" else "proxy.to_client" in
  if not (is_payload frame) then begin
    Obs.incr c_forwarded;
    Conn.send dst.conn frame;
    (* round boundary: release what this round delayed *)
    List.iter (fun f -> Conn.send dst.conn f) (List.rev dst.held);
    dst.held <- []
  end
  else if crosses_partition cfg.faults link frame then begin
    Obs.incr c_partitioned;
    jot jnl link ~ev:"proxy.drop" frame
  end
  else if cfg.faults.drop > 0. && Crypto.Prng.bernoulli link.rng ~p:cfg.faults.drop
  then begin
    Obs.incr c_dropped;
    jot jnl link ~ev:"proxy.drop" frame
  end
  else if
    cfg.faults.delay > 0. && Crypto.Prng.bernoulli link.rng ~p:cfg.faults.delay
  then begin
    Obs.incr c_delayed;
    jot jnl link ~ev:"proxy.delay" frame;
    dst.held <- frame :: dst.held
  end
  else begin
    Obs.incr c_forwarded;
    Conn.send dst.conn frame;
    jot jnl link ~ev:fwd_ev frame;
    if
      cfg.faults.duplicate > 0.
      && Crypto.Prng.bernoulli link.rng ~p:cfg.faults.duplicate
    then begin
      Obs.incr c_duplicated;
      jot jnl link ~ev:"proxy.duplicate" frame;
      Conn.send dst.conn frame
    end
  end

let stop_requested = ref false

let close_link link =
  Conn.close link.client.conn;
  Conn.close link.server.conn

(* Either leg dead with nothing left to hand the other (both dead after
   an undecodable frame). An upstream that never connected says why. *)
let finished link =
  let c = link.client.conn and s = link.server.conn in
  let dead = Conn.eof c && (Conn.eof s || Conn.pending_out s = 0) in
  let dead = dead || (Conn.eof s && Conn.pending_out c = 0) in
  if dead then begin
    Conn.dial_error s
    |> Option.iter (fun e -> Log.warn (fun f -> f "upstream connect failed: %s" e));
    close_link link
  end;
  dead

let[@tcvs.lint.root "event-loop"] serve cfg jnl listen_fd dst_addr =
  let links = ref [] in
  let accepted = ref 0 in
  let rng = Crypto.Prng.create ~seed:cfg.seed in
  let accept cfd _ =
    match Loop.dial dst_addr cfg.dst_port with
    | Error e ->
        Log.warn (fun f -> f "upstream connect failed: %s" e);
        Unix.close cfd
    | Ok server ->
        incr accepted;
        links :=
          {
            client = { conn = Conn.create cfd; held = [] };
            server = { conn = server; held = [] };
            rng = Crypto.Prng.split rng ~label:(Printf.sprintf "link-%d" !accepted);
            user = -1;
            round = 0;
          }
          :: !links
  in
  let leg link ~from ~dst =
    Loop.Frames
      ( from.conn,
        relay cfg jnl link ~dst,
        fun e ->
          Log.warn (fun f ->
              f "u%d: undecodable frame (%s) — dropping the link" link.user
                (Codec.error_to_string e));
          close_link link )
  in
  let rec loop () =
    if !stop_requested then begin
      List.iter close_link !links;
      Unix.close listen_fd;
      Option.iter Obs.Journal.close jnl;
      Ok ()
    end
    else begin
      Loop.turn ~timeout:0.1
        (Loop.Listener (listen_fd, accept)
        :: List.concat_map
             (fun l -> [ leg l ~from:l.client ~dst:l.server; leg l ~from:l.server ~dst:l.client ])
             !links);
      links := List.filter (fun l -> not (finished l)) !links;
      loop ()
    end
  in
  loop ()

let run cfg =
  Loop.trap_stop stop_requested;
  match Loop.resolve cfg.dst_host with
  | Error e -> Error e
  | Ok dst_addr -> (
      match Loop.listen ~port:cfg.listen_port () with
      | Error e -> Error e
      | Ok (listen_fd, port) ->
          Option.iter (fun path -> Loop.write_port_file path port) cfg.port_file;
          Log.app (fun f ->
              f "proxying 127.0.0.1:%d -> %s:%d" port cfg.dst_host cfg.dst_port);
          serve cfg
            (Option.map (fun p -> Obs.Journal.open_ ~proc:"proxy" p) cfg.journal)
            listen_fd dst_addr)
