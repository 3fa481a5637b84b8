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

let pump cfg jnl link ~from ~dst =
  Conn.fill from.conn;
  let rec loop () =
    match Conn.pop from.conn with
    | Ok None -> true
    | Ok (Some frame) ->
        relay cfg jnl link ~dst frame;
        loop ()
    | Error e ->
        Log.warn (fun f ->
            f "u%d: undecodable frame (%s) — dropping the link" link.user
              (Codec.error_to_string e));
        false
  in
  loop ()

let close_link link =
  Conn.close link.client.conn;
  Conn.close link.server.conn

let run cfg =
  Sock.trap_stop stop_requested;
  match Sock.resolve cfg.dst_host with
  | Error e -> Error e
  | Ok dst_addr -> (
      match Sock.listen ~port:cfg.listen_port () with
      | Error e -> Error e
      | Ok (listen_fd, port) ->
          Option.iter (fun path -> Sock.write_port_file path port) cfg.port_file;
          Log.app (fun f ->
              f "proxying 127.0.0.1:%d -> %s:%d" port cfg.dst_host cfg.dst_port);
          let links = ref [] in
          let accepted = ref 0 in
          let rng = Crypto.Prng.create ~seed:cfg.seed in
          let jnl =
            Option.map (fun p -> Obs.Journal.open_ ~proc:"proxy" p) cfg.journal
          in
          let accept_pending () =
            let rec loop () =
              match Unix.accept listen_fd with
              | cfd, _ -> (
                  match
                    Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 |> fun sfd ->
                    (try
                       Unix.connect sfd (Unix.ADDR_INET (dst_addr, cfg.dst_port));
                       Ok sfd
                     with Unix.Unix_error (err, _, _) ->
                       Unix.close sfd;
                       Error (Unix.error_message err))
                  with
                  | Error e ->
                      Log.warn (fun f -> f "upstream connect failed: %s" e);
                      Unix.close cfd;
                      loop ()
                  | Ok sfd ->
                      incr accepted;
                      links :=
                        {
                          client =
                            { conn = Conn.create cfd; held = [] };
                          server =
                            { conn = Conn.create sfd; held = [] };
                          rng =
                            Crypto.Prng.split rng
                              ~label:(Printf.sprintf "link-%d" !accepted);
                          user = -1;
                          round = 0;
                        }
                        :: !links;
                      loop ())
              | exception
                  Unix.Unix_error
                    ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
                  ()
            in
            loop ()
          in
          let rec loop () =
            if !stop_requested then begin
              List.iter close_link !links;
              Unix.close listen_fd;
              (match jnl with Some j -> Obs.Journal.close j | None -> ());
              Ok ()
            end
            else begin
              let legs l = [ l.client; l.server ] in
              let rfds =
                listen_fd
                :: List.concat_map (fun l -> List.map (fun g -> Conn.fd g.conn) (legs l)) !links
              in
              let wfds =
                List.concat_map
                  (fun l ->
                    List.filter_map
                      (fun g -> if Conn.want_write g.conn then Some (Conn.fd g.conn) else None)
                      (legs l))
                  !links
              in
              (match Unix.select rfds wfds [] 0.1 with
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
              | readable, writable, _ ->
                  if List.mem listen_fd readable then accept_pending ();
                  links :=
                    List.filter
                      (fun l ->
                        let ok =
                          (if List.mem (Conn.fd l.client.conn) readable then
                             pump cfg jnl l ~from:l.client ~dst:l.server
                           else true)
                          && (if List.mem (Conn.fd l.server.conn) readable then
                                pump cfg jnl l ~from:l.server ~dst:l.client
                              else true)
                        in
                        List.iter
                          (fun g ->
                            if List.mem (Conn.fd g.conn) writable then Conn.flush g.conn)
                          (legs l);
                        List.iter (fun g -> Conn.flush g.conn) (legs l);
                        let dead =
                          (not ok)
                          || (Conn.eof l.client.conn && Conn.pending_out l.server.conn = 0)
                          || (Conn.eof l.server.conn && Conn.pending_out l.client.conn = 0)
                        in
                        if dead then close_link l;
                        not dead)
                      !links);
              loop ()
            end
          in
          loop ())
