(* The closed-loop load generator: one process, one [Unix.select]
   loop, free-role connections with one query outstanding each — the
   paper's users issue their next transaction only once the previous
   one is verified. Every reply is verified ({!Verify}); an error
   frame, a disconnect or [timeout_ns] without a reply fails the op
   and retires its connection. *)

module Vo = Mtree.Vo
module Codec = Net.Codec
module Conn = Net.Conn
module Message = Tcvs.Message

let now_ns = Spans.now_ns
let timeout_ns = 2_000_000_000

type conn = {
  id : int;
  conn : Conn.t;
  gen : Mix.gen;
  mutable seq : int;
  mutable op : Vo.op;
  mutable sent_ns : int;
  mutable inflight : bool;
  mutable dead : bool;
  mutable span : int;  (** root span of the op in flight; -1 when untraced *)
}

type t = {
  conns : conn array;
  verify : Verify.t;
  mutable attempted : int;
  mutable failures : string list;  (** newest first *)
  mutable sending : bool;
  spans : Spans.t option;  (** [Some] in a traced run *)
  mutable tracing : bool;  (** ops sent now get spans *)
  mutable on_done : int -> unit;  (** latency of each verified op, ns *)
}

let ctx c = { Codec.x_round = 0; x_user = c.id; x_span = c.seq }

(* Blocks until [conn] yields a frame, EOF or [deadline]. *)
let await conn ~deadline =
  let rec loop () =
    match Conn.pop conn with
    | Error e -> Error (Codec.error_to_string e)
    | Ok (Some f) -> Ok f
    | Ok None ->
        let left = float_of_int (deadline - now_ns ()) /. 1e9 in
        if Conn.eof conn then Error "connection closed"
        else if left <= 0. then Error "timed out"
        else begin
          Conn.flush conn;
          (match Unix.select [ Conn.fd conn ] [] [] (Float.min left 0.1) with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | r, _, _ -> if r <> [] then Conn.fill conn);
          loop ()
        end
  in
  loop ()

(* Connect and complete the free-role handshake. A fresh server must
   announce ctr 0 at M(D0). *)
let connect ~port ~user ~initial_root =
  match Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | fd -> (
      match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
      | exception Unix.Unix_error (e, _, _) ->
          Unix.close fd;
          Error (Printf.sprintf "connect: %s" (Unix.error_message e))
      | () -> (
          let conn = Conn.create fd in
          Conn.send conn
            (Codec.Hello
               {
                 Codec.h_version = Codec.protocol_version;
                 h_role = Codec.Free;
                 h_user = user;
                 h_users = Mix.conns;
                 h_round = 0;
               });
          Conn.flush conn;
          let fail e =
            Conn.close conn;
            Error (Printf.sprintf "conn %d handshake: %s" user e)
          in
          match await conn ~deadline:(now_ns () + 10_000_000_000) with
          | Ok (Codec.Welcome w) ->
              if w.Codec.w_ctr <> 0 || not (Crypto.Ctime.equal w.Codec.w_root initial_root)
              then fail "fresh server does not announce M(D0) at ctr 0"
              else Ok conn
          | Ok f -> fail ("unexpected " ^ Codec.frame_kind f)
          | Error e -> fail e))

let create ~conns ~gens ~initial_root ~traced =
  {
    conns =
      Array.mapi
        (fun id conn ->
          {
            id;
            conn;
            gen = gens.(id);
            seq = 0;
            op = Vo.Get "";
            sent_ns = 0;
            inflight = false;
            dead = false;
            span = -1;
          })
        conns;
    verify = Verify.create ~initial_root;
    attempted = 0;
    failures = [];
    sending = false;
    spans = (if traced then Some (Spans.create ~proc:"loadgen") else None);
    tracing = false;
    on_done = ignore;
  }

let fail t c reason =
  t.failures <- Printf.sprintf "conn %d seq %d: %s" c.id c.seq reason :: t.failures;
  c.inflight <- false;
  c.dead <- true;
  Conn.close c.conn

let send_next t c =
  let op = c.gen.Mix.next () in
  c.seq <- c.seq + 1;
  c.op <- op;
  c.inflight <- true;
  t.attempted <- t.attempted + 1;
  let t0 = now_ns () in
  Conn.send c.conn
    (Codec.Request { seq = c.seq; ctx = ctx c; msg = Message.Query { op; piggyback = [] } });
  c.sent_ns <- t0;
  (match t.spans with
  | Some sp when t.tracing ->
      c.span <- Spans.add sp ~name:"op" ~parent:(-1) ~conn:c.id ~seq:c.seq ~start:t0 ~stop:t0;
      ignore
        (Spans.add sp ~name:"codec.encode" ~parent:c.span ~conn:c.id ~seq:c.seq ~start:t0
           ~stop:(now_ns ()))
  | _ -> c.span <- -1);
  Conn.flush c.conn

let on_frame t c frame ~dec_start ~dec_end =
  match frame with
  | Codec.Reply { seq; msg; _ } when c.inflight && seq = c.seq -> (
      let v0 = now_ns () in
      let verdict = Verify.check t.verify ~op:c.op msg in
      let v1 = now_ns () in
      (match t.spans with
      | Some sp when c.span >= 0 ->
          let span name start stop =
            ignore (Spans.add sp ~name ~parent:c.span ~conn:c.id ~seq ~start ~stop)
          in
          span "codec.decode" dec_start dec_end;
          span "vo.apply" v0 v1;
          Spans.finish sp c.span ~stop:v1
      | _ -> ());
      match verdict with
      | Error e -> fail t c e
      | Ok () ->
          c.inflight <- false;
          t.on_done (v1 - c.sent_ns);
          if t.sending then send_next t c)
  | Codec.Error_frame { code; detail } ->
      fail t c (Printf.sprintf "server error (%s): %s" (Codec.error_code_to_string code) detail)
  | f -> fail t c ("unexpected " ^ Codec.frame_kind f)

let read t c =
  Conn.fill c.conn;
  let rec pump () =
    if not c.dead then begin
      let d0 = now_ns () in
      match Conn.pop c.conn with
      | Ok (Some f) ->
          on_frame t c f ~dec_start:d0 ~dec_end:(now_ns ());
          pump ()
      | Ok None -> if Conn.eof c.conn then fail t c "server closed the connection"
      | Error e -> fail t c ("undecodable frame: " ^ Codec.error_to_string e)
    end
  in
  pump ()

let live t = List.filter (fun c -> not c.dead) (Array.to_list t.conns)

(* Run the loop until [until_ns], or until nothing is left to wait for
   (no live connection, or not sending and nothing in flight). *)
let drive t ~until_ns =
  let rec loop () =
    let now = now_ns () in
    Array.iter
      (fun c -> if c.inflight && now - c.sent_ns > timeout_ns then fail t c "no reply within 2 s")
      t.conns;
    let live = live t in
    if now < until_ns && live <> [] && (t.sending || List.exists (fun c -> c.inflight) live)
    then begin
      let fds = List.map (fun c -> Conn.fd c.conn) live in
      let wfds =
        List.filter_map
          (fun c -> if Conn.want_write c.conn then Some (Conn.fd c.conn) else None)
          live
      in
      (match Unix.select fds wfds [] (Float.min 0.05 (float_of_int (until_ns - now) /. 1e9)) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | r, w, _ ->
          List.iter
            (fun c ->
              if List.mem (Conn.fd c.conn) w then Conn.flush c.conn;
              if List.mem (Conn.fd c.conn) r then read t c)
            live);
      loop ()
    end
  in
  loop ()

let start_sending t =
  t.sending <- true;
  List.iter (fun c -> if not c.inflight then send_next t c) (live t)

(* Stop issuing and wait for every op in flight (each fails after
   [timeout_ns]). *)
let drain t =
  t.sending <- false;
  drive t ~until_ns:(now_ns () + timeout_ns + 1_000_000_000)

let close t =
  Array.iter
    (fun c ->
      if not c.dead then begin
        Conn.send c.conn Codec.Bye;
        Conn.flush c.conn;
        Conn.close c.conn
      end)
    t.conns

let bytes_in t = Array.fold_left (fun acc c -> acc + (Conn.io_stats c.conn).Conn.bytes_in) 0 t.conns
