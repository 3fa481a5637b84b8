(* The one event loop of every lib/net process, and the socket plumbing
   around it. A [turn]'s select is a process's only wait; everything
   else returns at once and reports failure as [Error], never as an
   exception — an absent peer is an expected event on a network. *)

type watch =
  | Listener of Unix.file_descr * (Unix.file_descr -> Unix.sockaddr -> unit)
  | Frames of Conn.t * (Codec.frame -> unit) * (Codec.error -> unit)

let trap_stop flag =
  flag := false;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let on_stop = Sys.Signal_handle (fun _ -> flag := true) in
  Sys.set_signal Sys.sigterm on_stop;
  Sys.set_signal Sys.sigint on_stop

let resolve host =
  match Unix.inet_addr_of_string host with
  | a -> Ok a
  | exception Failure _ -> (
      match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
      | { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } :: _ -> Ok a
      | _ -> Error ("cannot resolve " ^ host))

let listen ?(backlog = 64) ~port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  match Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
  | exception Unix.Unix_error (err, _, _) ->
      Unix.close fd;
      Error (Printf.sprintf "cannot bind 127.0.0.1:%d: %s" port (Unix.error_message err))
  | () ->
      Unix.listen fd backlog;
      Unix.set_nonblock fd;
      let bound =
        match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | Unix.ADDR_UNIX _ -> port
      in
      Ok (fd, bound)

let write_port_file path port =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc (string_of_int port);
  output_char oc '\n';
  close_out oc;
  Sys.rename tmp path

let dial addr port =
  match Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (err, _, _) -> Error (Unix.error_message err)
  | fd -> (
      Unix.set_nonblock fd;
      let failed =
        match Unix.connect fd (Unix.ADDR_INET (addr, port)) with
        | () -> None
        | exception Unix.Unix_error (Unix.EINPROGRESS, _, _) ->
            (* a loopback peer has usually refused by now *)
            Unix.getsockopt_error fd
        | exception Unix.Unix_error (err, _, _) -> Some err
      in
      match failed with
      | None -> Ok (Conn.create ~connecting:true fd)
      | Some err ->
          Unix.close fd;
          Error (Unix.error_message err))

let rec accept_all lfd on_accept =
  match Unix.accept lfd with
  | fd, addr ->
      on_accept fd addr;
      accept_all lfd on_accept
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()

(* Frames in arrival order until the buffer runs dry. A handler that
   closes the connection ends the burst: [Conn.close] drops the
   unparsed input. *)
let rec pump conn on_frame on_error =
  match Conn.pop conn with
  | Ok None -> ()
  | Ok (Some frame) ->
      on_frame frame;
      pump conn on_frame on_error
  | Error e -> on_error e

(* Deep-lint justification: this select is the loop's one wait, and
   what a process does between two of them is checked from its root. *)
let[@tcvs.lint.allow "event-loop-purity"] turn ~timeout watches =
  let rfds, wfds =
    List.fold_left
      (fun (r, w) -> function
        | Listener (fd, _) -> (fd :: r, w)
        | Frames (c, _, _) when Conn.eof c -> (r, w)
        | Frames (c, _, _) ->
            (Conn.fd c :: r, if Conn.want_write c then Conn.fd c :: w else w))
      ([], []) watches
  in
  let readable =
    match Unix.select rfds wfds [] timeout with
    | r, _, _ -> r
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
  in
  List.iter
    (function
      | Listener (fd, on_accept) -> if List.mem fd readable then accept_all fd on_accept
      | Frames (c, on_frame, on_error) when (not (Conn.eof c)) && List.mem (Conn.fd c) readable ->
          Conn.fill c;
          pump c on_frame on_error
      | Frames _ -> ())
    watches;
  (* one flush pass covers both the writable sockets and the frames
     this turn queued *)
  List.iter (function Frames (c, _, _) -> Conn.flush c | Listener _ -> ()) watches
