(* Socket plumbing shared by every lib/net process: name resolution,
   the loopback listener, port files, and the client side's blocking
   dial + first-frame wait. Everything reports failure as [Error], never
   as an exception — a peer that is absent or closes early is an
   expected event on a network. *)

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

let connect_fd ~host ~port ~timeout =
  match resolve host with
  | Error e -> Error e
  | Ok addr -> (
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.set_nonblock fd;
      let fail msg = Unix.close fd; Error msg in
      let ok () = Unix.clear_nonblock fd; Ok fd in
      match Unix.connect fd (Unix.ADDR_INET (addr, port)) with
      | () -> ok ()
      | exception Unix.Unix_error (Unix.EINPROGRESS, _, _) -> (
          match Unix.select [] [ fd ] [] timeout with
          | [], [], [] -> fail "connect timeout"
          | _ -> (
              match Unix.getsockopt_error fd with
              | None -> ok ()
              | Some err -> fail (Unix.error_message err)))
      | exception Unix.Unix_error (err, _, _) -> fail (Unix.error_message err))

let await_frame conn ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec loop () =
    match Conn.pop conn with
    | Ok (Some frame) -> Ok (Some frame)
    | Error e -> Error (Codec.error_to_string e)
    | Ok None ->
        if Conn.eof conn then Error "connection closed"
        else if Unix.gettimeofday () > deadline then Ok None
        else begin
          Conn.flush conn;
          let slice = min 0.25 (max 0.01 (deadline -. Unix.gettimeofday ())) in
          (match
             Unix.select [ Conn.fd conn ]
               (if Conn.want_write conn then [ Conn.fd conn ] else [])
               [] slice
           with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | r, w, _ ->
              if w <> [] then Conn.flush conn;
              if r <> [] then Conn.fill conn);
          loop ()
        end
  in
  loop ()
