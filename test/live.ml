(* Plumbing for tests that fork real servers and talk to them over
   loopback TCP. *)

module Codec = Net.Codec
module Conn = Net.Conn

let fresh_dir () =
  let dir = Filename.temp_file "tcvs-live-test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  dir

let wait_port_file path =
  let deadline = Unix.gettimeofday () +. 10. in
  let rec loop () =
    if Sys.file_exists path then begin
      let ic = open_in path in
      let port = int_of_string (String.trim (input_line ic)) in
      close_in ic;
      port
    end
    else if Unix.gettimeofday () > deadline then Alcotest.failf "no port file at %s" path
    else begin
      ignore (Unix.select [] [] [] 0.02);
      loop ()
    end
  in
  loop ()

(* The child runs [f] (a server) until it returns or is killed, and
   never returns into alcotest. *)
let fork_proc f =
  match Unix.fork () with
  | 0 ->
      (try ignore (f ()) with _ -> ());
      Unix._exit 0
  | pid -> pid

let kill_wait pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (try Unix.waitpid [] pid with Unix.Unix_error _ -> (0, Unix.WEXITED 0))

let dial port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let connect port = Conn.create (dial port)

(* The next frame, or [None] once the server has closed the connection. *)
let next_frame ?(timeout = 10.) conn =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec loop () =
    Conn.flush conn;
    match Conn.pop conn with
    | Ok (Some frame) -> Some frame
    | Error e -> Alcotest.failf "undecodable frame: %s" (Codec.error_to_string e)
    | Ok None ->
        if Conn.eof conn then None
        else if Unix.gettimeofday () > deadline then Alcotest.fail "timed out waiting for a frame"
        else begin
          ignore (Unix.select [ Conn.fd conn ] [] [] 0.2);
          Conn.fill conn;
          loop ()
        end
  in
  loop ()
