(** Socket helpers shared by the daemon, router, client, proxy and
    admin endpoint. Failures are [Error] strings, never exceptions. *)

val trap_stop : bool ref -> unit
(** Clear [flag]; from now on SIGTERM and SIGINT set it (the caller's
    loop drains and exits) and SIGPIPE is ignored, so a write to a dead
    peer fails with EPIPE instead of killing the process. *)

val resolve : string -> (Unix.inet_addr, string) result
(** A dotted quad, or an IPv4 name lookup. *)

val listen : ?backlog:int -> port:int -> unit -> (Unix.file_descr * int, string) result
(** A nonblocking [SO_REUSEADDR] listener on 127.0.0.1 ([port = 0]
    picks an ephemeral port) and the port it bound. [backlog] defaults
    to 64. *)

val write_port_file : string -> int -> unit
(** Write [port] and a newline to the file, tmp + rename, so a reader
    never sees a partial file. *)

val connect_fd :
  host:string -> port:int -> timeout:float -> (Unix.file_descr, string) result
(** Dial with a [timeout]-second bound on the TCP handshake; the
    returned fd is in blocking mode. *)

val await_frame : Conn.t -> timeout:float -> (Codec.frame option, string) result
(** Block until the next frame arrives. [Ok None] means the timeout
    expired; a peer that closes first is [Error "connection closed"]. *)
