(** The one event loop of every [lib/net] process, and the socket
    plumbing around it. Each pass of a process's loop is one {!turn}: a
    single [Unix.select] over its {!watch}es, the process's only wait.
    Callbacks return at once, which the [event-loop-purity] lint checks
    from one root per process. Failures are [Error], never exceptions. *)

type watch =
  | Listener of Unix.file_descr * (Unix.file_descr -> Unix.sockaddr -> unit)
      (** Every pending connection is accepted and handed over. *)
  | Frames of Conn.t * (Codec.frame -> unit) * (Codec.error -> unit)
      (** Complete frames in arrival order; an undecodable one ends the
          burst (the caller closes). Dead connections are skipped. *)

val turn : timeout:float -> watch list -> unit
(** Select for at most [timeout] seconds, dispatch what is readable in
    list order, then flush every [Frames] connection. *)

val dial : Unix.inet_addr -> int -> (Conn.t, string) result
(** A nonblocking connect, returned at once: frames sent meanwhile wait
    in its buffer, and a later failure surfaces as {!Conn.eof} with
    {!Conn.dial_error}. *)

val trap_stop : bool ref -> unit
(** Clear [flag]; from now on SIGTERM and SIGINT set it (the caller's
    loop drains and exits) and SIGPIPE is ignored, so a write to a dead
    peer fails with EPIPE instead of killing the process. *)

val resolve : string -> (Unix.inet_addr, string) result
(** A dotted quad, or an IPv4 name lookup — at setup, never inside a
    loop. *)

val listen : ?backlog:int -> port:int -> unit -> (Unix.file_descr * int, string) result
(** A nonblocking [SO_REUSEADDR] listener on 127.0.0.1 ([port = 0]
    picks an ephemeral port) and the port it bound. [backlog] defaults
    to 64. *)

val write_port_file : string -> int -> unit
(** Write [port] and a newline to the file, tmp + rename, so a reader
    never sees a partial file. *)
