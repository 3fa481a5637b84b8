(** Buffered, non-blocking frame I/O over one socket.

    A [Conn.t] owns a file descriptor in non-blocking mode plus a read
    buffer (bytes received but not yet parsed) and a write buffer
    (frames encoded but not yet written). {!Loop.turn} drives it in
    every process: {!fill} after the fd selects readable, {!pop} until
    it returns [Ok None], {!flush} once per turn.

    Framing errors ({!Codec.error}) are returned, never raised — a
    peer speaking garbage is an expected event on a network. *)

type t

val create : ?max_frame:int -> ?connecting:bool -> Unix.file_descr -> t
(** Takes ownership of [fd] and switches it to non-blocking mode.
    [max_frame] (default {!Codec.default_max_frame}) bounds announced
    body lengths; an oversized announcement poisons the connection.
    [connecting] marks a {!Loop.dial} still in its TCP handshake. *)

val fd : t -> Unix.file_descr
val eof : t -> bool
(** The peer closed (or the connection errored); no more reads. *)

val dial_error : t -> string option
(** Why a dial failed before its TCP handshake completed ([SO_ERROR]). *)

val fill : t -> unit
(** Read everything currently available into the parse buffer.
    [EAGAIN] is quietly nothing-to-do; EOF and connection errors set
    {!eof}. *)

val pop : t -> (Codec.frame option, Codec.error) result
(** Parse one complete frame out of the buffer. [Ok None] means more
    bytes are needed. An [Error] leaves the buffer poisoned — the
    caller should send an error frame if it still can, and close. *)

val send : t -> Codec.frame -> unit
(** Encode and append to the write buffer (no syscall — {!Loop.turn}
    flushes). *)

val send_encoded : t -> string -> unit
(** Append one frame already encoded, e.g. by {!Codec.encode_reply}. *)

val flush : t -> unit
(** Write as much of the buffered output as the socket accepts. *)

val want_write : t -> bool
(** Buffered output remains — include the fd in the select write set. *)

val pending_out : t -> int
(** Bytes currently buffered for write. *)

type io_stats = {
  frames_in : int;
  frames_out : int;
  bytes_in : int;
  bytes_out : int;
}

val io_stats : t -> io_stats
(** Lifetime totals for this connection — the per-connection gauges in
    the daemon's admin snapshot. *)

val close : t -> unit
(** Close the socket and drop unparsed input: {!pop} returns [Ok None]
    from now on. *)
