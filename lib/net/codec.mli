(** The network wire format: a full binary codec for {!Tcvs.Message.t}
    plus the length-framed, checksummed frame layer both ends of a TCP
    connection speak.

    {v
    +------+----------+-----------------+------------------+
    | TCVN | u32 len  | u32 CRC-32C     | body (len bytes) |
    +------+----------+-----------------+------------------+
      magic   of body     of body          u8 type + fields
    v}

    Every frame is self-delimiting (the 12-byte header carries the body
    length) and self-checking (the header carries the body's CRC-32C,
    {!Crypto.Crc32c}, the checksum the store's WAL records use too). The
    checksum catches damage in transit, every burst of up to 32 bits
    among it; it is no defence against the server, whose answers the
    client checks against the Merkle root. Decoding is strict: trailing
    bytes, bad tags, truncation and checksum mismatches all surface as
    a typed {!error}, never an exception and never a half-decoded
    frame. *)

val protocol_version : int
(** Bumped on any incompatible frame or message change; checked in the
    {!Hello}/{!Welcome} handshake. 5 since the header checksum became a
    CRC-32C. *)

type role = Lockstep | Free | Shard_link
(** [Lockstep]: a protocol user driven by daemon {!Tick}s (the
    simulator's round model over real sockets). [Free]: a closed-loop
    bench client; requests are executed on arrival. [Shard_link] (v3):
    the cluster router's connection to a shard daemon — requests are
    executed on arrival like [Free], but the daemon keeps the dedup
    state across reconnects (exactly-once must survive a shard crash)
    and answers the {!Prepare}/{!Shard_root}/{!Commit} round barrier. *)

type hello = {
  h_version : int;
  h_role : role;
  h_user : int;  (** this client's user id *)
  h_users : int;  (** total users the client expects in the session *)
  h_round : int;  (** client's local round (resume hint on reconnect) *)
}

type welcome = {
  w_version : int;
  w_boot_id : string;  (** changes on every daemon start — restart detector *)
  w_generation : int;  (** store generation ({!Store.generation}) *)
  w_ctr : int;  (** server operation counter at handshake time *)
  w_users : int;
  w_shards : int;
  w_round : int;  (** daemon tick round *)
  w_root : string;  (** current root digest (raw 32 bytes) *)
}

type error_code =
  | Version_mismatch
  | Bad_user  (** user id out of range, slot taken, or role mixup *)
  | Busy  (** connection limit reached *)
  | Lost_reply
      (** the op was executed and logged, but the daemon crashed before
          caching the reply — the at-most-once residue, surfaced loudly
          instead of re-executing *)
  | Protocol_violation  (** unexpected frame for the connection state *)

type ctx = { x_round : int; x_user : int; x_span : int }
(** The trace context stamped on every payload frame (v2): the round
    the op was issued in, the originating user, and the span id — the
    origin's own sequence number, reused verbatim on retransmits, so
    transport duplication can never mint a second span for one op.
    Replies and relayed delivers echo the originating op's context
    verbatim; [x_user = -1] (encoded 0xffff) means unattributable.
    This is what lets the fault proxy journal per-op events without
    decoding message bodies. *)

type frame =
  | Hello of hello
  | Welcome of welcome
  | Request of { seq : int; ctx : ctx; msg : Tcvs.Message.t }
      (** user → server message (Query / Root_signature / token turn),
          retransmitted until the matching {!Reply} or {!Ack} arrives *)
  | Publish of { seq : int; ctx : ctx; msg : Tcvs.Message.t }
      (** user → external broadcast channel; the daemon relays it to
          every other user as {!Deliver} and acknowledges with {!Ack} *)
  | Ack of { seq : int }
  | Reply of { seq : int; ctx : ctx; msg : Tcvs.Message.t }
      (** server's response to {!Request} [seq]; doubles as its ack *)
  | Deliver of { src : int; sseq : int; ctx : ctx; msg : Tcvs.Message.t }
      (** relayed broadcast, retransmitted until {!Deliver_ack};
          receivers dedup on (src, sseq) *)
  | Deliver_ack of { src : int; sseq : int }
  | Tick of { round : int }
  | Tick_done of { round : int; drained : bool; alarmed : bool }
  | Session_end of { round : int; alarmed : bool; reason : string }
  | Error_frame of { code : error_code; detail : string }
  | Bye
  | Prepare of { round : int }
      (** router → shard (v3): seal round [round] — flush the store and
          report the shard's current root. Retransmitted until the
          matching {!Shard_root} arrives; shards answer idempotently. *)
  | Shard_root of {
      round : int;
      shard_id : int;
      generation : int;  (** shard store generation — regression = alarm *)
      ctr : int;  (** ops the shard has executed *)
      root : string;  (** the shard's flat root digest (raw 32 bytes) *)
    }  (** shard → router (v3): the prepare vote the router composes. *)
  | Commit of { round : int; root : string }
      (** router → shard (v3): the composed client-visible root for
          [round] was published; informational for the shard's journal. *)

type error =
  | Bad_magic
  | Oversized of int  (** announced body length, over the cap *)
  | Bad_checksum
  | Malformed of string

val error_to_string : error -> string
val error_code_to_string : error_code -> string

val hello : role:role -> user:int -> users:int -> round:int -> frame
(** The [Hello] a dialler sends first, at {!protocol_version}. *)

val frame_kind : frame -> string

val ctx_of_frame : frame -> ctx option
(** The trace context of a payload frame; [None] for control frames. *)

val header_len : int
(** 12: magic + u32 length + 4-byte checksum. *)

val default_max_frame : int
(** 1 MiB body cap — comfortably above any protocol message, far below
    anything that could wedge a reader. *)

val encode_frame : frame -> string
(** Header + body, ready to write. *)

val encode_reply : seq:int -> ctx:ctx -> string -> string
(** [encode_reply ~seq ~ctx payload] is
    [encode_frame (Reply { seq; ctx; msg })] for the [msg] whose
    {!encode_message} is [payload]: a server encodes each reply once,
    and its cache, its log and the wire share that payload. *)

val decode_header : ?max_frame:int -> string -> (int * int, error) result
(** [decode_header hdr] takes exactly {!header_len} bytes and returns
    [(body_length, expected_checksum)]. *)

val decode_body : checksum:int -> string -> (frame, error) result
(** Decode a body of exactly the announced length, verifying the
    header's checksum first. *)

val decode_frame : ?max_frame:int -> string -> (frame, error) result
(** Whole-frame convenience for tests: header + body in one string. *)

val encode_message : Tcvs.Message.t -> string
(** The payload codec on its own: the reply a server caches, logs in
    its store and frames with {!encode_reply}. *)
