module Message = Tcvs.Message
module Vo = Mtree.Vo
module W = Wire.W
module R = Wire.R

(* v2: payload frames (Request/Publish/Reply/Deliver) carry a compact
   trace context so any hop — including the fault proxy, which never
   decodes message bodies — can attribute a frame to the op that caused
   it.
   v3: the Shard_link role and the Prepare/Shard_root/Commit barrier
   frames for the multi-daemon cluster (router <-> shard daemon).
   v4: the Sync_* messages carry their sync session's number.
   v5: the header checksum is the CRC-32C of the body, not a SHA-256
   prefix. *)
let protocol_version = 5
let magic = "TCVN"
let header_len = 12
let default_max_frame = 1 lsl 20

type role = Lockstep | Free | Shard_link

type hello = {
  h_version : int;
  h_role : role;
  h_user : int;
  h_users : int;
  h_round : int;
}

type welcome = {
  w_version : int;
  w_boot_id : string;
  w_generation : int;
  w_ctr : int;
  w_users : int;
  w_shards : int;
  w_round : int;
  w_root : string;
}

type error_code =
  | Version_mismatch
  | Bad_user
  | Busy
  | Lost_reply
  | Protocol_violation

(* The trace context stamped on payload frames: the round the op was
   issued in, the originating user, and the span id (the origin's
   sequence number — reused verbatim on retransmits, so transport
   duplication can never mint a second span for the same op). A reply
   or relayed deliver echoes the originating op's context verbatim.
   [x_user] is [-1] (encoded 0xffff) when no user is attributable. *)
type ctx = { x_round : int; x_user : int; x_span : int }

type frame =
  | Hello of hello
  | Welcome of welcome
  | Request of { seq : int; ctx : ctx; msg : Message.t }
  | Publish of { seq : int; ctx : ctx; msg : Message.t }
  | Ack of { seq : int }
  | Reply of { seq : int; ctx : ctx; msg : Message.t }
  | Deliver of { src : int; sseq : int; ctx : ctx; msg : Message.t }
  | Deliver_ack of { src : int; sseq : int }
  | Tick of { round : int }
  | Tick_done of { round : int; drained : bool; alarmed : bool }
  | Session_end of { round : int; alarmed : bool; reason : string }
  | Error_frame of { code : error_code; detail : string }
  | Bye
  | Prepare of { round : int }
  | Shard_root of {
      round : int;
      shard_id : int;
      generation : int;
      ctr : int;
      root : string;
    }
  | Commit of { round : int; root : string }

type error =
  | Bad_magic
  | Oversized of int
  | Bad_checksum
  | Malformed of string

let error_to_string = function
  | Bad_magic -> "bad magic"
  | Oversized n -> Printf.sprintf "oversized frame (%d bytes)" n
  | Bad_checksum -> "checksum mismatch"
  | Malformed what -> "malformed " ^ what

let error_code_to_string = function
  | Version_mismatch -> "version-mismatch"
  | Bad_user -> "bad-user"
  | Busy -> "busy"
  | Lost_reply -> "lost-reply"
  | Protocol_violation -> "protocol-violation"

(* ---- Message.t codec ------------------------------------------------- *)

(* The simulator never serialises messages (it passes values), so this
   is the first real wire format for [Message.t]. Tags are frozen here;
   any change bumps [protocol_version]. Ops use {!Vo.encode_op}, the
   encoding the store's WAL records share. *)

let encode_answer w (a : Vo.answer) =
  match a with
  | Vo.Value None -> W.u8 w 0
  | Vo.Value (Some v) ->
      W.u8 w 1;
      W.str w v
  | Vo.Updated -> W.u8 w 2
  | Vo.Entries es ->
      W.u8 w 3;
      W.list w
        (fun (k, v) ->
          W.str w k;
          W.str w v)
        es

let decode_answer r : Vo.answer =
  match R.u8 r with
  | 0 -> Vo.Value None
  | 1 -> Vo.Value (Some (R.str r))
  | 2 -> Vo.Updated
  | 3 ->
      Vo.Entries
        (R.list r (fun r ->
             let k = R.str r in
             (k, R.str r)))
  | n -> failwith (Printf.sprintf "unknown answer tag %d" n)

let encode_opt w f = function
  | None -> W.u8 w 0
  | Some v ->
      W.u8 w 1;
      f v

let decode_opt r f =
  match R.u8 r with
  | 0 -> None
  | 1 -> Some (f r)
  | n -> failwith (Printf.sprintf "bad option tag %d" n)

let encode_backup w (b : Message.epoch_backup) =
  W.u16 w b.backup_user;
  W.u32 w b.backup_epoch;
  W.str w b.sigma;
  W.str w b.last;
  W.u32 w b.backup_gctr;
  W.str w b.backup_signature

let decode_backup r : Message.epoch_backup =
  let backup_user = R.u16 r in
  let backup_epoch = R.u32 r in
  let sigma = R.str r in
  let last = R.str r in
  let backup_gctr = R.u32 r in
  let backup_signature = R.str r in
  { backup_user; backup_epoch; sigma; last; backup_gctr; backup_signature }

let encode_token_record w (t : Message.token_record) =
  W.u16 w t.token_user;
  W.u32 w t.token_ctr;
  W.str w t.root;
  W.str w t.op_digest;
  W.str w t.prev_digest;
  W.str w t.token_signature

let decode_token_record r : Message.token_record =
  let token_user = R.u16 r in
  let token_ctr = R.u32 r in
  let root = R.str r in
  let op_digest = R.str r in
  let prev_digest = R.str r in
  let token_signature = R.str r in
  { token_user; token_ctr; root; op_digest; prev_digest; token_signature }

let encode_piggyback w (p : Message.piggyback) =
  match p with
  | Message.Backup b ->
      W.u8 w 0;
      encode_backup w b
  | Message.Request_states { epochs } ->
      W.u8 w 1;
      W.list w (fun e -> W.u32 w e) epochs

let decode_piggyback r : Message.piggyback =
  match R.u8 r with
  | 0 -> Message.Backup (decode_backup r)
  | 1 -> Message.Request_states { epochs = R.list r R.u32 }
  | n -> failwith (Printf.sprintf "unknown piggyback tag %d" n)

(* A VO travels as its own wire encoding ([Vo.encode]), length-framed;
   [Vo.decode] recomputes node digests, so tampering in transit fails
   the client's root comparison rather than the frame decode. *)
let encode_vo w vo = W.str w (Vo.encode vo)

let decode_vo r =
  match Vo.decode (R.str r) with
  | Some vo -> vo
  | None -> failwith "undecodable VO"

let write_message w (m : Message.t) =
  match m with
  | Message.Query { op; piggyback } ->
      W.u8 w 0;
      Vo.encode_op w op;
      W.list w (encode_piggyback w) piggyback
  | Message.Root_signature { signer; ctr; signature } ->
      W.u8 w 1;
      W.u16 w signer;
      W.u32 w ctr;
      W.str w signature
  | Message.Token_take_turn { op; record } ->
      W.u8 w 2;
      encode_opt w (Vo.encode_op w) op;
      encode_token_record w record
  | Message.Response { answer; vo; ctr; last_user; root_sig; epoch; epoch_states }
    ->
      W.u8 w 3;
      encode_answer w answer;
      encode_vo w vo;
      W.u32 w ctr;
      W.u16 w (last_user + 1);
      encode_opt w (W.str w) root_sig;
      W.u32 w epoch;
      W.list w
        (fun (epoch, backups) ->
          W.u32 w epoch;
          W.list w (encode_backup w) backups)
        epoch_states
  | Message.Token_state { record; vo } ->
      W.u8 w 4;
      encode_opt w (encode_token_record w) record;
      encode_vo w vo
  | Message.Sync_begin { session; initiator } ->
      W.u8 w 5;
      W.u32 w session;
      W.u16 w initiator
  | Message.Sync_count { session; reporter; lctr } ->
      W.u8 w 6;
      W.u32 w session;
      W.u16 w reporter;
      W.u32 w lctr
  | Message.Sync_registers { session; reporter; registers = { sigma; last; gctr } } ->
      W.u8 w 7;
      W.u32 w session;
      W.u16 w reporter;
      W.str w sigma;
      encode_opt w (W.str w) last;
      W.u32 w gctr
  | Message.Sync_verdict { session; reporter; success } ->
      W.u8 w 8;
      W.u32 w session;
      W.u16 w reporter;
      W.u8 w (if success then 1 else 0)
  | Message.Shard_witness { reporter; entries } ->
      W.u8 w 9;
      W.u16 w reporter;
      W.list w
        (fun (shard, position, root) ->
          W.u16 w shard;
          W.u32 w position;
          W.str w root)
        entries

let read_bool r =
  match R.u8 r with
  | 0 -> false
  | 1 -> true
  | n -> failwith (Printf.sprintf "bad bool %d" n)

let read_message r : Message.t =
  match R.u8 r with
  | 0 ->
      let op = Vo.decode_op r in
      Message.Query { op; piggyback = R.list r decode_piggyback }
  | 1 ->
      let signer = R.u16 r in
      let ctr = R.u32 r in
      Message.Root_signature { signer; ctr; signature = R.str r }
  | 2 ->
      let op = decode_opt r Vo.decode_op in
      Message.Token_take_turn { op; record = decode_token_record r }
  | 3 ->
      let answer = decode_answer r in
      let vo = decode_vo r in
      let ctr = R.u32 r in
      let last_user = R.u16 r - 1 in
      let root_sig = decode_opt r R.str in
      let epoch = R.u32 r in
      let epoch_states =
        R.list r (fun r ->
            let e = R.u32 r in
            (e, R.list r decode_backup))
      in
      Message.Response { answer; vo; ctr; last_user; root_sig; epoch; epoch_states }
  | 4 ->
      let record = decode_opt r decode_token_record in
      Message.Token_state { record; vo = decode_vo r }
  | 5 ->
      let session = R.u32 r in
      Message.Sync_begin { session; initiator = R.u16 r }
  | 6 ->
      let session = R.u32 r in
      let reporter = R.u16 r in
      Message.Sync_count { session; reporter; lctr = R.u32 r }
  | 7 ->
      let session = R.u32 r in
      let reporter = R.u16 r in
      let sigma = R.str r in
      let last = decode_opt r R.str in
      Message.Sync_registers { session; reporter; registers = { sigma; last; gctr = R.u32 r } }
  | 8 ->
      let session = R.u32 r in
      let reporter = R.u16 r in
      Message.Sync_verdict { session; reporter; success = read_bool r }
  | 9 ->
      let reporter = R.u16 r in
      let entries =
        R.list r (fun r ->
            let shard = R.u16 r in
            let position = R.u32 r in
            (shard, position, R.str r))
      in
      Message.Shard_witness { reporter; entries }
  | n -> failwith (Printf.sprintf "unknown message tag %d" n)

let encode_message m =
  let w = W.create () in
  write_message w m;
  W.contents w

(* ---- frame codec ----------------------------------------------------- *)

let role_tag = function Lockstep -> 0 | Free -> 1 | Shard_link -> 2

let role_of_tag = function
  | 0 -> Lockstep
  | 1 -> Free
  | 2 -> Shard_link
  | n -> failwith (Printf.sprintf "unknown role %d" n)

let error_code_tag = function
  | Version_mismatch -> 0
  | Bad_user -> 1
  | Busy -> 2
  | Lost_reply -> 3
  | Protocol_violation -> 4

let error_code_of_tag = function
  | 0 -> Version_mismatch
  | 1 -> Bad_user
  | 2 -> Busy
  | 3 -> Lost_reply
  | 4 -> Protocol_violation
  | n -> failwith (Printf.sprintf "unknown error code %d" n)

let write_ctx w (x : ctx) =
  W.u32 w x.x_round;
  W.u16 w (if x.x_user < 0 then 0xffff else x.x_user);
  W.u32 w x.x_span

let read_ctx r =
  let x_round = R.u32 r in
  let u = R.u16 r in
  let x_span = R.u32 r in
  { x_round; x_user = (if u = 0xffff then -1 else u); x_span }

(* A Reply body is this head, then the encoded message: the one layout
   both [write_frame] and [encode_reply] write. *)
let write_reply_head w ~seq ~ctx =
  W.u8 w 5;
  W.u32 w seq;
  write_ctx w ctx

let write_frame w (f : frame) =
  match f with
  | Hello h ->
      W.u8 w 0;
      W.u16 w h.h_version;
      W.u8 w (role_tag h.h_role);
      W.u16 w h.h_user;
      W.u16 w h.h_users;
      W.u32 w h.h_round
  | Welcome m ->
      W.u8 w 1;
      W.u16 w m.w_version;
      W.str w m.w_boot_id;
      W.u32 w m.w_generation;
      W.u32 w m.w_ctr;
      W.u16 w m.w_users;
      W.u16 w m.w_shards;
      W.u32 w m.w_round;
      W.str w m.w_root
  | Request { seq; ctx; msg } ->
      W.u8 w 2;
      W.u32 w seq;
      write_ctx w ctx;
      write_message w msg
  | Publish { seq; ctx; msg } ->
      W.u8 w 3;
      W.u32 w seq;
      write_ctx w ctx;
      write_message w msg
  | Ack { seq } ->
      W.u8 w 4;
      W.u32 w seq
  | Reply { seq; ctx; msg } ->
      write_reply_head w ~seq ~ctx;
      write_message w msg
  | Deliver { src; sseq; ctx; msg } ->
      W.u8 w 6;
      W.u16 w src;
      W.u32 w sseq;
      write_ctx w ctx;
      write_message w msg
  | Deliver_ack { src; sseq } ->
      W.u8 w 7;
      W.u16 w src;
      W.u32 w sseq
  | Tick { round } ->
      W.u8 w 8;
      W.u32 w round
  | Tick_done { round; drained; alarmed } ->
      W.u8 w 9;
      W.u32 w round;
      W.u8 w (if drained then 1 else 0);
      W.u8 w (if alarmed then 1 else 0)
  | Session_end { round; alarmed; reason } ->
      W.u8 w 10;
      W.u32 w round;
      W.u8 w (if alarmed then 1 else 0);
      W.str w reason
  | Error_frame { code; detail } ->
      W.u8 w 11;
      W.u16 w (error_code_tag code);
      W.str w detail
  | Bye -> W.u8 w 12
  | Prepare { round } ->
      W.u8 w 13;
      W.u32 w round
  | Shard_root { round; shard_id; generation; ctr; root } ->
      W.u8 w 14;
      W.u32 w round;
      W.u16 w shard_id;
      W.u32 w generation;
      W.u32 w ctr;
      W.str w root
  | Commit { round; root } ->
      W.u8 w 15;
      W.u32 w round;
      W.str w root

let read_frame r : frame =
  match R.u8 r with
  | 0 ->
      let h_version = R.u16 r in
      let h_role = role_of_tag (R.u8 r) in
      let h_user = R.u16 r in
      let h_users = R.u16 r in
      let h_round = R.u32 r in
      Hello { h_version; h_role; h_user; h_users; h_round }
  | 1 ->
      let w_version = R.u16 r in
      let w_boot_id = R.str r in
      let w_generation = R.u32 r in
      let w_ctr = R.u32 r in
      let w_users = R.u16 r in
      let w_shards = R.u16 r in
      let w_round = R.u32 r in
      let w_root = R.str r in
      Welcome
        { w_version; w_boot_id; w_generation; w_ctr; w_users; w_shards; w_round; w_root }
  | 2 ->
      let seq = R.u32 r in
      let ctx = read_ctx r in
      Request { seq; ctx; msg = read_message r }
  | 3 ->
      let seq = R.u32 r in
      let ctx = read_ctx r in
      Publish { seq; ctx; msg = read_message r }
  | 4 -> Ack { seq = R.u32 r }
  | 5 ->
      let seq = R.u32 r in
      let ctx = read_ctx r in
      Reply { seq; ctx; msg = read_message r }
  | 6 ->
      let src = R.u16 r in
      let sseq = R.u32 r in
      let ctx = read_ctx r in
      Deliver { src; sseq; ctx; msg = read_message r }
  | 7 ->
      let src = R.u16 r in
      Deliver_ack { src; sseq = R.u32 r }
  | 8 -> Tick { round = R.u32 r }
  | 9 ->
      let round = R.u32 r in
      let drained = read_bool r in
      Tick_done { round; drained; alarmed = read_bool r }
  | 10 ->
      let round = R.u32 r in
      let alarmed = read_bool r in
      Session_end { round; alarmed; reason = R.str r }
  | 11 ->
      let code = error_code_of_tag (R.u16 r) in
      Error_frame { code; detail = R.str r }
  | 12 -> Bye
  | 13 -> Prepare { round = R.u32 r }
  | 14 ->
      let round = R.u32 r in
      let shard_id = R.u16 r in
      let generation = R.u32 r in
      let ctr = R.u32 r in
      let root = R.str r in
      Shard_root { round; shard_id; generation; ctr; root }
  | 15 ->
      let round = R.u32 r in
      Commit { round; root = R.str r }
  | n -> failwith (Printf.sprintf "unknown frame tag %d" n)

(* The trace context of a payload frame, if it carries one — how the
   proxy attributes frames to ops without decoding message bodies. *)
let ctx_of_frame = function
  | Request { ctx; _ } | Publish { ctx; _ } | Reply { ctx; _ } | Deliver { ctx; _ } ->
      Some ctx
  | Hello _ | Welcome _ | Ack _ | Deliver_ack _ | Tick _ | Tick_done _ | Session_end _
  | Error_frame _ | Bye | Prepare _ | Shard_root _ | Commit _ ->
      None

let hello ~role ~user ~users ~round =
  Hello
    { h_version = protocol_version; h_role = role; h_user = user; h_users = users; h_round = round }

let frame_kind = function
  | Hello _ -> "hello"
  | Welcome _ -> "welcome"
  | Request _ -> "request"
  | Publish _ -> "publish"
  | Ack _ -> "ack"
  | Reply _ -> "reply"
  | Deliver _ -> "deliver"
  | Deliver_ack _ -> "deliver_ack"
  | Tick _ -> "tick"
  | Tick_done _ -> "tick_done"
  | Session_end _ -> "session_end"
  | Error_frame _ -> "error"
  | Bye -> "bye"
  | Prepare _ -> "prepare"
  | Shard_root _ -> "shard_root"
  | Commit _ -> "commit"

let checksum body = Crypto.Crc32c.string body

let set_u32 b off v =
  Bytes.set_uint16_be b off ((v lsr 16) land 0xffff);
  Bytes.set_uint16_be b (off + 2) (v land 0xffff)

let get_u32 s off = (String.get_uint16_be s off lsl 16) lor String.get_uint16_be s (off + 2)

(* The header and the body, whose pieces are [parts] in order, in one
   string: the body is checksummed piece by piece and copied once. *)
let frame_of_parts parts =
  let len = List.fold_left (fun n p -> n + String.length p) 0 parts in
  let out = Bytes.create (header_len + len) in
  Bytes.blit_string magic 0 out 0 4;
  set_u32 out 4 len;
  let crc, _ =
    List.fold_left
      (fun (crc, pos) p ->
        let n = String.length p in
        Bytes.blit_string p 0 out pos n;
        (Crypto.Crc32c.update crc p ~off:0 ~len:n, pos + n))
      (0, header_len) parts
  in
  set_u32 out 8 crc;
  Bytes.unsafe_to_string out

let encode_frame f =
  let w = W.create () in
  write_frame w f;
  frame_of_parts [ W.contents w ]

let encode_reply ~seq ~ctx payload =
  let w = W.create () in
  write_reply_head w ~seq ~ctx;
  frame_of_parts [ W.contents w; payload ]

let decode_header ?(max_frame = default_max_frame) hdr =
  if String.length hdr <> header_len then Error (Malformed "header")
  else if not (String.equal (String.sub hdr 0 4) magic) then Error Bad_magic
  else
    let len = get_u32 hdr 4 in
    if len > max_frame then Error (Oversized len) else Ok (len, get_u32 hdr 8)

let decode_body ~checksum:expected body =
  if checksum body <> expected then Error Bad_checksum
  else
    match Wire.decode body read_frame with
    | Some f -> Ok f
    | None -> Error (Malformed "frame body")

let decode_frame ?max_frame s =
  if String.length s < header_len then Error (Malformed "truncated header")
  else
    match decode_header ?max_frame (String.sub s 0 header_len) with
    | Error _ as e -> e
    | Ok (len, sum) ->
        if String.length s <> header_len + len then
          Error (Malformed "length mismatch")
        else decode_body ~checksum:sum (String.sub s header_len len)
