let src = Logs.Src.create "tcvs.store.wal" ~doc:"Write-ahead log"

module Log = (val Logs.src_log src : Logs.LOG)

let obs_scope = Obs.Scope.v "store.wal"
let c_appends = Obs.counter ~scope:obs_scope "appends"
let c_fsyncs = Obs.counter ~scope:obs_scope ~volatile:true "fsyncs"
let c_flushes = Obs.counter ~scope:obs_scope ~volatile:true "flushes"
let c_torn_truncations = Obs.counter ~scope:obs_scope "torn_truncations"
let h_append_us = Obs.histogram ~scope:obs_scope ~volatile:true "append_us"
let h_fsync_us = Obs.histogram ~scope:obs_scope ~volatile:true "fsync_us"

let now_us () = int_of_float (Unix.gettimeofday () *. 1e6)

(* A writer stages encoded frames in [buf]; nothing reaches the OS
   until {!flush}. [written] tracks bytes already on disk, so {!size}
   needs no stat(2) call. *)
type writer = {
  path : string;
  oc : out_channel;
  buf : Buffer.t;
  mutable staged : int; (* records staged and not yet flushed *)
  mutable written : int; (* bytes flushed to the file so far *)
}

let open_writer path =
  let oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path in
  {
    path;
    oc;
    buf = Buffer.create 4096;
    staged = 0;
    written = (Unix.stat path).Unix.st_size;
  }

(* Frame layout: u32 len | u32 CRC-32C of lsn ‖ payload | u64 lsn |
   payload. *)
let header_len = 4 + 4 + 8

let add_u32 buf v =
  Buffer.add_uint16_be buf ((v lsr 16) land 0xffff);
  Buffer.add_uint16_be buf (v land 0xffff)

let get_u32 s off = (String.get_uint16_be s off lsl 16) lor String.get_uint16_be s (off + 2)

(* [count:false] is for log-header records: they are framing, not
   data, so they stay out of the [store.wal.appends] counter. The frame
   goes straight into the stage buffer; the checksum runs over the lsn
   and then the payload, so the two are never joined. *)
let stage ?(count = true) w ~lsn ~payload =
  let t0 = now_us () in
  let lsn_bytes = String.init 8 (fun i -> Char.chr ((lsn lsr (8 * (7 - i))) land 0xff)) in
  let len = String.length payload in
  add_u32 w.buf len;
  add_u32 w.buf
    (Crypto.Crc32c.update (Crypto.Crc32c.string lsn_bytes) payload ~off:0 ~len);
  Buffer.add_string w.buf lsn_bytes;
  Buffer.add_string w.buf payload;
  w.staged <- w.staged + 1;
  if count then begin
    Obs.incr c_appends;
    Obs.observe h_append_us (now_us () - t0)
  end

(* Write the staged batch with one channel flush (and at most one
   fsync) — the group-commit primitive. Returns the number of records
   the batch held, so the store can feed its batch-size histograms. *)
let flush ?(fsync = false) w =
  let records = w.staged in
  if records > 0 then begin
    let bytes = Buffer.length w.buf in
    output_string w.oc (Buffer.contents w.buf);
    Buffer.clear w.buf;
    w.staged <- 0;
    w.written <- w.written + bytes;
    flush w.oc;
    Obs.incr c_flushes;
    (* One fsync covers the whole batch; an empty batch needs none —
       the previous flush under the same cadence already synced. *)
    if fsync then begin
      let t1 = now_us () in
      Unix.fsync (Unix.descr_of_out_channel w.oc);
      Obs.incr c_fsyncs;
      Obs.observe h_fsync_us (now_us () - t1)
    end
  end;
  records

(* Drop staged records without writing them — how a simulated crash
   models the process dying between stage and flush. *)
let discard w =
  Buffer.clear w.buf;
  w.staged <- 0

let staged_records w = w.staged
let staged_bytes w = Buffer.length w.buf
let size w = w.written + Buffer.length w.buf

let append ?(fsync = false) w ~lsn ~payload =
  stage w ~lsn ~payload;
  ignore (flush ~fsync w)

let close_writer w =
  ignore (flush w);
  close_out w.oc

type read_result = { records : (int * string) list; truncated : bool }

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let bytes = really_input_string ic n in
  close_in ic;
  bytes

let truncate_to ~repair path len =
  if repair then begin
    Obs.incr c_torn_truncations;
    Log.warn (fun m -> m "%s: torn tail truncated at byte %d" path len);
    Unix.truncate path len
  end

let read ?(repair = true) path =
  if not (Sys.file_exists path) then Ok { records = []; truncated = false }
  else begin
    let bytes = read_file path in
    let total = String.length bytes in
    let records = ref [] in
    let rec go off =
      if off = total then Ok { records = List.rev !records; truncated = false }
      else if off + header_len > total then begin
        truncate_to ~repair path off;
        Ok { records = List.rev !records; truncated = true }
      end
      else begin
        let len = get_u32 bytes off in
        let frame_end = off + header_len + len in
        if frame_end > total then begin
          truncate_to ~repair path off;
          Ok { records = List.rev !records; truncated = true }
        end
        else begin
          (* lsn ‖ payload lie contiguous in the file *)
          let crc = Crypto.Crc32c.update 0 bytes ~off:(off + 8) ~len:(8 + len) in
          if get_u32 bytes (off + 4) <> crc then
            if frame_end = total then begin
              (* Checksum failure on the very last record: a torn
                 append, not silent corruption. *)
              truncate_to ~repair path off;
              Ok { records = List.rev !records; truncated = true }
            end
            else
              Error
                (Printf.sprintf "%s: checksum mismatch at byte %d (mid-log corruption)"
                   path off)
          else begin
            let lsn = (get_u32 bytes (off + 8) lsl 32) lor get_u32 bytes (off + 12) in
            records := (lsn, String.sub bytes (off + header_len) len) :: !records;
            go frame_end
          end
        end
      end
    in
    go 0
  end
