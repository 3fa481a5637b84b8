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

let checksum ~lsn_bytes ~payload =
  String.sub (Crypto.Sha256.digest (lsn_bytes ^ payload)) 0 4

let u64_bytes v =
  let w = Wire.W.create () in
  Wire.W.u64 w v;
  Wire.W.contents w

(* [count:false] is for log-header records: they are framing, not
   data, so they stay out of the [store.wal.appends] counter. *)
let stage ?(count = true) w ~lsn ~payload =
  let t0 = now_us () in
  let lsn_bytes = u64_bytes lsn in
  let frame = Wire.W.create () in
  Wire.W.u32 frame (String.length payload);
  Wire.W.raw frame (checksum ~lsn_bytes ~payload);
  Wire.W.raw frame lsn_bytes;
  Wire.W.raw frame payload;
  Buffer.add_string w.buf (Wire.W.contents frame);
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

(* Frame layout: u32 len | 4B checksum | u64 lsn | payload. *)
let header_len = 4 + 4 + 8

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
        let len =
          (Char.code bytes.[off] lsl 24)
          lor (Char.code bytes.[off + 1] lsl 16)
          lor (Char.code bytes.[off + 2] lsl 8)
          lor Char.code bytes.[off + 3]
        in
        let frame_end = off + header_len + len in
        if frame_end > total then begin
          truncate_to ~repair path off;
          Ok { records = List.rev !records; truncated = true }
        end
        else begin
          let stored_sum = String.sub bytes (off + 4) 4 in
          let lsn_bytes = String.sub bytes (off + 8) 8 in
          let payload = String.sub bytes (off + 16) len in
          if not (String.equal stored_sum (checksum ~lsn_bytes ~payload)) then
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
            let lsn = ref 0 in
            String.iter (fun c -> lsn := (!lsn lsl 8) lor Char.code c) lsn_bytes;
            records := (!lsn, payload) :: !records;
            go frame_end
          end
        end
      end
    in
    go 0
  end
