let obs_scope = Obs.Scope.v "store.snapshot"

(* Volatile, like the write timings: reported outside the
   deterministic same-seed report. *)
let c_writes = Obs.counter ~scope:obs_scope ~volatile:true "writes"
let h_write_us = Obs.histogram ~scope:obs_scope ~volatile:true "write_us"

let magic = "TCVSSNP2"
let header_len = String.length magic + 4

(* Every snapshot format so far opens with these seven bytes. *)
let older_format path =
  Sys.file_exists path
  &&
  let ic = open_in_bin path in
  let head = really_input_string ic (min 8 (in_channel_length ic)) in
  close_in ic;
  String.length head = 8
  && String.starts_with ~prefix:(String.sub magic 0 7) head
  && not (String.equal head magic)

let now_us () = int_of_float (Unix.gettimeofday () *. 1e6)

let write path ~payload =
  let t0 = now_us () in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc magic;
  output_binary_int oc (Crypto.Crc32c.string payload);
  output_string oc payload;
  flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc);
  close_out oc;
  Sys.rename tmp path;
  Obs.incr c_writes;
  Obs.observe h_write_us (now_us () - t0)

let read path =
  if not (Sys.file_exists path) then Error (path ^ ": no such snapshot")
  else begin
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let bytes = really_input_string ic n in
    close_in ic;
    if n < header_len || not (String.equal (String.sub bytes 0 8) magic) then
      Error (path ^ ": bad snapshot magic")
    else
      let stored = Int32.to_int (String.get_int32_be bytes 8) land 0xffffffff in
      if stored = Crypto.Crc32c.update 0 bytes ~off:header_len ~len:(n - header_len) then
        Ok (String.sub bytes header_len (n - header_len))
      else Error (path ^ ": snapshot checksum mismatch")
  end
