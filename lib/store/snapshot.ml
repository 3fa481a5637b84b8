let obs_scope = Obs.Scope.v "store.snapshot"

(* Volatile, like the write timings: reported outside the
   deterministic same-seed report. *)
let c_writes = Obs.counter ~scope:obs_scope ~volatile:true "writes"
let h_write_us = Obs.histogram ~scope:obs_scope ~volatile:true "write_us"

let magic = "TCVSSNP1"

let now_us () = int_of_float (Unix.gettimeofday () *. 1e6)

let write path ~payload =
  let t0 = now_us () in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc magic;
  output_string oc (String.sub (Crypto.Sha256.digest payload) 0 8);
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
    if n < 16 || not (String.equal (String.sub bytes 0 8) magic) then
      Error (path ^ ": bad snapshot magic")
    else begin
      let stored = String.sub bytes 8 8 in
      let payload = String.sub bytes 16 (n - 16) in
      if String.equal stored (String.sub (Crypto.Sha256.digest payload) 0 8) then Ok payload
      else Error (path ^ ": snapshot checksum mismatch")
    end
  end
