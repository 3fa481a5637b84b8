(* One workload run, end to end or traced, and the [run] command.

   End-to-end run: start the servers [setups] times (each from a fresh
   directory, each after a host speed probe; the median scaled start-up
   time is [setup_s]) and keep the last; warm up; then measure a window
   of one-second slices with the admin endpoints scraped only at its
   edges. Each slice ends by letting the ops in flight complete, and a
   speed probe ({!Speed}) runs between slices, so every slice's times
   can be scaled by the host's speed around it.

   Traced run: the same start-up and warm-up, then a window whose
   slices alternate between untraced and traced (spans around the load
   generator's own calls into the codec and Vo.apply), so the tracing
   overhead is measured inside one run. Server counters, /proc deltas
   and load-generator CPU come from the window edges and the untraced
   slices. After the servers stop, the workload's first ops are
   replayed in-process through the server-side layer calls, and
   Bechamel times the primitives. *)

module Samples = Stats.Samples

let now_ns = Spans.now_ns
let second = 1_000_000_000

type cfg = {
  seed : string;
  seconds : int;  (** measured window *)
  warmup : float;
  setups : int;
  traced : bool;
  out : string;
  replay_ops : int;
}

let default_cfg =
  {
    seed = "bench-1";
    seconds = 20;
    warmup = 3.;
    setups = 7;
    traced = false;
    out = "tcvs_bench/out";
    replay_ops = 5000;
  }

let ( let* ) = Result.bind

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    let parent = Filename.dirname path in
    if parent <> path then mkdir_p parent;
    Unix.mkdir path 0o755
  end

(* ---- Host facts recorded with every result ----------------------------- *)

(* The first line [prog args] prints, if it exits 0. *)
let command_output prog args =
  let r, w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    try Some (Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin w null)
    with Unix.Unix_error _ -> None
  in
  Unix.close w;
  Unix.close null;
  let out = In_channel.input_line (Unix.in_channel_of_descr r) in
  Unix.close r;
  match pid with
  | Some pid when snd (Unix.waitpid [] pid) = Unix.WEXITED 0 -> Option.map String.trim out
  | _ -> None

(* --git-dir keeps git inside the checkout; a checkout without .git
   records "unknown". *)
let commit () =
  Option.value ~default:"unknown" (command_output "git" [ "--git-dir=.git"; "rev-parse"; "HEAD" ])

let nproc () = Option.value ~default:"unknown" (command_output "nproc" [])

let loadavg () =
  match In_channel.with_open_bin "/proc/loadavg" In_channel.input_all with
  | s -> ( try float_of_string (List.hd (String.split_on_char ' ' s)) with _ -> nan)
  | exception Sys_error _ -> nan

(* ---- Instances ---------------------------------------------------------- *)

type instance = { servers : Servers.t; lg : Loadgen.t; setup_s : float }

(* Start the servers and connect every client: [setup_s] runs from the
   first spawn to the last Welcome (bulk load, store creation and shard
   links included — the router links its shards before it reads any
   Hello). *)
let open_instance (w : Mix.t) ~seed ~dir ~traced =
  mkdir_p dir;
  let initial_root = Mix.initial_root w in
  let t0 = now_ns () in
  let* servers = Servers.start w ~dir ~seed in
  let rec connect i acc =
    if i = Mix.conns then Ok (Array.of_list (List.rev acc))
    else
      match Loadgen.connect ~port:servers.Servers.port ~user:i ~initial_root with
      | Ok c -> connect (i + 1) (c :: acc)
      | Error e ->
          List.iter Net.Conn.close acc;
          Error e
  in
  match connect 0 [] with
  | Error e ->
      Servers.stop servers;
      Error e
  | Ok conns ->
      let setup_s = float_of_int (now_ns () - t0) /. 1e9 in
      let gens = Array.init Mix.conns (fun conn -> Mix.generator w ~seed ~conn) in
      Ok { servers; lg = Loadgen.create ~conns ~gens ~initial_root ~traced; setup_s }

let close_instance i =
  Loadgen.close i.lg;
  Servers.stop i.servers

(* ---- Measuring ---------------------------------------------------------- *)

(* [slow] is the host's slowness around the slice: the mean of the
   speed probes before and after it ({!Speed.probe}). The slice's times
   divided by it are its times at reference speed. *)
type slice = { count : int; secs : float; cpu : float; bytes : int; traced : bool; slow : float }

type window = {
  mutable slices : slice list;  (** newest first *)
  lat : Samples.t;  (** send -> verified, µs, of the ops completed in slices *)
  lat_slice : Samples.t;  (** the slice each sample completed in *)
}

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* [seconds] slices, each one second of load ended by letting the ops
   in flight complete, with a speed probe between slices; [traced_slice
   i] selects the slices that record spans. *)
let measure (lg : Loadgen.t) ~speed ~seconds ~traced_slice =
  let w = { slices = []; lat = Samples.create (); lat_slice = Samples.create () } in
  let before = ref (Speed.probe speed) in
  for i = 0 to seconds - 1 do
    lg.tracing <- traced_slice i;
    let n = ref 0 in
    lg.on_done <-
      (fun lat ->
        incr n;
        Samples.add w.lat (float_of_int lat /. 1e3);
        Samples.add w.lat_slice (float_of_int i));
    let b0 = Loadgen.bytes_in lg and c0 = cpu_now () and t0 = now_ns () in
    Loadgen.start_sending lg;
    Loadgen.drive lg ~until_ns:(t0 + second);
    Loadgen.drain lg;
    let secs = float_of_int (now_ns () - t0) /. 1e9 and cpu = cpu_now () -. c0 in
    let bytes = Loadgen.bytes_in lg - b0 in
    let after = Speed.probe speed in
    w.slices <-
      { count = !n; secs; cpu; bytes; traced = traced_slice i; slow = (!before +. after) /. 2. }
      :: w.slices;
    before := after
  done;
  lg.tracing <- false;
  lg.on_done <- ignore;
  w

(* Warm up for [seconds], and past that until every preload op is
   issued, so the window sees only the steady mix; end idle. *)
let warm_up (lg : Loadgen.t) ~seconds =
  Loadgen.start_sending lg;
  Loadgen.drive lg ~until_ns:(now_ns () + int_of_float (seconds *. 1e9));
  let deadline = now_ns () + (120 * second) in
  while
    Array.exists (fun (c : Loadgen.conn) -> (not c.dead) && c.gen.Mix.preload_left () > 0) lg.conns
    && now_ns () < deadline
  do
    Loadgen.drive lg ~until_ns:(now_ns () + (second / 10))
  done;
  Loadgen.drain lg

(* A subset of a window's slices and the ops that completed in them.
   [scaled_*] values are at reference speed. Throughput is ops over
   seconds summed across the slices, not a median of slice rates: a
   slice holds a whole number of the store's checkpoint stalls, so
   slice rates move in steps. *)
type summary = {
  ops_per_s : float;
  scaled_ops_per_s : float;
  scaled_rates : float list;  (** one per slice *)
  lat : float array;  (** sorted, µs *)
  scaled_lat : float array;  (** sorted, µs *)
  slow : float list;  (** one per slice *)
  completed : int;
  bytes : int;
  cpu_s : float;
  wall_s : float;
}

let summarize w keep =
  let sl = Array.of_list (List.rev w.slices) in
  let picked = List.filter keep (Array.to_list sl) in
  let lat = Samples.create () and scaled = Samples.create () in
  for j = 0 to Samples.length w.lat - 1 do
    let s = sl.(int_of_float (Samples.get w.lat_slice j)) in
    if keep s then begin
      Samples.add lat (Samples.get w.lat j);
      Samples.add scaled (Samples.get w.lat j /. s.slow)
    end
  done;
  let sum f = List.fold_left (fun acc (s : slice) -> acc +. f s) 0. picked in
  let completed = sum (fun s -> float_of_int s.count) in
  {
    ops_per_s = completed /. sum (fun s -> s.secs);
    scaled_ops_per_s = completed /. sum (fun s -> s.secs /. s.slow);
    scaled_rates = List.map (fun s -> float_of_int s.count *. s.slow /. s.secs) picked;
    lat = Samples.sorted lat;
    scaled_lat = Samples.sorted scaled;
    slow = List.map (fun (s : slice) -> s.slow) picked;
    completed = int_of_float completed;
    bytes = int_of_float (sum (fun s -> float_of_int s.bytes));
    cpu_s = sum (fun s -> s.cpu);
    wall_s = sum (fun s -> s.secs);
  }

let untraced s = not s.traced
let traced_only s = s.traced
let ms sorted p = Option.map (fun us -> us /. 1e3) (Stats.percentile sorted p)

(* ---- Metrics ------------------------------------------------------------ *)

(* The metrics of the last stdout line: BENCHMARK.json's end_to_end
   and per_layer lists, in order. *)
let contract_end_to_end = [ "ops_per_s"; "op_p50_ms"; "op_p99_ms"; "reply_bytes_per_op"; "setup_s" ]

let contract_per_layer =
  [
    "crypto.sha256_ns_64B"; "crypto.sha256_ns_1KiB"; "crypto.digests_per_op";
    "mtree.vo_generate_us"; "mtree.apply_us"; "mtree.client_verify_us";
    "mtree.vo_bytes_per_op"; "mtree.node_rebuilds_per_op";
    "store.log_op_us"; "store.flush_us_mean"; "store.checkpoint_us_mean";
    "store.checkpoints_per_kop"; "store.file_bytes_per_op";
    "net.codec.encode_reply_point_ns"; "net.codec.decode_reply_point_ns";
    "net.codec.request_roundtrip_ns"; "net.codec.encode_reply_range_ns";
    "net.codec.decode_reply_range_ns"; "net.conn.pingpong_us_point"; "net.conn.pingpong_us_range";
    "net.daemon.cpu_us_per_op"; "net.daemon.frames_per_op"; "net.daemon.replayed_server_us";
    "net.daemon.unattributed_us"; "net.router.compose_us"; "net.router.subops_per_op";
    "net.router.subop_retransmits"; "obs.counter_incr_ns"; "obs.trace_overhead_frac";
    "loadgen.cpu_frac"; "loadgen.client_us_per_op"; "loadgen.self_us";
  ]

let m name value unit_ = { Results.name; value; unit_ }
let opt name value unit_ = Option.fold ~none:[] ~some:(fun v -> [ m name v unit_ ]) value

(* Over the untraced slices, at reference speed: throughput, latency
   percentiles over every op, bytes per op; [setups] are scaled set-up
   times. *)
let end_to_end w ~setups ~attempted ~failed =
  let all = summarize w untraced in
  [ m "ops_per_s" all.scaled_ops_per_s "ops/s" ]
  @ opt "op_p50_ms" (ms all.scaled_lat 0.50) "ms"
  @ opt "op_p99_ms" (ms all.scaled_lat 0.99) "ms"
  @ [
      m "failed_op_frac" (float_of_int failed /. float_of_int (max 1 attempted)) "ratio";
      m "reply_bytes_per_op" (float_of_int all.bytes /. float_of_int (max 1 all.completed)) "B/op";
      m "setup_s" (Stats.median setups) "s";
    ]

(* Server-side stages of one op, as the replay times them; the store
   calls only count where the workload has a store. Per op, medians:
   [unattributed] subtracts the median client and server work from the
   median latency, so one checkpoint in 64 ops does not swamp it. The
   spans are not scaled, so neither is the latency here. *)
let server_stages (w : Mix.t) =
  [ "mtree.generate_vo"; "mtree.apply"; "codec.encode_message"; "codec.encode_frame" ]
  @ if w.store then [ "store.declare_origin"; "store.log_op"; "store.log_reply"; "store.flush" ] else []

let per_layer (w : Mix.t) win ~s0 ~s1 ~spans ~(replay : Probe.replay) ~micro =
  let plain = summarize win untraced and traced = summarize win traced_only in
  let ops = float_of_int (max 1 (plain.completed + traced.completed)) in
  let delta ?role f =
    List.fold_left2
      (fun acc (a : Servers.sample) (b : Servers.sample) ->
        match role with
        | Some r when a.proc.Servers.role <> r -> acc
        | _ -> acc +. f b -. f a)
      0. s0 s1
  in
  let counter name = delta (fun s -> Servers.counter s name) in
  let hist name field = delta (fun s -> Servers.hist s name field) in
  let lg_spans = Spans.self_us_by_name spans in
  let rp = Spans.self_us_by_name replay.Probe.spans in
  let loadgen_self_us = Stats.median (Spans.child_work_us spans) in
  let replayed_server_us =
    Stats.median (Spans.child_work_us ~only:(server_stages w) replay.Probe.spans)
  in
  let p50_us = Option.value ~default:nan (Stats.percentile plain.lat 0.50) in
  let frames = counter "net.frames_sent" +. counter "net.frames_received" in
  let file_bytes =
    delta ~role:Servers.Daemon (fun s -> float_of_int s.Servers.written)
    -. delta ~role:Servers.Daemon (fun s -> Servers.counter s "net.bytes_sent")
  in
  [
    m "crypto.digests_per_op" (counter "crypto.sha256.digests" /. ops) "count/op";
    m "mtree.vo_generate_us" (Spans.mean_of rp "mtree.generate_vo") "us";
    m "mtree.apply_us" (Spans.mean_of rp "mtree.apply") "us";
    m "mtree.client_verify_us" (Spans.mean_of lg_spans "vo.apply") "us";
    m "mtree.vo_bytes_per_op" (hist "mtree.vo_bytes" "sum" /. ops) "B/op";
    m "mtree.node_rebuilds_per_op" (counter "mtree.node_rebuilds" /. ops) "count/op";
    m "store.log_op_us" (Spans.mean_of rp "store.log_op") "us";
    m "store.flush_us_mean" (Spans.mean_of rp "store.flush") "us";
    m "store.checkpoint_us_mean" replay.Probe.checkpoint_us_mean "us";
    m "store.checkpoints_per_kop" (1000. *. counter "store.checkpoints" /. ops) "1/kop";
    m "store.file_bytes_per_op" (file_bytes /. ops) "B/op";
  ]
  @ List.map (fun (n, v, u) -> m n v u) micro
  @ [
      m "net.daemon.cpu_us_per_op" (delta ~role:Servers.Daemon (fun s -> s.Servers.cpu) /. ops) "us/op";
      m "net.daemon.frames_per_op" (frames /. ops) "count/op";
      m "net.daemon.replayed_server_us" replayed_server_us "us";
      m "net.daemon.unattributed_us" (p50_us -. loadgen_self_us -. replayed_server_us) "us";
      m "net.router.compose_us" (Spans.mean_of rp "router.compose") "us";
      m "net.router.subops_per_op" (counter "net.router.subops_sent" /. ops) "count/op";
      m "net.router.subop_retransmits" (counter "net.router.subop_retransmits") "count";
      m "obs.trace_overhead_frac" (1. -. (traced.scaled_ops_per_s /. plain.scaled_ops_per_s)) "ratio";
      m "loadgen.cpu_frac" (plain.cpu_s /. plain.wall_s) "ratio";
      m "loadgen.client_us_per_op" (1e6 *. plain.cpu_s /. float_of_int (max 1 plain.completed)) "us/op";
      m "loadgen.self_us" loadgen_self_us "us";
    ]

(* ---- One run ------------------------------------------------------------ *)

let config (w : Mix.t) cfg =
  let s = Results.str and n = Results.num and i = string_of_int in
  [
    ("commit", s (commit ()));
    ("nproc", s (nproc ()));
    ("loadavg_1m", n (loadavg ()));
    ("timing", s "scaled to reference speed (speed probe)");
    ("speed_probe_reference_s", n (float_of_int Speed.reference_ns /. 1e9));
    ("topology", s (Mix.topology_name w.topology));
    ("shards", i w.shards);
    ("store", string_of_bool w.store);
    ("durability", s (if w.store then "per-op" else "none"));
    ("fsync", "false");
    ("checkpoint_every", if w.store then i Mix.checkpoint_every else "null");
    ("segment_bytes", if w.store then i (1 lsl 20) else "null");
    ("compact_after_segments", if w.store then "2" else "null");
    ("files", i Mix.files);
    ("branching", i Mix.branching);
    ("value_bytes", match Mix.value_bytes w with 0 -> s "seeded file length" | b -> i b);
    ("mix", s (Mix.describe_ops w.ops));
    ("zipf_s", n (Mix.zipf_s w));
    ("conns", i Mix.conns);
    ("load", s "closed loop, one query outstanding per connection");
    ("warmup_s", n cfg.warmup);
    ("window_s", i cfg.seconds);
    ("setups", i cfg.setups);
  ]

let run_workload (w : Mix.t) cfg =
  let dir = Filename.concat (Filename.concat cfg.out "tmp") (w.name ^ "-" ^ string_of_int (Unix.getpid ())) in
  rm_rf dir;
  let run failures ~attempted ~metrics ~detail =
    {
      Results.workload = w.name; seed = cfg.seed; traced = cfg.traced; attempted = max 1 attempted;
      failed = List.length failures; failures = List.filteri (fun i _ -> i < 10) failures;
      metrics; config = config w cfg; detail;
    }
  in
  mkdir_p dir;
  let speed = Speed.create ~dir in
  let setups = if cfg.traced then 1 else max 1 cfg.setups in
  (* each start after a speed probe; acc holds (seconds, slowness) *)
  let rec start r acc =
    let sdir = Filename.concat dir (Printf.sprintf "setup%d" r) in
    let slow = Speed.probe speed in
    match open_instance w ~seed:cfg.seed ~dir:sdir ~traced:cfg.traced with
    | Error e -> Error ("setup: " ^ e)
    | Ok inst when r = setups -> Ok (inst, List.rev ((inst.setup_s, slow) :: acc))
    | Ok inst ->
        close_instance inst;
        start (r + 1) ((inst.setup_s, slow) :: acc)
  in
  let result =
    match start 1 [] with
    | Error e -> run [ e ] ~attempted:1 ~metrics:[] ~detail:[]
    | Ok (inst, setup_samples) -> (
        let lg = inst.lg in
        warm_up lg ~seconds:cfg.warmup;
        let s0 = Servers.sample inst.servers in
        let win =
          measure lg ~speed ~seconds:cfg.seconds ~traced_slice:(fun i -> cfg.traced && i mod 2 = 1)
        in
        let s1 = Servers.sample inst.servers in
        close_instance inst;
        let failures =
          List.rev lg.failures
          @ (if lg.failures = [] then Result.fold ~ok:(fun () -> []) ~error:(fun e -> [ e ]) (Verify.finish lg.verify)
             else [])
          @ match (s0, s1) with Error e, _ | _, Error e -> [ "admin scrape: " ^ e ] | _ -> []
        in
        let setups = List.map (fun (s, slow) -> s /. slow) setup_samples in
        let e2e = end_to_end win ~setups ~attempted:lg.attempted ~failed:(List.length failures) in
        let all = summarize win untraced in
        let nums l = Results.arr (List.map Results.num l) in
        let detail =
          [
            ("host_slowness", Results.num (Stats.median all.slow));
            ("raw_ops_per_s", Results.num all.ops_per_s);
            ("raw_op_p50_ms", Results.num (Option.value ~default:nan (ms all.lat 0.50)));
            ("raw_op_p99_ms", Results.num (Option.value ~default:nan (ms all.lat 0.99)));
            ("raw_setup_s", Results.num (Stats.median (List.map fst setup_samples)));
            ("slice_ops_per_s", nums all.scaled_rates);
            ("slice_ops_per_s_iqr", Results.num (Stats.iqr all.scaled_rates));
            ("slice_slowness", nums all.slow);
            ("latency_samples", string_of_int (Array.length all.lat));
            ("setup_s_samples", nums setups);
            ("verified_ops", string_of_int (Verify.verified lg.verify));
          ]
        in
        let base = run failures ~attempted:lg.attempted ~metrics:e2e ~detail in
        match (cfg.traced, failures, s0, s1, lg.spans) with
        | true, [], Ok s0, Ok s1, Some spans -> (
            (* once the servers are down: the replay and the microbenchmarks *)
            match Probe.replay w ~seed:cfg.seed ~dir:(Filename.concat dir "replay") ~ops:cfg.replay_ops with
            | Error e -> { base with failed = 1; failures = [ e ] }
            | Ok replay ->
                let micro = Probe.micro replay.Probe.final_db in
                Out_channel.with_open_bin
                  (Filename.concat cfg.out ("spans-" ^ w.name ^ ".jsonl"))
                  (fun oc ->
                    Spans.write_jsonl spans oc ~limit:40_000;
                    Spans.write_jsonl replay.Probe.spans oc ~limit:40_000);
                { base with metrics = e2e @ per_layer w win ~s0 ~s1 ~spans ~replay ~micro })
        | _ -> base)
  in
  Speed.close speed;
  rm_rf dir;
  result
