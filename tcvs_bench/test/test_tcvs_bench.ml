(* Tests of the benchmark itself: reply verification, order
   statistics, the compare gate, the BENCHMARK.json contract, and a
   smoke run of every workload against real servers. *)

open Tcvs_bench_core
module Vo = Mtree.Vo
module Shard_db = Store.Shard_db
module Message = Tcvs.Message

(* ---- Verifier ----------------------------------------------------------- *)

let key = Tcvs.Harness.file_key
let db0 = Shard_db.create ~branching:8 ~shards:2 (Tcvs.Harness.initial_files 256)

let response db op ~ctr =
  let vo = Shard_db.generate_vo db op in
  let db', answer = Shard_db.apply db op in
  (db', Message.Response { answer; vo; ctr; last_user = -1; root_sig = None; epoch = 0; epoch_states = [] })

(* An honest history of three ops, as (op, reply) in ctr order; both
   writes move the root. *)
let history () =
  let ops = [ Vo.Set (key 3, "x"); Vo.Set (key 200, "v"); Vo.Get (key 200) ] in
  List.rev
    (snd
       (List.fold_left
          (fun (db, acc) op ->
            let db', r = response db op ~ctr:(List.length acc) in
            (db', (op, r) :: acc))
          (db0, []) ops))

let verifier () = Verify.create ~initial_root:(Shard_db.root_digest db0)

let check_all v replies = List.map (fun (op, r) -> Verify.check v ~op r) replies

let is_error = function Error _ -> true | Ok () -> false

let test_honest () =
  let v = verifier () in
  (* replies from two connections arrive out of ctr order *)
  let h = history () in
  let reordered = [ List.nth h 1; List.nth h 0; List.nth h 2 ] in
  Alcotest.(check bool) "all verify" true (List.for_all Result.is_ok (check_all v reordered));
  Alcotest.(check bool) "chain complete" true (Result.is_ok (Verify.finish v))

let tamper_answer = function
  | Message.Response r -> (
      match r.answer with
      | Vo.Value (Some s) ->
          let b = Bytes.of_string s in
          Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
          Message.Response { r with answer = Vo.Value (Some (Bytes.to_string b)) }
      | _ -> Alcotest.fail "expected a value answer")
  | _ -> Alcotest.fail "expected a response"

let test_flipped_answer () =
  let op, r = List.nth (history ()) 2 in
  Alcotest.(check bool) "flipped byte fails" true (is_error (Verify.check (verifier ()) ~op (tamper_answer r)))

let test_wrong_key_vo () =
  (* key 3 and key 250 sit in different shards, so a proof for key 3
     cannot answer a Get of key 250 *)
  let _, r = List.hd (history ()) in
  Alcotest.(check bool) "proof for another key fails" true
    (is_error (Verify.check (verifier ()) ~op:(Vo.Get (key 250)) r))

let test_broken_chain () =
  (* op 1 replayed against the initial state, not against op 0's result *)
  let h = history () in
  let _, stale = response db0 (Vo.Set (key 200, "v")) ~ctr:1 in
  let op0, first = List.nth h 0 and op1 = fst (List.nth h 1) in
  let v = verifier () in
  ignore (Verify.check v ~op:op0 first);
  Alcotest.(check bool) "fork of the root chain fails" true (is_error (Verify.check v ~op:op1 stale))

let test_gaps () =
  let h = Array.of_list (history ()) in
  let verify_all replies =
    let v = verifier () in
    List.iter (fun (op, r) -> ignore (Verify.check v ~op r)) replies;
    Verify.finish v
  in
  Alcotest.(check bool) "skipped ctr fails" true (is_error (verify_all [ h.(0); h.(2) ]));
  Alcotest.(check bool) "missing ctr 0 fails" true (is_error (verify_all [ h.(1) ]));
  Alcotest.(check bool) "replayed ctr 0 fails" true (is_error (verify_all [ h.(0); h.(1); h.(0) ]));
  (* ctr 1 served twice and ctr 3 skipped: the count balances, the
     links do not *)
  let db3 = List.fold_left (fun db (op, _) -> fst (Shard_db.apply db op)) db0 (Array.to_list h) in
  let op4 = Vo.Get (key 7) in
  let _, r4 = response db3 op4 ~ctr:4 in
  Alcotest.(check bool) "replayed op balancing a skip fails" true
    (is_error (verify_all [ h.(0); h.(1); h.(2); h.(1); (op4, r4) ]))

let test_wrong_initial_root () =
  let other = Shard_db.create ~branching:8 ~shards:2 (Tcvs.Harness.initial_files 255) in
  let op = Vo.Get (key 3) in
  let _, r = response other op ~ctr:0 in
  Alcotest.(check bool) "ctr 0 off M(D0) fails" true (is_error (Verify.check (verifier ()) ~op r))

(* ---- Statistics --------------------------------------------------------- *)

let feq = Alcotest.float 1e-9

let test_quartiles () =
  (* reference values from Python's statistics.quantiles(data, n=4) *)
  let q l = Option.get (Stats.quartiles l) in
  Alcotest.(check (triple feq feq feq)) "1..4" (1.25, 2.5, 3.75) (q [ 1.; 2.; 3.; 4. ]);
  Alcotest.(check (triple feq feq feq)) "1..10" (2.75, 5.5, 8.25) (q (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.(check (triple feq feq feq)) "unsorted" (1.5, 3., 4.5) (q [ 5.; 1.; 4.; 2.; 3. ]);
  Alcotest.(check (triple feq feq feq)) "skewed" (3., 10., 20.) (q [ 1.; 3.; 4.; 10.; 11.; 20.; 50. ]);
  Alcotest.check feq "even median" 3. (Stats.median [ 5.; 1.; 4.; 2. ]);
  Alcotest.check feq "odd median" 3. (Stats.median [ 5.; 1.; 4.; 2.; 3. ])

let test_p99_support () =
  let samples n = Array.init n float_of_int in
  Alcotest.(check (option feq)) "1000 samples: p99 present" (Some 989.) (Stats.percentile (samples 1000) 0.99);
  Alcotest.(check (option feq)) "999 samples: p99 absent" None (Stats.percentile (samples 999) 0.99);
  Alcotest.(check (option feq)) "p50 of 20" (Some 9.) (Stats.percentile (samples 20) 0.5)

(* ---- Scaled window metrics ---------------------------------------------- *)

(* A store-like op stream on one connection: [cost] s per op and a
   checkpoint [stall] on every 64th op, cut into slices the way
   [Runner.measure] cuts them (a slice ends with the first op to
   complete after one second). [slow] stretches every time, as a slower
   host does. *)
let synthetic ?(slow = 1.) ~cost ~stall () =
  let w = { Runner.slices = []; lat = Stats.Samples.create (); lat_slice = Stats.Samples.create () } in
  let op = ref 0 in
  for i = 0 to 19 do
    let t = ref 0. and n = ref 0 in
    while !t < 1.0 do
      incr op;
      let d = slow *. (cost +. if !op mod 64 = 0 then stall else 0.) in
      t := !t +. d;
      incr n;
      Stats.Samples.add w.lat (d *. 1e6);
      Stats.Samples.add w.lat_slice (float_of_int i)
    done;
    w.slices <- { Runner.count = !n; secs = !t; cpu = 0.; bytes = 0; traced = false; slow } :: w.slices
  done;
  Runner.summarize w Runner.untraced

let p50 (s : Runner.summary) = Option.get (Runner.ms s.scaled_lat 0.50)
let p99 (s : Runner.summary) = Option.get (Runner.ms s.scaled_lat 0.99)

let test_per_op_cost_resolved () =
  (* 64 ops of 1 ms, then a 90 ms stall: +5% per op, stall unchanged,
     is 154 ms -> 157.2 ms a cycle, so throughput falls by 2.0% *)
  let base = synthetic ~cost:1e-3 ~stall:0.09 () and dearer = synthetic ~cost:1.05e-3 ~stall:0.09 () in
  let ratio = dearer.scaled_ops_per_s /. base.scaled_ops_per_s in
  Alcotest.check (Alcotest.float 0.003) "ops_per_s falls by the cycle's share" (154. /. 157.2) ratio;
  Alcotest.check (Alcotest.float 1e-9) "p50 rises 5%" 1.05 (p50 dearer /. p50 base)

let test_slow_host_scaled_out () =
  let base = synthetic ~cost:1e-3 ~stall:0.09 () and slow = synthetic ~slow:2. ~cost:1e-3 ~stall:0.09 () in
  Alcotest.check (Alcotest.float 0.01) "ops_per_s" 1. (slow.scaled_ops_per_s /. base.scaled_ops_per_s);
  Alcotest.check (Alcotest.float 1e-9) "p50" (p50 base) (p50 slow);
  Alcotest.check (Alcotest.float 1e-9) "p99" (p99 base) (p99 slow);
  Alcotest.check (Alcotest.float 0.01) "unscaled throughput halves" 0.5 (slow.ops_per_s /. base.ops_per_s)

(* ---- Compare ------------------------------------------------------------ *)

let bounds =
  [
    { Compare.metric = "ops_per_s"; better = Compare.Higher; bound = 0.1 };
    { Compare.metric = "op_p50_ms"; better = Compare.Lower; bound = 0.1 };
  ]

(* Ten runs of two workloads; [f workload i] gives run i's ops_per_s. *)
let runs ?(failed = 0) f =
  List.concat_map
    (fun workload ->
      List.init 10 (fun i ->
          let ops = f workload i in
          {
            Results.workload; seed = string_of_int i; traced = false; attempted = 1000; failed;
            failures = []; config = []; detail = [];
            metrics =
              [
                { Results.name = "ops_per_s"; value = ops; unit_ = "ops/s" };
                { Results.name = "op_p50_ms"; value = 1000. /. ops; unit_ = "ms" };
              ];
          }))
    [ "point-mixed"; "commit-durable" ]

let steady _ i = 1000. +. float_of_int (i mod 3)

let verdict rows workload metric =
  (List.find (fun (r : Compare.row) -> r.workload = workload && r.metric = metric) rows).verdict

let test_compare_unchanged () =
  let rows = Compare.rows ~bounds ~parent:(runs steady) ~change:(runs steady) in
  Alcotest.(check bool) "all unchanged" true
    (List.for_all (fun (r : Compare.row) -> r.verdict = Compare.Unchanged) rows)

let test_compare_regression () =
  let slower w i = if w = "commit-durable" then 0.8 *. steady w i else steady w i in
  let rows = Compare.rows ~bounds ~parent:(runs steady) ~change:(runs slower) in
  Alcotest.(check bool) "ops_per_s worse" true (verdict rows "commit-durable" "ops_per_s" = Compare.Worse);
  Alcotest.(check bool) "other workload unchanged" true
    (verdict rows "point-mixed" "ops_per_s" = Compare.Unchanged);
  (* the gate exits non-zero and names the workload and metric *)
  let out = Filename.temp_file "compare" ".txt" in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 and saved = Unix.dup Unix.stdout in
  flush stdout;
  Unix.dup2 fd Unix.stdout;
  let code = Compare.print_rows rows in
  flush stdout;
  Unix.dup2 saved Unix.stdout;
  Unix.close fd;
  let text = In_channel.with_open_bin out In_channel.input_all in
  Alcotest.(check int) "exit code" 1 code;
  Alcotest.(check bool) "names the regression" true
    (List.mem "REGRESSION: commit-durable ops_per_s" (String.split_on_char '\n' text))

let test_compare_improved () =
  let faster w i = if w = "point-mixed" then 1.3 *. steady w i else steady w i in
  let rows = Compare.rows ~bounds ~parent:(runs steady) ~change:(runs faster) in
  Alcotest.(check bool) "improved" true (verdict rows "point-mixed" "ops_per_s" = Compare.Improved)

let test_compare_unresolved () =
  let noisy _ i = if i mod 2 = 0 then 700. else 1300. in
  let rows = Compare.rows ~bounds ~parent:(runs noisy) ~change:(runs noisy) in
  Alcotest.(check bool) "spread over bound" true (verdict rows "point-mixed" "ops_per_s" = Compare.Unresolved)

let test_compare_failures () =
  let rows = Compare.rows ~bounds ~parent:(runs steady) ~change:(runs ~failed:1 steady) in
  Alcotest.(check bool) "failed ops are a regression" true
    (verdict rows "point-mixed" "failed_op_frac" = Compare.Worse)

(* ---- BENCHMARK.json ----------------------------------------------------- *)

let test_contract () =
  let j = Result.get_ok (Obs.Json.parse (In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all)) in
  let names key =
    match Obs.Json.member key j with
    | Some (Obs.Json.Arr l) -> List.filter_map (fun m -> Results.to_string (Obs.Json.member "name" m)) l
    | _ -> []
  in
  Alcotest.(check (list string)) "end_to_end" Runner.contract_end_to_end (names "end_to_end");
  Alcotest.(check (list string)) "per_layer" Runner.contract_per_layer (names "per_layer");
  Alcotest.(check (list string)) "workloads" Mix.names (names "workloads");
  Alcotest.(check int) "bounds load" (List.length Runner.contract_end_to_end)
    (List.length (Result.get_ok (Compare.load_bounds "../../BENCHMARK.json")))

(* ---- Smoke run ---------------------------------------------------------- *)

let test_smoke () =
  let out = "smoke-out" in
  let pid =
    Unix.create_process "../tcvs_bench.exe"
      [| "../tcvs_bench.exe"; "run"; "--smoke"; "--out"; out |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  let _, status = Unix.waitpid [] pid in
  Alcotest.(check bool) "exit 0" true (status = Unix.WEXITED 0);
  let runs = Result.get_ok (Results.read (Filename.concat out "result-all-bench-1.json")) in
  Alcotest.(check (list string)) "every workload" Mix.names (List.map (fun (r : Results.run) -> r.workload) runs);
  (* p99 is reported only over at least 1000 latency samples, which a
     3 s window on a loaded host need not collect *)
  let samples =
    match Obs.Json.parse (In_channel.with_open_bin (Filename.concat out "result-all-bench-1.json") In_channel.input_all) with
    | Ok j -> (
        match Obs.Json.member "runs" j with
        | Some (Obs.Json.Arr rs) ->
            List.map
              (fun r -> Option.value ~default:0 (Results.to_int (Option.bind (Obs.Json.member "detail" r) (Obs.Json.member "latency_samples"))))
              rs
        | _ -> [])
    | Error e -> Alcotest.fail e
  in
  List.iter2
    (fun (r : Results.run) samples ->
      Alcotest.(check int) (r.workload ^ ": no failed op") 0 r.failed;
      List.iter
        (fun name ->
          if name <> "op_p99_ms" || samples >= 1000 then
            Alcotest.(check bool) (r.workload ^ ": " ^ name) true
              (List.exists (fun (m : Results.metric) -> m.name = name) r.metrics))
        ("failed_op_frac" :: Runner.contract_end_to_end))
    runs samples

let () =
  Alcotest.run "tcvs-bench"
    [
      ( "verify",
        [
          Alcotest.test_case "honest replies verify out of order" `Quick test_honest;
          Alcotest.test_case "flipped answer byte fails" `Quick test_flipped_answer;
          Alcotest.test_case "VO for another key fails" `Quick test_wrong_key_vo;
          Alcotest.test_case "broken ctr root chain fails" `Quick test_broken_chain;
          Alcotest.test_case "gaps in the ctr chain fail at the end" `Quick test_gaps;
          Alcotest.test_case "wrong initial root fails" `Quick test_wrong_initial_root;
        ] );
      ( "stats",
        [
          Alcotest.test_case "median and quartiles" `Quick test_quartiles;
          Alcotest.test_case "p99 needs ten samples beyond it" `Quick test_p99_support;
        ] );
      ( "window",
        [
          Alcotest.test_case "+5% per-op cost shows past checkpoint stalls" `Quick test_per_op_cost_resolved;
          Alcotest.test_case "a uniformly slower host is scaled out" `Quick test_slow_host_scaled_out;
        ] );
      ( "compare",
        [
          Alcotest.test_case "same runs: unchanged" `Quick test_compare_unchanged;
          Alcotest.test_case "-20% ops_per_s: worse, exit 1" `Quick test_compare_regression;
          Alcotest.test_case "9 of 10 pairs beyond IQR: improved" `Quick test_compare_improved;
          Alcotest.test_case "spread over bound: unresolved" `Quick test_compare_unresolved;
          Alcotest.test_case "failed ops: worse" `Quick test_compare_failures;
        ] );
      ("contract", [ Alcotest.test_case "BENCHMARK.json names" `Quick test_contract ]);
      ("smoke", [ Alcotest.test_case "every workload, verified" `Slow test_smoke ]);
    ]
