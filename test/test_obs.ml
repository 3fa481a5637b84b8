(* Tests for the observability registry: counter/histogram arithmetic,
   scope namespacing, reset semantics, the volatile split, trace events
   and — the property every experiment rests on — byte-identical
   reports for same-seed runs. *)

open Tcvs

let scope = Obs.Scope.(v "test" / "obs")

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* [Obs.stats] as a list, so a check can name all four fields at once. *)
let stats name =
  Option.map (fun (count, sum, mn, mx) -> [ count; sum; mn; mx ]) (Obs.stats name)

let test_counter_arithmetic () =
  Obs.reset ();
  let c = Obs.counter ~scope "ctr" in
  Alcotest.(check int) "fresh counter is zero" 0 (Obs.value "test.obs.ctr");
  Obs.incr c;
  Obs.add c 41;
  Alcotest.(check int) "incr accumulates" 42 (Obs.value "test.obs.ctr");
  Alcotest.(check int) "absent name reads zero" 0 (Obs.value "test.obs.nope");
  Obs.record_max c 10;
  Alcotest.(check int) "record_max never lowers" 42 (Obs.value "test.obs.ctr");
  Obs.record_max c 100;
  Alcotest.(check int) "record_max raises" 100 (Obs.value "test.obs.ctr")

let test_histogram_arithmetic () =
  Obs.reset ();
  let h = Obs.histogram ~scope "hist" in
  Alcotest.(check (option (list int))) "fresh histogram reads as absent" None
    (stats "test.obs.hist");
  List.iter (Obs.observe h) [ 5; 1; 9; 3 ];
  Alcotest.(check (option (list int))) "count, sum, min, max" (Some [ 4; 18; 1; 9 ])
    (stats "test.obs.hist")

let test_scope_namespacing () =
  Obs.reset ();
  Alcotest.(check string) "dot-joined path" "test.obs" (Obs.Scope.name scope);
  Alcotest.(check string) "root is empty" "" (Obs.Scope.name Obs.Scope.root);
  let a = Obs.counter ~scope:(Obs.Scope.v "a") "x" in
  let b = Obs.counter ~scope:(Obs.Scope.v "b") "x" in
  Obs.incr a;
  Obs.incr a;
  Obs.incr b;
  Alcotest.(check int) "a.x" 2 (Obs.value "a.x");
  Alcotest.(check int) "b.x" 1 (Obs.value "b.x");
  (* Same full name → the same underlying counter. *)
  let a' = Obs.counter ~scope:(Obs.Scope.v "a") "x" in
  Obs.incr a';
  Alcotest.(check int) "get-or-create shares state" 3 (Obs.value "a.x");
  Alcotest.check_raises "kind mismatch rejected"
    (Invalid_argument "Obs: \"a.x\" is registered as a counter, not a histogram")
    (fun () -> ignore (Obs.histogram ~scope:(Obs.Scope.v "a") "x"))

let test_reset_between_runs () =
  Obs.reset ();
  let c = Obs.counter ~scope "survivor" in
  let h = Obs.histogram ~scope "hsurvivor" in
  Obs.add c 7;
  Obs.observe h 3;
  Obs.set_meta "who" "first-run";
  Obs.reset ();
  Alcotest.(check int) "counter zeroed, handle survives" 0 (Obs.value "test.obs.survivor");
  Alcotest.(check (option (list int))) "histogram zeroed" None (stats "test.obs.hsurvivor");
  Obs.incr c;
  Alcotest.(check int) "handle still live after reset" 1 (Obs.value "test.obs.survivor");
  let json = Obs.Report.to_json () in
  Alcotest.(check bool) "meta cleared by reset" false (contains "first-run" json);
  Alcotest.(check bool)
    "zero-valued metrics omitted from the report" false
    (contains "hsurvivor" json);
  Obs.observe h 9;
  Alcotest.(check (option (list int)))
    "histogram restarts from empty: min/max not carried over" (Some [ 1; 9; 9; 9 ])
    (stats "test.obs.hsurvivor")

let test_trace_events () =
  Obs.reset ();
  Obs.Trace.emit ~at:1 ~name:"ignored" "tracing off";
  Alcotest.(check int) "no events while tracing is off" 0
    (List.length (Obs.Trace.events ()));
  Obs.set_tracing true;
  Obs.Trace.emit ~scope ~at:3 ~name:"point" "a";
  Obs.Trace.emit ~scope ~dur:4 ~at:9 ~name:"span" "b";
  (match Obs.Trace.events () with
  | [ e1; e2 ] ->
      Alcotest.(check int) "at" 3 e1.Obs.Trace.at;
      Alcotest.(check int) "point dur" 0 e1.Obs.Trace.dur;
      Alcotest.(check string) "scope recorded" "test.obs" e1.Obs.Trace.scope;
      Alcotest.(check int) "span dur" 4 e2.Obs.Trace.dur
  | es -> Alcotest.failf "expected 2 events, got %d" (List.length es));
  Alcotest.(check int) "trace_lines, one per event" 2
    (List.length (Obs.Report.trace_lines ()));
  Obs.reset ();
  Alcotest.(check int) "reset clears events" 0 (List.length (Obs.Trace.events ()));
  Alcotest.(check bool) "reset preserves the tracing flag" true (Obs.tracing ());
  Obs.set_tracing false

(* Volatile metrics hold wall-clock and physical-I/O data: readable,
   rendered into the live admin snapshot, never into the deterministic
   report. *)
let test_volatile_split () =
  Obs.reset ();
  let vc = Obs.counter ~scope ~volatile:true "vol_ctr" in
  let vh = Obs.histogram ~scope ~volatile:true "vol_hist" in
  let c = Obs.counter ~scope "stable_ctr" in
  let h = Obs.histogram ~scope "stable_hist" in
  Obs.add vc 5;
  Obs.observe vh 7;
  Obs.incr c;
  Obs.observe h 2;
  Alcotest.(check int) "volatile counter readable" 5 (Obs.value "test.obs.vol_ctr");
  Alcotest.(check (option (list int)))
    "volatile histogram readable" (Some [ 1; 7; 7; 7 ])
    (stats "test.obs.vol_hist");
  let report = Obs.Report.to_json () in
  let snapshot = Obs.Report.to_json ~volatile:true () in
  List.iter
    (fun (name, rendered) ->
      Alcotest.(check bool) (name ^ " left out of the report") false (contains name report);
      Alcotest.(check bool) (name ^ " in the admin snapshot") true (contains rendered snapshot))
    [
      ("vol_ctr", "\"test.obs.vol_ctr\": 5");
      ("vol_hist", "\"test.obs.vol_hist\": { \"count\": 1, \"sum\": 7");
    ];
  List.iter
    (fun rendered ->
      Alcotest.(check bool) (rendered ^ " in the report") true (contains rendered report);
      Alcotest.(check bool) (rendered ^ " in the admin snapshot") true (contains rendered snapshot))
    [ "\"test.obs.stable_ctr\": 1"; "\"test.obs.stable_hist\": { \"count\": 1, \"sum\": 2" ];
  Obs.reset ()

(* The acceptance property: two runs with the same seed produce
   byte-identical JSON reports, and the report carries the headline
   metrics every experiment reads. *)
let test_same_seed_reports_identical () =
  let report () =
    let protocol =
      Harness.Protocol_2
        { k = 8; tag_mode = `Tagged; check_gctr = true; sync_trigger = `Per_user }
    in
    let adversary = Adversary.Fork { at_op = 10; group_a = [ 0; 1 ] } in
    let events =
      Workload.Schedule.generate
        { Workload.Schedule.default_profile with Workload.Schedule.users = 4 }
        ~seed:"obs-determinism" ~rounds:160
    in
    let (_ : Harness.outcome) =
      Harness.run (Harness.default_setup ~protocol ~users:4 ~adversary) ~events
    in
    Obs.Report.to_json ()
  in
  let r1 = report () in
  let r2 = report () in
  Alcotest.(check string) "same seed, byte-identical report" r1 r2;
  List.iter
    (fun key ->
      Alcotest.(check bool) (Printf.sprintf "report has %s" key) true (contains key r1))
    [
      "\"schema\": \"tcvs-obs/1\"";
      "sim.messages";
      "sim.bytes";
      "crypto.sha256.digests";
      "mtree.vo_bytes";
      "run.messages_per_op";
      "detection.ops_after_violation";
    ]

let suite =
  [
    Alcotest.test_case "counter arithmetic" `Quick test_counter_arithmetic;
    Alcotest.test_case "histogram arithmetic" `Quick test_histogram_arithmetic;
    Alcotest.test_case "scope namespacing" `Quick test_scope_namespacing;
    Alcotest.test_case "reset between runs" `Quick test_reset_between_runs;
    Alcotest.test_case "volatile split" `Quick test_volatile_split;
    Alcotest.test_case "trace events" `Quick test_trace_events;
    Alcotest.test_case "same-seed reports byte-identical" `Quick
      test_same_seed_reports_identical;
  ]
