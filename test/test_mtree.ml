(* Tests for the Merkle B⁺-tree and verification objects: model-based
   equivalence with a sorted-map model, structural/cryptographic
   invariants, VO replay, wire roundtrips, and — crucially — rejection
   of every tampering we can construct. *)

module T = Mtree.Merkle_btree
module Vo = Mtree.Vo

let rng = Crypto.Prng.create ~seed:"test-mtree"

let key i = Printf.sprintf "key-%04d" i
let check_inv tree label =
  match T.check_invariants tree with
  | Ok () -> ()
  | Error m -> Alcotest.failf "%s: invariant broken: %s" label m

(* ---- basics ----------------------------------------------------------- *)

let test_empty_tree () =
  let t = T.create () in
  Alcotest.(check int) "size" 0 (T.size t);
  Alcotest.(check (option string)) "find" None (T.find t "anything");
  check_inv t "empty";
  Alcotest.(check bool) "two empties share a root digest" true
    (T.root_digest (T.create ()) = T.root_digest t)

let test_set_find_remove () =
  let t = T.set (T.create ()) ~key:"a" ~value:"1" in
  Alcotest.(check (option string)) "finds" (Some "1") (T.find t "a");
  let t = T.set t ~key:"a" ~value:"2" in
  Alcotest.(check (option string)) "overwrites" (Some "2") (T.find t "a");
  Alcotest.(check int) "size 1 after overwrite" 1 (T.size t);
  let t = T.remove t "a" in
  Alcotest.(check (option string)) "removed" None (T.find t "a");
  Alcotest.(check int) "size 0" 0 (T.size t)

let test_remove_missing_is_noop () =
  let t = T.set (T.create ()) ~key:"a" ~value:"1" in
  let t' = T.remove t "zzz" in
  Alcotest.(check string) "root unchanged" (T.root_digest t) (T.root_digest t')

let test_persistence () =
  (* Operations must not disturb earlier versions. *)
  let t0 = T.create ~branching:4 () in
  let t1 = List.fold_left (fun t i -> T.set t ~key:(key i) ~value:"x") t0 (List.init 50 Fun.id) in
  let root1 = T.root_digest t1 in
  let _t2 = List.fold_left (fun t i -> T.remove t (key i)) t1 (List.init 25 Fun.id) in
  Alcotest.(check string) "t1 untouched by later deletes" root1 (T.root_digest t1);
  Alcotest.(check int) "t1 size intact" 50 (T.size t1)

let test_root_digest_tracks_content () =
  let t = T.of_alist [ ("a", "1"); ("b", "2") ] in
  let t' = T.set t ~key:"b" ~value:"3" in
  Alcotest.(check bool) "digest changes on update" true (T.root_digest t <> T.root_digest t');
  let t'' = T.set t' ~key:"b" ~value:"2" in
  Alcotest.(check string) "digest returns with content" (T.root_digest t) (T.root_digest t'')

let test_of_alist_order_independent_content () =
  let bindings = List.init 100 (fun i -> (key i, string_of_int i)) in
  let t = T.of_alist ~branching:5 bindings in
  Alcotest.(check int) "size" 100 (T.size t);
  Alcotest.(check bool) "sorted listing" true (T.to_alist t = List.sort compare bindings);
  check_inv t "of_alist"

let test_range_queries () =
  let t = T.of_alist ~branching:4 (List.init 60 (fun i -> (key i, string_of_int i))) in
  let r = T.range t ~lo:(key 10) ~hi:(key 19) in
  Alcotest.(check int) "10 entries" 10 (List.length r);
  Alcotest.(check string) "first" (key 10) (fst (List.hd r));
  Alcotest.(check (list string)) "empty range" []
    (List.map fst (T.range t ~lo:"zzz" ~hi:"zzzz"));
  Alcotest.(check int) "full range" 60 (List.length (T.range t ~lo:"" ~hi:"~"))

let test_depth_grows_logarithmically () =
  let t = T.of_alist ~branching:4 (List.init 4096 (fun i -> (key i, "v"))) in
  (* 4096 entries at branching 4: depth between log_4 and log_2. *)
  Alcotest.(check bool) "depth in sane range" true (T.depth t >= 6 && T.depth t <= 13)

(* ---- model-based random operations ------------------------------------ *)

let run_model_test ~branching ~steps ~key_space =
  let model = Hashtbl.create 64 in
  let tree = ref (T.create ~branching ()) in
  for step = 1 to steps do
    let k = key (Crypto.Prng.int rng key_space) in
    (match Crypto.Prng.int rng 100 with
    | r when r < 45 ->
        let v = Printf.sprintf "v%d" step in
        tree := T.set !tree ~key:k ~value:v;
        Hashtbl.replace model k v
    | r when r < 75 ->
        tree := T.remove !tree k;
        Hashtbl.remove model k
    | _ ->
        Alcotest.(check (option string))
          "find agrees with model"
          (Hashtbl.find_opt model k) (T.find !tree k));
    if step mod 200 = 0 then begin
      check_inv !tree (Printf.sprintf "step %d" step);
      let expected = Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [] |> List.sort compare in
      if T.to_alist !tree <> expected then Alcotest.failf "model divergence at step %d" step;
      Alcotest.(check int) "size agrees" (List.length expected) (T.size !tree)
    end
  done

let test_model_branching_4 () = run_model_test ~branching:4 ~steps:2000 ~key_space:150
let test_model_branching_5 () = run_model_test ~branching:5 ~steps:2000 ~key_space:150
let test_model_branching_16 () = run_model_test ~branching:16 ~steps:2000 ~key_space:400
let test_model_churn () = run_model_test ~branching:8 ~steps:3000 ~key_space:25

(* ---- verification objects ---------------------------------------------- *)

let random_op key_space step =
  let k = key (Crypto.Prng.int rng key_space) in
  match Crypto.Prng.int rng 100 with
  | r when r < 35 -> Vo.Set (k, Printf.sprintf "v%d" step)
  | r when r < 45 ->
      (* multi-key update touching 2-5 distinct keys *)
      let count = 2 + Crypto.Prng.int rng 4 in
      let keys =
        List.sort_uniq compare
          (List.init count (fun _ -> key (Crypto.Prng.int rng key_space)))
      in
      Vo.Set_many (List.map (fun k -> (k, Printf.sprintf "m%d" step)) keys)
  | r when r < 65 -> Vo.Remove k
  | r when r < 85 -> Vo.Get k
  | _ ->
      let k2 = key (Crypto.Prng.int rng key_space) in
      if k <= k2 then Vo.Range (k, k2) else Vo.Range (k2, k)

let apply_server tree (op : Vo.op) =
  match op with
  | Vo.Set (k, v) -> (T.set tree ~key:k ~value:v, Vo.Updated)
  | Vo.Set_many entries ->
      (List.fold_left (fun t (k, v) -> T.set t ~key:k ~value:v) tree entries, Vo.Updated)
  | Vo.Remove k -> (T.remove tree k, Vo.Updated)
  | Vo.Get k -> (tree, Vo.Value (T.find tree k))
  | Vo.Range (lo, hi) -> (tree, Vo.Entries (T.range tree ~lo ~hi))

let test_vo_replay_random_ops () =
  List.iter
    (fun branching ->
      let tree = ref (T.create ~branching ()) in
      for step = 1 to 800 do
        let op = random_op 120 step in
        let vo = Vo.generate !tree op in
        let old_root = T.root_digest !tree in
        let tree', server_answer = apply_server !tree op in
        tree := tree';
        match Vo.apply vo op with
        | Error e -> Alcotest.failf "replay failed at step %d: %a" step Vo.pp_error e
        | Ok (answer, o, n) ->
            if o <> old_root then Alcotest.failf "old root mismatch at step %d" step;
            if n <> T.root_digest !tree then Alcotest.failf "new root mismatch at step %d" step;
            if answer <> server_answer then Alcotest.failf "answer mismatch at step %d" step
      done)
    [ 4; 8; 32 ]

let test_vo_wire_roundtrip () =
  let tree = T.of_alist ~branching:4 (List.init 200 (fun i -> (key i, string_of_int i))) in
  List.iter
    (fun op ->
      let vo = Vo.generate tree op in
      match Vo.decode (Vo.encode vo) with
      | None -> Alcotest.fail "decode failed"
      | Some vo' -> (
          Alcotest.(check int) "branching preserved" (Vo.branching vo) (Vo.branching vo');
          match (Vo.apply vo op, Vo.apply vo' op) with
          | Ok (a, o, n), Ok (a', o', n') ->
              Alcotest.(check bool) "replays agree" true (a = a' && o = o' && n = n')
          | _ -> Alcotest.fail "replay after roundtrip failed"))
    [
      Vo.Get (key 7); Vo.Set (key 7, "new"); Vo.Set ("fresh-key", "v"); Vo.Remove (key 100);
      Vo.Range (key 20, key 40); Vo.Get "absent";
    ]

let test_vo_decode_garbage () =
  Alcotest.(check bool) "empty" true (Vo.decode "" = None);
  Alcotest.(check bool) "truncated header" true (Vo.decode "V" = None);
  Alcotest.(check bool) "random bytes" true
    (Vo.decode (Crypto.Prng.bytes rng 64) = None
    || true (* decoding random bytes may rarely parse; replay still guards *))

let test_vo_is_pruned () =
  (* A point VO over a big tree must be much smaller than the database
     and must contain stubs. *)
  let tree = T.of_alist ~branching:8 (List.init 4096 (fun i -> (key i, String.make 20 'x'))) in
  let vo = Vo.generate tree (Vo.Get (key 1000)) in
  Alcotest.(check bool) "has stubs" true (Vo.stub_count vo > 0);
  let full_size = 4096 * 28 in
  Alcotest.(check bool) "much smaller than the data" true (Vo.size_bytes vo < full_size / 4)

let test_vo_size_logarithmic () =
  (* Paper claim (Section 4.1): O(log n) digests per verification
     object. Quadrupling the database should add only a constant number
     of stub digests. *)
  let size_at n =
    let tree = T.of_alist ~branching:8 (List.init n (fun i -> (key i, "v"))) in
    Vo.stub_count (Vo.generate tree (Vo.Get (key (n / 2))))
  in
  let s1 = size_at 256 and s2 = size_at 1024 and s3 = size_at 4096 in
  Alcotest.(check bool)
    (Printf.sprintf "stub growth is additive (%d, %d, %d)" s1 s2 s3)
    true
    (s2 - s1 <= 16 && s3 - s2 <= 16)

let test_vo_absence_proof () =
  let tree = T.of_alist ~branching:4 (List.init 50 (fun i -> (key (2 * i), "v"))) in
  let missing = key 31 in
  let vo = Vo.generate tree (Vo.Get missing) in
  match Vo.apply vo (Vo.Get missing) with
  | Ok (Vo.Value None, o, _) ->
      Alcotest.(check string) "proves absence against the true root" (T.root_digest tree) o
  | _ -> Alcotest.fail "absence proof failed"

let test_vo_tampered_value_changes_root () =
  (* If the server alters the value inside the VO, the recomputed old
     root no longer matches the trusted root digest. *)
  let tree = T.of_alist ~branching:4 (List.init 64 (fun i -> (key i, string_of_int i))) in
  let trusted_root = T.root_digest tree in
  let vo = Vo.generate tree (Vo.Get (key 10)) in
  let encoded = Vo.encode vo in
  (* Flip a byte inside the leaf's value region; then the recomputed
     root must differ (or decoding must fail). *)
  let target =
    (* find the value "10" in the encoding *)
    let rec find i =
      if i + 2 > String.length encoded then None
      else if String.sub encoded i 2 = "10" && i > 40 then Some i
      else find (i + 1)
    in
    find 0
  in
  match target with
  | None -> Alcotest.fail "could not locate value bytes in encoding"
  | Some i -> (
      let tampered = Bytes.of_string encoded in
      Bytes.set tampered (i + 1) '9';
      match Vo.decode (Bytes.to_string tampered) with
      | None -> () (* structurally rejected: fine *)
      | Some vo' -> (
          match Vo.apply vo' (Vo.Get (key 10)) with
          | Error _ -> ()
          | Ok (_, old_root, _) ->
              Alcotest.(check bool) "tampered VO fails the root comparison" true
                (old_root <> trusted_root)))

let test_vo_insufficient_proof () =
  (* Replaying an op against a VO generated for a different key hits a
     stub. *)
  let tree = T.of_alist ~branching:4 (List.init 256 (fun i -> (key i, "v"))) in
  let vo = Vo.generate tree (Vo.Get (key 3)) in
  match Vo.apply vo (Vo.Set (key 200, "x")) with
  | Error Vo.Insufficient -> ()
  | Error (Vo.Malformed _) -> Alcotest.fail "expected Insufficient"
  | Ok _ ->
      (* keys 3 and 200 might share a leaf only in tiny trees; here they
         cannot. *)
      Alcotest.fail "replay should have hit a pruned subtree"

let test_vo_range_completeness () =
  (* The range VO must reproduce exactly the true result; a server
     cannot under-report without breaking the root digest. *)
  let entries = List.init 100 (fun i -> (key i, string_of_int i)) in
  let tree = T.of_alist ~branching:4 entries in
  let lo = key 25 and hi = key 75 in
  let vo = Vo.generate tree (Vo.Range (lo, hi)) in
  match Vo.apply vo (Vo.Range (lo, hi)) with
  | Ok (Vo.Entries got, o, _) ->
      Alcotest.(check string) "root" (T.root_digest tree) o;
      Alcotest.(check int) "51 entries" 51 (List.length got);
      Alcotest.(check bool) "exact entries" true (got = T.range tree ~lo ~hi)
  | _ -> Alcotest.fail "range replay failed"

let test_vo_update_on_empty_tree () =
  let tree = T.create ~branching:4 () in
  let vo = Vo.generate tree (Vo.Set ("first", "v")) in
  match Vo.apply vo (Vo.Set ("first", "v")) with
  | Ok (Vo.Updated, o, n) ->
      Alcotest.(check string) "old root is the empty root" (T.root_digest tree) o;
      Alcotest.(check string) "new root matches server"
        (T.root_digest (T.set tree ~key:"first" ~value:"v"))
        n
  | _ -> Alcotest.fail "update on empty tree failed"

let test_vo_delete_with_rebalance () =
  (* Deleting from minimal-occupancy leaves forces borrows/merges during
     replay; the VO must carry enough siblings. *)
  let tree = ref (T.of_alist ~branching:4 (List.init 64 (fun i -> (key i, "v")))) in
  for i = 0 to 63 do
    let op = Vo.Remove (key i) in
    let vo = Vo.generate !tree op in
    let old_root = T.root_digest !tree in
    tree := T.remove !tree (key i);
    match Vo.apply vo op with
    | Error e -> Alcotest.failf "delete %d replay failed: %a" i Vo.pp_error e
    | Ok (_, o, n) ->
        Alcotest.(check string) "old" old_root o;
        Alcotest.(check string) "new" (T.root_digest !tree) n
  done

let test_vo_set_many () =
  let tree = T.of_alist ~branching:8 (List.init 512 (fun i -> (key i, "v"))) in
  let entries = [ (key 3, "a"); (key 200, "b"); ("brand-new", "c"); (key 400, "d") ] in
  let op = Vo.Set_many entries in
  let vo = Vo.generate tree op in
  let expected =
    List.fold_left (fun t (k, v) -> T.set t ~key:k ~value:v) tree entries
  in
  (match Vo.apply vo op with
  | Ok (Vo.Updated, o, n) ->
      Alcotest.(check string) "old root" (T.root_digest tree) o;
      Alcotest.(check string) "new root = all keys applied" (T.root_digest expected) n
  | Ok _ -> Alcotest.fail "wrong answer shape"
  | Error e -> Alcotest.failf "replay failed: %a" Vo.pp_error e);
  (* The batch VO is smaller than the sum of the individual ones. *)
  let separate =
    List.fold_left
      (fun acc (k, v) -> acc + Vo.size_bytes (Vo.generate tree (Vo.Set (k, v))))
      0 entries
  in
  Alcotest.(check bool) "batch shares upper levels" true (Vo.size_bytes vo < separate);
  (* Wire roundtrip replays identically. *)
  match Vo.decode (Vo.encode vo) with
  | Some vo' -> (
      match Vo.apply vo' op with
      | Ok (_, _, n) -> Alcotest.(check string) "roundtrip new root" (T.root_digest expected) n
      | Error e -> Alcotest.failf "roundtrip replay failed: %a" Vo.pp_error e)
  | None -> Alcotest.fail "decode failed"

let test_vo_set_many_insufficient () =
  (* A VO generated for a subset of the keys cannot replay the full
     batch. *)
  let tree = T.of_alist ~branching:8 (List.init 512 (fun i -> (key i, "v"))) in
  let vo = Vo.generate tree (Vo.Set_many [ (key 3, "a") ]) in
  match Vo.apply vo (Vo.Set_many [ (key 3, "a"); (key 400, "b") ]) with
  | Error Vo.Insufficient -> ()
  | _ -> Alcotest.fail "expected Insufficient"

let test_vo_set_many_empty_and_single () =
  let tree = T.of_alist ~branching:8 (List.init 64 (fun i -> (key i, "v"))) in
  (* Empty batch: identity transition. *)
  (match Vo.apply (Vo.generate tree (Vo.Set_many [])) (Vo.Set_many []) with
  | Ok (Vo.Updated, o, n) -> Alcotest.(check string) "identity" o n
  | _ -> Alcotest.fail "empty batch failed");
  (* Single-entry batch = plain Set. *)
  let op1 = Vo.Set_many [ (key 7, "x") ] and op2 = Vo.Set (key 7, "x") in
  match (Vo.apply (Vo.generate tree op1) op1, Vo.apply (Vo.generate tree op2) op2) with
  | Ok (_, _, n1), Ok (_, _, n2) -> Alcotest.(check string) "same new root" n1 n2
  | _ -> Alcotest.fail "singleton batch failed"

let test_vo_mutation_fuzzing () =
  (* Randomly corrupt encoded VOs: decoding may fail, but whenever it
     succeeds and the replay runs, the recomputed old root must differ
     from the trusted one (no forged proofs), unless the mutation was
     byte-preserving. *)
  let tree = T.of_alist ~branching:4 (List.init 128 (fun i -> (key i, string_of_int i))) in
  let trusted = T.root_digest tree in
  let op = Vo.Get (key 64) in
  let encoded = Vo.encode (Vo.generate tree op) in
  let forged = ref 0 in
  for _ = 1 to 3000 do
    let b = Bytes.of_string encoded in
    (* Skip the 3-byte header: the branching field is not covered by
       digests (a lie there only changes the *client's* view of future
       splits, which the protocols catch downstream). *)
    let pos = 3 + Crypto.Prng.int rng (Bytes.length b - 3) in
    let old_byte = Bytes.get b pos in
    let new_byte = Char.chr (Crypto.Prng.int rng 256) in
    Bytes.set b pos new_byte;
    if new_byte <> old_byte then begin
      match Vo.decode (Bytes.to_string b) with
      | None -> ()
      | Some vo -> (
          match Vo.apply vo op with
          | Error _ -> ()
          | Ok (_, old_root, _) -> if old_root = trusted then incr forged)
    end
  done;
  Alcotest.(check int) "no mutated VO verifies against the trusted root" 0 !forged

(* ---- bulk loading ------------------------------------------------------ *)

let test_bulk_load_equals_incremental () =
  (* of_alist now builds bottom-up; it must produce node-for-node the
     same tree (hence the same root digest) as inserting the sorted
     bindings one at a time, across branchings, sizes and occupancy
     remainders. *)
  List.iter
    (fun (branching, n) ->
      let bindings = List.init n (fun i -> (key i, Printf.sprintf "v%d" i)) in
      let bulk = T.of_alist ~branching bindings in
      let incremental =
        List.fold_left
          (fun t (k, v) -> T.set t ~key:k ~value:v)
          (T.create ~branching ()) bindings
      in
      let label = Printf.sprintf "branching %d, %d keys" branching n in
      check_inv bulk label;
      Alcotest.(check string) (label ^ ": same root") (T.root_digest incremental)
        (T.root_digest bulk);
      Alcotest.(check int) (label ^ ": size") n (T.size bulk))
    [
      (4, 0); (4, 1); (4, 4); (4, 5); (4, 100); (5, 37); (5, 200); (7, 123);
      (8, 256); (16, 15); (16, 16); (16, 17); (16, 1000); (32, 500);
    ]

let test_of_sorted_array_validation () =
  Alcotest.check_raises "unsorted input rejected"
    (Invalid_argument "Node.of_sorted_entries: keys not strictly increasing")
    (fun () -> ignore (T.of_sorted_array ~branching:4 [| ("b", "1"); ("a", "2") |]));
  Alcotest.check_raises "duplicate keys rejected"
    (Invalid_argument "Node.of_sorted_entries: keys not strictly increasing")
    (fun () -> ignore (T.of_sorted_array ~branching:4 [| ("a", "1"); ("a", "2") |]));
  Alcotest.check_raises "branching < 4"
    (Invalid_argument "Merkle_btree.of_sorted_array: branching must be >= 4")
    (fun () -> ignore (T.of_sorted_array ~branching:3 [| ("a", "1") |]))

let test_of_alist_duplicate_keys_last_wins () =
  let t = T.of_alist ~branching:4 [ ("a", "1"); ("b", "2"); ("a", "3") ] in
  Alcotest.(check (option string)) "last binding wins" (Some "3") (T.find t "a");
  Alcotest.(check int) "duplicates collapse" 2 (T.size t);
  let t' = T.of_alist ~branching:4 [ ("b", "2"); ("a", "3") ] in
  Alcotest.(check string) "same root as deduplicated input" (T.root_digest t')
    (T.root_digest t)

let test_set_many_equals_fold_of_set () =
  (* Batched insertion defers digests but must take exactly the same
     structural steps as a fold of single sets — digest for digest. *)
  List.iter
    (fun branching ->
      let base =
        T.of_alist ~branching (List.init 200 (fun i -> (key i, "base")))
      in
      for trial = 1 to 25 do
        let count = 1 + Crypto.Prng.int rng 40 in
        let batch =
          List.init count (fun j ->
              (* key space wider than the tree: mixes overwrites, fresh
                 inserts and intra-batch duplicate keys *)
              (key (Crypto.Prng.int rng 260), Printf.sprintf "t%d-%d" trial j))
        in
        let batched = T.set_many base batch in
        let folded =
          List.fold_left (fun t (k, v) -> T.set t ~key:k ~value:v) base batch
        in
        Alcotest.(check string)
          (Printf.sprintf "branching %d trial %d: same root" branching trial)
          (T.root_digest folded) (T.root_digest batched);
        Alcotest.(check int) "same size" (T.size folded) (T.size batched);
        check_inv batched "set_many"
      done)
    [ 4; 8; 16 ]

let test_vdigest_cache_through_rebalance () =
  (* check_invariants recomputes every cached value digest; drive the
     tree through splits, borrows and merges and verify at each stage. *)
  let t = ref (T.create ~branching:4 ()) in
  for i = 0 to 99 do
    t := T.set !t ~key:(key i) ~value:(Printf.sprintf "v%d" i)
  done;
  check_inv !t "after growth";
  for i = 0 to 99 do
    if i mod 3 <> 0 then t := T.remove !t (key i);
    if i mod 10 = 0 then check_inv !t (Printf.sprintf "during shrink %d" i)
  done;
  check_inv !t "after shrink";
  t := T.set_many !t (List.init 30 (fun i -> (key (200 + i), "bulk")));
  check_inv !t "after set_many"

(* ---- seed fixtures: digests and wire format are frozen ------------------ *)

let test_seed_root_fixtures () =
  (* Root digests captured from the growth seed before the
     digest-caching / bulk-load rewrite. Any change to the hashed
     encoding or to the shape of of_alist-built trees breaks these. *)
  let root t = Crypto.Hex.encode (T.root_digest t) in
  let t1 = T.of_alist ~branching:4 (List.init 100 (fun i -> (key i, string_of_int i))) in
  Alcotest.(check string) "branching 4, 100 keys"
    "f944a54ee98fd535c785cca376c4de1ec31af0eb30005ad9dee8b41a026a1008" (root t1);
  let t2 =
    T.of_alist ~branching:16 (List.init 1000 (fun i -> (key i, String.make 16 'v')))
  in
  Alcotest.(check string) "branching 16, 1000 keys"
    "417a4ad5d6f45b0556d378dfe87fe54bb9ace2fd652ae8dc6d275a857266a09e" (root t2);
  let t3 =
    T.of_alist ~branching:5 (List.init 37 (fun i -> (key i, Printf.sprintf "val%d" i)))
  in
  Alcotest.(check string) "branching 5, 37 keys"
    "d635c078a264eccd89a3aa804642e57b17758897fff993002dab2a55801799c2" (root t3)

let seed_vo_fixture_tree () =
  T.of_alist ~branching:4 (List.init 64 (fun i -> (key i, string_of_int i)))

let seed_vo_fixtures () =
  [
    ("get", Vo.Get (key 10));
    ("set", Vo.Set (key 10, "new"));
    ("remove", Vo.Remove (key 31));
    ("range", Vo.Range (key 5, key 9));
    ("set_many", Vo.Set_many [ (key 3, "a"); (key 40, "b"); ("zz-new", "c") ]);
  ]

let test_seed_vo_wire_fixtures () =
  (* VO encodings captured from the growth seed: the wire format is
     frozen byte for byte, and the frozen bytes must still decode and
     replay against today's roots. *)
  let expected =
    [
      "5600044e0001000000086b65792d303032374e0002000000086b65792d30303039000000086b65792d30303138530d781be0324dab10ff5a891dc2e6f58dc1ad36d2e3ecb3648b5b335da747104e4e0002000000086b65792d30303132000000086b65792d303031354c0003000000086b65792d303030390000000139000000086b65792d30303130000000023130000000086b65792d3030313100000002313153d89adaaeccb01cf1d6816ef2ba4f2b03f35ecb8327075aebefd08818f9f12f4e538543e5d9444f0cd05d7535a2d3c47801466525ac24922fb72c5077e6288bed9f53550322a21ddf48b05997c7becf837e93fc48259474bcebd1aa6f3e430be5c0d9536d54f739999a9b741f1a82aae85528eacbe9c000802091283012ab8d337f3d16";
      "5600044e0001000000086b65792d303032374e0002000000086b65792d30303039000000086b65792d30303138530d781be0324dab10ff5a891dc2e6f58dc1ad36d2e3ecb3648b5b335da747104e4e0002000000086b65792d30303132000000086b65792d303031354c0003000000086b65792d303030390000000139000000086b65792d30303130000000023130000000086b65792d3030313100000002313153d89adaaeccb01cf1d6816ef2ba4f2b03f35ecb8327075aebefd08818f9f12f4e538543e5d9444f0cd05d7535a2d3c47801466525ac24922fb72c5077e6288bed9f53550322a21ddf48b05997c7becf837e93fc48259474bcebd1aa6f3e430be5c0d9536d54f739999a9b741f1a82aae85528eacbe9c000802091283012ab8d337f3d16";
      "5600044e0001000000086b65792d303032374e0002000000086b65792d30303039000000086b65792d30303138530d781be0324dab10ff5a891dc2e6f58dc1ad36d2e3ecb3648b5b335da747104e534df26487600252159fbe4ba16bcc472d5900577a62de3d1941f7f2122f360a5d53550322a21ddf48b05997c7becf837e93fc48259474bcebd1aa6f3e430be5c0d94e0003000000086b65792d30303336000000086b65792d30303435000000086b65792d303035344e0002000000086b65792d30303330000000086b65792d303033334c0003000000086b65792d30303237000000023237000000086b65792d30303238000000023238000000086b65792d303032390000000232394c0003000000086b65792d30303330000000023330000000086b65792d30303331000000023331000000086b65792d303033320000000233324c0003000000086b65792d30303333000000023333000000086b65792d30303334000000023334000000086b65792d303033350000000233354e0002000000086b65792d30303339000000086b65792d3030343253891649601a75a3fb8671578ac4ec5d27b916c257ef16770cdbc85adb5f4b357053a9ed30b0778a17d0b5d539982a7af04ea05859313c3b62dd40193f2f2ffdae84539f7151319123b1feebfe8bf005195714dba9ed8ddd31806dcc99cea71af5117a531c7ab752b76581bd49a3bfed71742abcb2a9886aa2d9bb9b3604e6b7f087a9b353288500e9db2682d91f6f2b3deb0ce1178afc4705c19e254b44a9b259e639cd29";
      "5600044e0001000000086b65792d303032374e0002000000086b65792d30303039000000086b65792d303031384e0002000000086b65792d30303033000000086b65792d30303036533ab7986db575880fe6b8765d6911fbad1bd1381a2c7025266763f76ee07e7efc4c0003000000086b65792d303030330000000133000000086b65792d303030340000000134000000086b65792d3030303500000001354c0003000000086b65792d303030360000000136000000086b65792d303030370000000137000000086b65792d3030303800000001384e0002000000086b65792d30303132000000086b65792d303031354c0003000000086b65792d303030390000000139000000086b65792d30303130000000023130000000086b65792d3030313100000002313153d89adaaeccb01cf1d6816ef2ba4f2b03f35ecb8327075aebefd08818f9f12f4e538543e5d9444f0cd05d7535a2d3c47801466525ac24922fb72c5077e6288bed9f53550322a21ddf48b05997c7becf837e93fc48259474bcebd1aa6f3e430be5c0d9536d54f739999a9b741f1a82aae85528eacbe9c000802091283012ab8d337f3d16";
      "5600044e0001000000086b65792d303032374e0002000000086b65792d30303039000000086b65792d303031384e0002000000086b65792d30303033000000086b65792d30303036533ab7986db575880fe6b8765d6911fbad1bd1381a2c7025266763f76ee07e7efc4c0003000000086b65792d303030330000000133000000086b65792d303030340000000134000000086b65792d30303035000000013553a0a62a4dc1b90335d7ae9be19052a10256b192c5bcfcd6f190618aa280524f9b534df26487600252159fbe4ba16bcc472d5900577a62de3d1941f7f2122f360a5d53550322a21ddf48b05997c7becf837e93fc48259474bcebd1aa6f3e430be5c0d94e0003000000086b65792d30303336000000086b65792d30303435000000086b65792d30303534530d57bf9ef88eadd38a806ab8771bee50a3ab13db34c58a6e23984e2da6b59a5f4e0002000000086b65792d30303339000000086b65792d3030343253891649601a75a3fb8671578ac4ec5d27b916c257ef16770cdbc85adb5f4b35704c0003000000086b65792d30303339000000023339000000086b65792d30303430000000023430000000086b65792d30303431000000023431539f7151319123b1feebfe8bf005195714dba9ed8ddd31806dcc99cea71af5117a531c7ab752b76581bd49a3bfed71742abcb2a9886aa2d9bb9b3604e6b7f087a9b34e0002000000086b65792d30303537000000086b65792d3030363053a75a4b5999d11d39b55f8b6988fc823f127f8c5354747dc3bd0ef20d26460eed53c5a5d84006ade0734760f3a43795ba7b594b83e97f0e213b39e918acac1f39b24c0004000000086b65792d30303630000000023630000000086b65792d30303631000000023631000000086b65792d30303632000000023632000000086b65792d30303633000000023633";
    ]
  in
  let tree = seed_vo_fixture_tree () in
  List.iter2
    (fun (name, op) hex ->
      let vo = Vo.generate tree op in
      Alcotest.(check string)
        (name ^ ": encoding unchanged since seed")
        hex
        (Crypto.Hex.encode (Vo.encode vo));
      match Vo.decode (Crypto.Hex.decode hex) with
      | None -> Alcotest.failf "%s: frozen bytes no longer decode" name
      | Some vo' -> (
          match Vo.apply vo' op with
          | Error e -> Alcotest.failf "%s: frozen VO replay failed: %a" name Vo.pp_error e
          | Ok (_, old_root, _) ->
              Alcotest.(check string)
                (name ^ ": frozen VO still proves today's root")
                (T.root_digest tree) old_root))
    (seed_vo_fixtures ()) expected

(* ---- VO size accounting ------------------------------------------------- *)

let test_vo_size_bytes_exact () =
  (* size_bytes is computed arithmetically; it must equal the length of
     the actual encoding for every op shape, including empty trees. *)
  let check_tree tree ops =
    List.iter
      (fun op ->
        let vo = Vo.generate tree op in
        Alcotest.(check int) "size_bytes = |encode vo|"
          (String.length (Vo.encode vo))
          (Vo.size_bytes vo))
      ops
  in
  let tree = T.of_alist ~branching:4 (List.init 128 (fun i -> (key i, string_of_int i))) in
  check_tree tree
    [
      Vo.Get (key 3); Vo.Get "absent"; Vo.Set (key 64, "xyz"); Vo.Set ("fresh", "");
      Vo.Remove (key 100); Vo.Range (key 10, key 50);
      Vo.Set_many [ (key 1, "a"); (key 90, "b"); ("zz", String.make 300 'c') ];
    ];
  check_tree (T.create ~branching:8 ()) [ Vo.Get "x"; Vo.Set ("x", "y") ]

let test_branching_validation () =
  Alcotest.check_raises "branching < 4"
    (Invalid_argument "Merkle_btree.create: branching must be >= 4") (fun () ->
      ignore (T.create ~branching:3 ()))

(* qcheck: arbitrary op sequences keep tree = model and VOs replaying *)
let prop_random_sequences =
  let op_gen =
    QCheck.Gen.(
      map2
        (fun k tag -> (k mod 40, tag))
        (int_bound 1000) (int_bound 99))
  in
  QCheck.Test.make ~name:"random op sequences: model + VO replay" ~count:60
    QCheck.(make Gen.(list_size (int_range 1 120) op_gen))
    (fun ops ->
      let model = Hashtbl.create 16 in
      let tree = ref (T.create ~branching:4 ()) in
      List.for_all
        (fun (kidx, tag) ->
          let k = key kidx in
          let op =
            if tag < 45 then Vo.Set (k, string_of_int tag)
            else if tag < 75 then Vo.Remove k
            else Vo.Get k
          in
          let vo = Vo.generate !tree op in
          let old_root = T.root_digest !tree in
          let tree', answer = apply_server !tree op in
          (match op with
          | Vo.Set (_, v) -> Hashtbl.replace model k v
          | Vo.Set_many entries -> List.iter (fun (k, v) -> Hashtbl.replace model k v) entries
          | Vo.Remove _ -> Hashtbl.remove model k
          | Vo.Get _ | Vo.Range _ -> ());
          tree := tree';
          let model_ok =
            match op with
            | Vo.Get _ -> answer = Vo.Value (Hashtbl.find_opt model k)
            | _ -> true
          in
          match Vo.apply vo op with
          | Error _ -> false
          | Ok (a, o, n) ->
              model_ok && a = answer && o = old_root && n = T.root_digest !tree)
        ops)

(* The op encoding is shared by WAL records on disk and network
   frames, so its tags and field order are frozen: one pinned encoding
   per tag, decoding back to the same op. *)
let test_op_codec_pinned () =
  List.iter
    (fun (op, hex) ->
      let w = Wire.W.create () in
      Vo.encode_op w op;
      Alcotest.(check string) (hex ^ ": encoding frozen") hex
        (Crypto.Hex.encode (Wire.W.contents w));
      Alcotest.(check bool) (hex ^ ": decodes back") true
        (Wire.decode (Crypto.Hex.decode hex) Vo.decode_op = Some op))
    [
      (Vo.Get "k", "00000000016b");
      (Vo.Set ("k", "v"), "01000000016b0000000176");
      ( Vo.Set_many [ ("a", "1"); ("b", "2") ],
        "02000000020000000161000000013100000001620000000132" );
      (Vo.Remove "k", "03000000016b");
      (Vo.Range ("a", "z"), "040000000161000000017a");
    ];
  Alcotest.(check bool) "unknown tag rejected" true
    (Wire.decode "\x05" Vo.decode_op = None)

let suite =
  let quick name f = Alcotest.test_case name `Quick f in
  [
    quick "empty tree" test_empty_tree;
    quick "set/find/remove" test_set_find_remove;
    quick "remove missing is no-op" test_remove_missing_is_noop;
    quick "persistence of old versions" test_persistence;
    quick "root digest tracks content" test_root_digest_tracks_content;
    quick "of_alist" test_of_alist_order_independent_content;
    quick "range queries" test_range_queries;
    quick "depth logarithmic" test_depth_grows_logarithmically;
    quick "model: branching 4" test_model_branching_4;
    quick "model: branching 5" test_model_branching_5;
    quick "model: branching 16" test_model_branching_16;
    quick "model: high churn small keyspace" test_model_churn;
    quick "vo: replay random ops" test_vo_replay_random_ops;
    quick "vo: wire roundtrip" test_vo_wire_roundtrip;
    quick "vo: op codec pinned" test_op_codec_pinned;
    quick "vo: decode garbage" test_vo_decode_garbage;
    quick "vo: pruned and small" test_vo_is_pruned;
    quick "vo: O(log n) growth" test_vo_size_logarithmic;
    quick "vo: absence proof" test_vo_absence_proof;
    quick "vo: tampered value breaks root" test_vo_tampered_value_changes_root;
    quick "vo: insufficient proof detected" test_vo_insufficient_proof;
    quick "vo: range completeness" test_vo_range_completeness;
    quick "vo: update on empty tree" test_vo_update_on_empty_tree;
    quick "vo: delete with rebalancing" test_vo_delete_with_rebalance;
    quick "vo: set_many atomic batch" test_vo_set_many;
    quick "vo: set_many insufficient proof" test_vo_set_many_insufficient;
    quick "vo: set_many empty/singleton" test_vo_set_many_empty_and_single;
    quick "vo: mutation fuzzing never forges" test_vo_mutation_fuzzing;
    quick "bulk load = incremental build" test_bulk_load_equals_incremental;
    quick "of_sorted_array validation" test_of_sorted_array_validation;
    quick "of_alist duplicate keys: last wins" test_of_alist_duplicate_keys_last_wins;
    quick "set_many = fold of set" test_set_many_equals_fold_of_set;
    quick "vdigest cache through rebalance" test_vdigest_cache_through_rebalance;
    quick "seed fixtures: root digests" test_seed_root_fixtures;
    quick "seed fixtures: VO wire format" test_seed_vo_wire_fixtures;
    quick "vo: size_bytes exact" test_vo_size_bytes_exact;
    quick "branching validation" test_branching_validation;
    QCheck_alcotest.to_alcotest prop_random_sequences;
  ]
