(* Tests for the Myers diff and patch layer. *)

let rng = Crypto.Prng.create ~seed:"test-vdiff"
let coin () = Crypto.Prng.int rng 2 = 0
let pick arr = arr.(Crypto.Prng.int rng (Array.length arr))

let random_text max_lines =
  let n = Crypto.Prng.int rng (max_lines + 1) in
  String.concat "\n"
    (List.init n (fun _ ->
         String.init (Crypto.Prng.int rng 6) (fun _ ->
             pick [| 'a'; 'b'; 'c'; ' '; 'x' |])))

(* Mutate a text slightly, so diffs exercise realistic shapes. *)
let mutate text =
  let lines = Array.of_list (Vdiff.Myers.split_lines text) in
  let lines = Array.to_list lines in
  List.concat_map
    (fun l ->
      match Crypto.Prng.int rng 10 with
      | 0 -> [] (* delete *)
      | 1 -> [ l; "inserted" ]
      | 2 -> [ l ^ "!" ]
      | _ -> [ l ])
    lines
  |> String.concat "\n"

(* ---- Myers ------------------------------------------------------------- *)

let script_projections script =
  let olds =
    List.filter_map
      (function Vdiff.Myers.Keep l | Vdiff.Myers.Del l -> Some l | Vdiff.Myers.Add _ -> None)
      script
  and news =
    List.filter_map
      (function Vdiff.Myers.Keep l | Vdiff.Myers.Add l -> Some l | Vdiff.Myers.Del _ -> None)
      script
  in
  (olds, news)

let test_myers_projections () =
  for _ = 1 to 300 do
    let a = random_text 30 in
    let b = if coin () then mutate a else random_text 30 in
    let script = Vdiff.Myers.diff a b in
    let olds, news = script_projections script in
    Alcotest.(check (list string)) "old projection" (Vdiff.Myers.split_lines a) olds;
    Alcotest.(check (list string)) "new projection" (Vdiff.Myers.split_lines b) news
  done

let test_myers_identical () =
  let script = Vdiff.Myers.diff "a\nb\nc" "a\nb\nc" in
  Alcotest.(check bool) "all Keep" true
    (List.for_all (function Vdiff.Myers.Keep _ -> true | _ -> false) script)

(* Number of Del + Add in the script: the edit distance when the script
   is minimal. *)
let distance a b =
  List.length
    (List.filter (function Vdiff.Myers.Keep _ -> false | _ -> true) (Vdiff.Myers.diff a b))

let test_myers_known_distances () =
  Alcotest.(check int) "identical" 0 (distance "a\nb" "a\nb");
  Alcotest.(check int) "one line changed" 2 (distance "a\nb\nc" "a\nb\nd");
  Alcotest.(check int) "pure insertion" 1 (distance "a\nc" "a\nb\nc");
  Alcotest.(check int) "pure deletion" 1 (distance "a\nb\nc" "a\nc");
  (* The classic ABCABBA → CBABAC example has distance 5. *)
  Alcotest.(check int) "myers paper example" 5
    (distance "A\nB\nC\nA\nB\nB\nA" "C\nB\nA\nB\nA\nC")

let test_myers_minimality_vs_lcs () =
  (* distance = |a| + |b| - 2·LCS; check against a quadratic LCS on
     small inputs. *)
  let lcs a b =
    let a = Array.of_list a and b = Array.of_list b in
    let n = Array.length a and m = Array.length b in
    let dp = Array.make_matrix (n + 1) (m + 1) 0 in
    for i = 1 to n do
      for j = 1 to m do
        dp.(i).(j) <-
          (if a.(i - 1) = b.(j - 1) then dp.(i - 1).(j - 1) + 1
           else max dp.(i - 1).(j) dp.(i).(j - 1))
      done
    done;
    dp.(n).(m)
  in
  for _ = 1 to 200 do
    let a = random_text 12 and b = random_text 12 in
    let la = Vdiff.Myers.split_lines a and lb = Vdiff.Myers.split_lines b in
    let expected = List.length la + List.length lb - (2 * lcs la lb) in
    Alcotest.(check int) "minimal distance" expected (distance a b)
  done

(* ---- Patch -------------------------------------------------------------- *)

let test_patch_roundtrip () =
  for _ = 1 to 500 do
    let a = random_text 40 in
    let b = if coin () then mutate a else random_text 40 in
    let p = Vdiff.Patch.make ~old_:a ~new_:b in
    (match Vdiff.Patch.apply p a with
    | Ok b' -> Alcotest.(check string) "apply (make a b) a = b" b b'
    | Error e -> Alcotest.failf "apply failed: %s" e);
    (* The inverse of [make a b] is [make b a]. *)
    match Vdiff.Patch.apply (Vdiff.Patch.make ~old_:b ~new_:a) b with
    | Ok a' -> Alcotest.(check string) "the inverse patch restores a" a a'
    | Error e -> Alcotest.failf "reverse apply failed: %s" e
  done

let test_patch_wrong_base_rejected () =
  let p = Vdiff.Patch.make ~old_:"a\nb\nc" ~new_:"a\nX\nc" in
  (match Vdiff.Patch.apply p "a\nY\nc" with
  | Ok _ -> Alcotest.fail "patch applied to a mismatching base"
  | Error _ -> ());
  match Vdiff.Patch.apply p "a\nb" with
  | Ok _ -> Alcotest.fail "patch applied to a short base"
  | Error _ -> ()

let test_patch_wire_roundtrip () =
  for _ = 1 to 200 do
    let a = random_text 25 and b = random_text 25 in
    let p = Vdiff.Patch.make ~old_:a ~new_:b in
    match Vdiff.Patch.decode (Vdiff.Patch.encode p) with
    | None -> Alcotest.fail "decode failed"
    | Some p' ->
        Alcotest.(check bool) "ops preserved" true (Vdiff.Patch.ops p = Vdiff.Patch.ops p')
  done

let test_patch_decode_garbage () =
  Alcotest.(check bool) "bad header" true (Vdiff.Patch.decode "Z9\n" = None);
  Alcotest.(check bool) "negative count" true (Vdiff.Patch.decode "C-4\n" = None);
  Alcotest.(check bool) "truncated insert" true (Vdiff.Patch.decode "I3\nonly one line\n" = None)

let test_patch_empty_strings () =
  let p = Vdiff.Patch.make ~old_:"" ~new_:"" in
  (match Vdiff.Patch.apply p "" with
  | Ok "" -> ()
  | _ -> Alcotest.fail "empty-to-empty failed");
  let p = Vdiff.Patch.make ~old_:"" ~new_:"hello\nworld" in
  match Vdiff.Patch.apply p "" with
  | Ok s -> Alcotest.(check string) "creation from empty" "hello\nworld" s
  | Error e -> Alcotest.failf "failed: %s" e

let test_trailing_newline_preserved () =
  List.iter
    (fun (a, b) ->
      let p = Vdiff.Patch.make ~old_:a ~new_:b in
      match Vdiff.Patch.apply p a with
      | Ok b' -> Alcotest.(check string) "exact bytes" b b'
      | Error e -> Alcotest.failf "failed: %s" e)
    [ ("a\n", "a"); ("a", "a\n"); ("a\nb\n", "a\nb"); ("", "\n"); ("\n", "") ]

let prop_patch_roundtrip =
  let text_gen =
    QCheck.Gen.(
      map (String.concat "\n")
        (list_size (int_bound 20) (string_size ~gen:(char_range 'a' 'e') (int_bound 4))))
  in
  QCheck.Test.make ~name:"patch roundtrip (qcheck)" ~count:300
    QCheck.(pair (make text_gen) (make text_gen))
    (fun (a, b) ->
      let p = Vdiff.Patch.make ~old_:a ~new_:b in
      Vdiff.Patch.apply p a = Ok b
      && Vdiff.Patch.apply (Vdiff.Patch.make ~old_:b ~new_:a) b = Ok a
      && (match Vdiff.Patch.decode (Vdiff.Patch.encode p) with
         | Some p' -> Vdiff.Patch.ops p' = Vdiff.Patch.ops p
         | None -> false))

let suite =
  let quick name f = Alcotest.test_case name `Quick f in
  [
    quick "myers: projections reconstruct inputs" test_myers_projections;
    quick "myers: identical inputs" test_myers_identical;
    quick "myers: known distances" test_myers_known_distances;
    quick "myers: minimality vs LCS oracle" test_myers_minimality_vs_lcs;
    quick "patch: roundtrip + inverse" test_patch_roundtrip;
    quick "patch: wrong base rejected" test_patch_wrong_base_rejected;
    quick "patch: wire roundtrip" test_patch_wire_roundtrip;
    quick "patch: decode garbage" test_patch_decode_garbage;
    quick "patch: empty strings" test_patch_empty_strings;
    quick "patch: trailing newline exactness" test_trailing_newline_preserved;
    QCheck_alcotest.to_alcotest prop_patch_roundtrip;
  ]
