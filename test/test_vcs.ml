(* Tests for the CVS substrate: delta-chain file histories and the
   local workspace with merge-on-update semantics. *)

module H = Vcs.File_history
module W = Vcs.Workspace

let commit h ?(author = 0) ?(round = 0) ?(log = "msg") content =
  H.commit h ~author ~round ~log ~content

(* ---- File_history -------------------------------------------------------- *)

let test_empty_history () =
  Alcotest.(check int) "head revision" 0 (H.head_revision H.empty);
  Alcotest.(check string) "head content" "" (H.head_content H.empty);
  Alcotest.(check bool) "content_at 0" true (H.content_at H.empty 0 = Ok "")

let test_commit_chain () =
  let h = commit H.empty "v1" in
  let h = commit h "v1\nv2" in
  let h = commit h "v2" in
  Alcotest.(check int) "three revisions" 3 (H.head_revision h);
  Alcotest.(check string) "head" "v2" (H.head_content h);
  Alcotest.(check bool) "rev 1" true (H.content_at h 1 = Ok "v1");
  Alcotest.(check bool) "rev 2" true (H.content_at h 2 = Ok "v1\nv2");
  Alcotest.(check bool) "rev 3" true (H.content_at h 3 = Ok "v2");
  Alcotest.(check bool) "rev 0 is empty" true (H.content_at h 0 = Ok "");
  Alcotest.(check bool) "rev 4 is out of range" true (Result.is_error (H.content_at h 4))

let test_log_entries () =
  let h = H.commit H.empty ~author:1 ~round:10 ~log:"first" ~content:"a" in
  let h = H.commit h ~author:2 ~round:20 ~log:"second" ~content:"b" in
  match H.log_entries h with
  | [ (2, 2, 20, "second"); (1, 1, 10, "first") ] -> ()
  | entries -> Alcotest.failf "unexpected log: %d entries" (List.length entries)

let test_annotate () =
  let h = commit H.empty "line1\nline2" in
  let h = commit h "line1\nline2\nline3" in
  let h = commit h "line1\nchanged\nline3" in
  Alcotest.(check (list (pair string int)))
    "annotations"
    [ ("line1", 1); ("changed", 3); ("line3", 2) ]
    (H.annotate h)

let test_history_encode_decode () =
  let rng = Crypto.Prng.create ~seed:"vcs-hist" in
  for _ = 1 to 100 do
    let h = ref H.empty in
    for i = 1 to 1 + Crypto.Prng.int rng 8 do
      let content =
        String.concat "\n"
          (List.init (Crypto.Prng.int rng 10) (fun j -> Printf.sprintf "l%d-%d" i j))
      in
      h :=
        H.commit !h
          ~author:(Crypto.Prng.int rng 4)
          ~round:(Crypto.Prng.int rng 1000)
          ~log:(Printf.sprintf "commit %d" i)
          ~content
    done;
    match H.decode (H.encode !h) with
    | None -> Alcotest.fail "decode failed"
    | Some h' ->
        Alcotest.(check string) "head content survives" (H.head_content !h) (H.head_content h');
        Alcotest.(check int) "revision count" (H.head_revision !h) (H.head_revision h');
        Alcotest.(check string) "encoding stable" (H.encode !h) (H.encode h')
  done

let test_history_decode_garbage () =
  Alcotest.(check bool) "garbage" true (H.decode "nonsense" = None);
  Alcotest.(check bool) "empty ok" true
    (match H.decode (H.encode H.empty) with Some h -> H.head_revision h = 0 | None -> false)

let test_history_decode_rejects_bad_numbering () =
  (* Corrupting the revision numbering must be caught. *)
  let h = commit (commit H.empty "a") "b" in
  let encoded = H.encode h in
  (* revision numbers are u32s at known offsets; flip the first one *)
  let b = Bytes.of_string encoded in
  Bytes.set b 7 '\x05';
  Alcotest.(check bool) "bad numbering rejected" true (H.decode (Bytes.to_string b) = None)

(* ---- Workspace ------------------------------------------------------------ *)

let test_workspace_checkout_edit_status () =
  let h = commit H.empty "hello" in
  let modified ws path =
    match W.find ws path with
    | Some st -> st.W.local_content <> st.W.base_content
    | None -> Alcotest.failf "%s not checked out" path
  in
  let ws = W.checkout W.empty ~path:"f.ml" h in
  Alcotest.(check bool) "clean after checkout" false (modified ws "f.ml");
  let ws = W.edit ws ~path:"f.ml" ~content:"hello world" in
  Alcotest.(check bool) "modified after edit" true (modified ws "f.ml");
  Alcotest.(check (option string)) "commit content" (Some "hello world")
    (W.commit_content ws ~path:"f.ml")

let test_workspace_edit_unknown_raises () =
  Alcotest.check_raises "edit before checkout" Not_found (fun () ->
      ignore (W.edit W.empty ~path:"nope" ~content:"x"))

let test_workspace_update_clean_merge () =
  (* Local edit at the bottom, upstream edit at the top: merges. *)
  let base = "top\nmiddle\nbottom" in
  let h1 = commit H.empty base in
  let ws = W.checkout W.empty ~path:"f" h1 in
  let ws = W.edit ws ~path:"f" ~content:"top\nmiddle\nbottom-local" in
  let h2 = commit h1 "top-upstream\nmiddle\nbottom" in
  match W.update ws ~path:"f" h2 with
  | W.Conflict { reason; _ } -> Alcotest.failf "unexpected conflict: %s" reason
  | W.Updated ws' -> (
      match W.find ws' "f" with
      | Some st ->
          Alcotest.(check string) "merged both edits" "top-upstream\nmiddle\nbottom-local"
            st.W.local_content;
          Alcotest.(check int) "rebased to head" 2 st.W.base_revision
      | None -> Alcotest.fail "file vanished")

let test_workspace_update_conflict () =
  (* Both sides edit the same line: the upstream delta cannot apply. *)
  let h1 = commit H.empty "shared line" in
  let ws = W.checkout W.empty ~path:"f" h1 in
  let ws = W.edit ws ~path:"f" ~content:"local version" in
  let h2 = commit h1 "upstream version" in
  match W.update ws ~path:"f" h2 with
  | W.Conflict _ -> ()
  | W.Updated _ -> Alcotest.fail "expected a conflict"

let test_workspace_update_no_local_edits () =
  let h1 = commit H.empty "v1" in
  let ws = W.checkout W.empty ~path:"f" h1 in
  let h2 = commit h1 "v2" in
  match W.update ws ~path:"f" h2 with
  | W.Updated ws' ->
      Alcotest.(check (option string)) "fast-forwarded" (Some "v2") (W.commit_content ws' ~path:"f")
  | W.Conflict _ -> Alcotest.fail "clean fast-forward conflicted"

let test_workspace_update_unknown_path_checks_out () =
  let h = commit H.empty "v1" in
  match W.update W.empty ~path:"f" h with
  | W.Updated ws ->
      Alcotest.(check (option string)) "checked out" (Some "v1") (W.commit_content ws ~path:"f")
  | W.Conflict _ -> Alcotest.fail "conflict on fresh checkout"

let test_annotate_projection_random () =
  (* Property: the annotated lines always reconstruct the head content,
     and every annotation references an existing revision. *)
  let rng = Crypto.Prng.create ~seed:"annotate-prop" in
  for _ = 1 to 150 do
    let h = ref H.empty in
    let revisions = 1 + Crypto.Prng.int rng 8 in
    for i = 1 to revisions do
      let lines =
        List.init (Crypto.Prng.int rng 12) (fun j ->
            Printf.sprintf "%c%d" "abc".[Crypto.Prng.int rng 3] (j mod 3))
      in
      h := commit !h ~author:i (String.concat "\n" lines)
    done;
    let annotated = H.annotate !h in
    Alcotest.(check string) "projection = head"
      (H.head_content !h)
      (String.concat "\n" (List.map fst annotated));
    List.iter
      (fun (_, rev) ->
        if rev < 1 || rev > H.head_revision !h then
          Alcotest.failf "annotation references revision %d" rev)
      annotated
  done

(* ---- against a protocol session ------------------------------------------- *)

let test_repo_protocol_equivalence () =
  (* The same commits through a Protocol II session against an honest
     server, and folded into plain File_history values, must agree on
     every file's contents and revision count: the session stores
     exactly the histories a local fold builds. Commit rounds differ
     (the session's server stamps simulation rounds), so raw digests
     are not compared. *)
  let commits =
    [ ("a.ml", "v1", "one"); ("b.ml", "w1", "two"); ("a.ml", "v2", "three") ]
  in
  let engine = Sim.Engine.create () in
  let trace = Sim.Trace.create () in
  let server =
    Tcvs.Server.on_engine engine
      (Tcvs.Server.create
         { Tcvs.Server.mode = `Plain; epoch_len = None; adversary = Tcvs.Adversary.Honest }
         ~db:(Store.Shard_db.create ~branching:8 ~shards:1 []))
  in
  let config =
    Tcvs.Protocol2.default_config ~n:1 ~k:50
      ~initial_root:(Tcvs.Server.initial_root server)
  in
  let session =
    Tcvs.Cvs.session ~engine
      ~base:
        (Tcvs.Protocol2.base
           (Tcvs.User_base.on_engine engine ~user:0 ~agent:Tcvs.Protocol2.agent
              (Tcvs.Protocol2.create config ~user:0 ~trace)))
  in
  List.iter
    (fun (path, content, log) ->
      match Tcvs.Cvs.commit session ~path ~content ~log with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "session commit failed: %a" Tcvs.Cvs.pp_error e)
    commits;
  let folded path =
    List.fold_left
      (fun h (p, content, log) -> if p = path then commit h ~log content else h)
      H.empty commits
  in
  List.iter
    (fun path ->
      match Tcvs.Cvs.checkout session ~path with
      | Ok (content, history) ->
          Alcotest.(check string) (path ^ " content agrees") (H.head_content (folded path))
            content;
          Alcotest.(check int)
            (path ^ " revision agrees")
            (H.head_revision (folded path))
            (H.head_revision history)
      | Error e -> Alcotest.failf "session checkout failed: %a" Tcvs.Cvs.pp_error e)
    [ "a.ml"; "b.ml" ]

let suite =
  let quick name f = Alcotest.test_case name `Quick f in
  [
    quick "history: empty" test_empty_history;
    quick "history: commit chain" test_commit_chain;
    quick "history: log entries" test_log_entries;
    quick "history: annotate" test_annotate;
    quick "history: encode/decode roundtrip" test_history_encode_decode;
    quick "history: decode garbage" test_history_decode_garbage;
    quick "history: decode rejects bad numbering" test_history_decode_rejects_bad_numbering;
    quick "workspace: checkout/edit/status" test_workspace_checkout_edit_status;
    quick "workspace: edit unknown raises" test_workspace_edit_unknown_raises;
    quick "workspace: clean merge on update" test_workspace_update_clean_merge;
    quick "workspace: conflicting update" test_workspace_update_conflict;
    quick "workspace: fast-forward" test_workspace_update_no_local_edits;
    quick "workspace: update before checkout" test_workspace_update_unknown_path_checks_out;
    quick "history: annotate projection (random)" test_annotate_projection_random;
    quick "repo: agrees with a protocol session" test_repo_protocol_equivalence;
  ]
