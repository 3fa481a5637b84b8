(* Experiment harness: regenerates every table and figure of "Trusted
   CVS" (ICDE 2006) plus the quantitative experiments behind its
   analytical claims, as indexed in DESIGN.md / EXPERIMENTS.md.

     dune exec bench/main.exe              run everything
     dune exec bench/main.exe -- --list    list experiment ids
     dune exec bench/main.exe -- -e fig2-merkle-path -e sig-schemes

   The paper has no measurement tables; its artefacts are one notation
   table, four explanatory figures and three theorems. Each experiment
   below regenerates the corresponding artefact as data: the attack
   scenarios run against the real protocols, the complexity claims are
   measured, and the theorem bounds are checked across sweeps. *)

open Tcvs
module S = Workload.Schedule
module T = Mtree.Merkle_btree
module Vo = Mtree.Vo

let header title =
  Printf.printf "\n================ %s ================\n" title

let row fmt = Printf.printf fmt

(* ---- Bechamel helper: nanoseconds per run of a thunk ------------------ *)

let measure_ns ?(quota = 0.25) name f =
  let open Bechamel in
  let test = Test.make ~name (Staged.stage f) in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None ~stabilize:false ()
  in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] test in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun _ v acc ->
      match Analyze.OLS.estimates v with Some (e :: _) -> e | _ -> acc)
    results nan

let pp_ns ns =
  if ns >= 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%8.2f µs" (ns /. 1e3)
  else Printf.sprintf "%8.0f ns" ns

(* ---- common workload helpers ------------------------------------------ *)

let workload ?(users = 4) ?(rounds = 600) seed =
  S.generate
    {
      S.default_profile with
      S.users;
      files = 24;
      mean_think = 4.0;
      offline_probability = 0.02;
      mean_offline = 30.0;
    }
    ~seed ~rounds

let run ?(users = 4) protocol adversary events =
  Harness.run (Harness.default_setup ~protocol ~users ~adversary) ~events

let verdict (o : Harness.outcome) =
  if o.detected then
    Printf.sprintf "DETECTED @r%d (%d ops after violation)"
      (Option.value o.detection_round ~default:(-1))
      o.ops_after_violation
  else "missed"

(* ======================================================================= *)
(* Table 1: notation, realised as concrete wire messages                   *)
(* ======================================================================= *)

let tab1_notation () =
  header "tab1-notation: Table 1 realised as wire messages";
  let db = T.of_alist ~branching:8 (List.init 1024 (fun i -> (Printf.sprintf "f%04d" i, "v"))) in
  let op = Vo.Get "f0512" in
  let vo = Vo.generate db op in
  let answer = Vo.Value (T.find db "f0512") in
  row "paper notation        -> implementation                  size (bytes)\n";
  row "Q(D)                  -> Message.Response.answer         %d\n"
    (match answer with Vo.Value (Some v) -> 2 + String.length v | _ -> 2);
  row "v(Q, D)               -> Message.Response.vo             %d  (%d pruned digests, %d nodes)\n"
    (Vo.size_bytes vo) (Vo.stub_count vo) (Vo.materialized_nodes vo);
  row "ctr                   -> Message.Response.ctr            8\n";
  row "j                     -> Message.Response.last_user      8\n";
  row "sig_j(h(M(D)‖ctr))    -> Message.Response.root_sig       32 (hmac) / 64 (rsa-512)\n";
  let full_response =
    Message.Response
      { answer; vo; ctr = 42; last_user = 1; root_sig = Some (String.make 64 's');
        epoch = 0; epoch_states = [] }
  in
  row "full response Φ = (Q(D), v(Q,D), ctr, j, sig)            %d\n"
    (Message.encoded_size full_response);
  row "database: 1024 items, branching 8, depth %d\n" (T.depth db)

(* ======================================================================= *)
(* Figure 2 / Section 4.1: Merkle path and O(log n) verification objects   *)
(* ======================================================================= *)

let fig2_merkle_path () =
  header "fig2-merkle-path: VO size vs database size (O(log n) claim)";
  row "%-10s %-6s %-7s %-12s %-12s %-10s\n" "|D|" "m" "depth" "VO digests" "VO bytes" "log_m |D|";
  List.iter
    (fun branching ->
      List.iter
        (fun log2_n ->
          let n = 1 lsl log2_n in
          let db =
            T.of_alist ~branching
              (List.init n (fun i -> (Printf.sprintf "k%06d" i, String.make 16 'v')))
          in
          let vo = Vo.generate db (Vo.Get (Printf.sprintf "k%06d" (n / 2))) in
          row "%-10d %-6d %-7d %-12d %-12d %-10.1f\n" n branching (T.depth db)
            (Vo.stub_count vo) (Vo.size_bytes vo)
            (float_of_int log2_n /. (log (float_of_int branching) /. log 2.)))
        [ 6; 10; 14; 17 ])
    [ 4; 16; 64 ];
  row "\n(VO digest count grows with depth = log_m |D|, not with |D|.)\n"

(* ======================================================================= *)
(* Section 4.1 complexity: Merkle B+-tree operation costs                  *)
(* ======================================================================= *)

let mtree_ops () =
  header "mtree-ops: Merkle B+-tree operation cost vs |D| (branching 16)";
  row "%-10s %-12s %-12s %-12s %-12s %-12s\n" "|D|" "get" "set" "remove" "vo-generate"
    "vo-replay";
  List.iter
    (fun log2_n ->
      let n = 1 lsl log2_n in
      let db =
        T.of_alist ~branching:16
          (List.init n (fun i -> (Printf.sprintf "k%06d" i, String.make 16 'v')))
      in
      let key = Printf.sprintf "k%06d" (n / 2) in
      let get_ns = measure_ns "get" (fun () -> ignore (T.find db key)) in
      let set_ns = measure_ns "set" (fun () -> ignore (T.set db ~key ~value:"new")) in
      let rm_ns = measure_ns "remove" (fun () -> ignore (T.remove db key)) in
      let vo = Vo.generate db (Vo.Set (key, "new")) in
      let vog_ns =
        measure_ns "vogen" (fun () -> ignore (Vo.generate db (Vo.Set (key, "new"))))
      in
      let vor_ns = measure_ns "voreplay" (fun () -> ignore (Vo.apply vo (Vo.Set (key, "new")))) in
      row "%-10d %s %s %s %s %s\n" n (pp_ns get_ns) (pp_ns set_ns) (pp_ns rm_ns) (pp_ns vog_ns)
        (pp_ns vor_ns))
    [ 8; 12; 16; 18 ]

(* ======================================================================= *)
(* PKI assumption: signature scheme costs                                  *)
(* ======================================================================= *)

let sig_schemes () =
  header "sig-schemes: signature cost (message = 32-byte digest)";
  let rng = Crypto.Prng.create ~seed:"bench-sig" in
  let digest = Crypto.Sha256.digest "state" in
  row "%-16s %-12s %-12s %-12s %-10s\n" "scheme" "keygen" "sign" "verify" "sig bytes";
  List.iter
    (fun scheme ->
      let keygen_ns =
        measure_ns ~quota:0.4 "keygen" (fun () -> ignore (Pki.Signer.generate scheme rng))
      in
      let signer = ref (fst (Pki.Signer.generate scheme rng)) in
      let verifier = ref (snd (Pki.Signer.generate scheme rng)) in
      let fresh () =
        let s, v = Pki.Signer.generate scheme rng in
        signer := s;
        verifier := v
      in
      fresh ();
      let sign_ns =
        measure_ns "sign" (fun () ->
            match Pki.Signer.sign !signer digest with
            | (_ : string) -> ()
            | exception Hashsig.Mss.Keys_exhausted -> fresh ())
      in
      fresh ();
      let signature = Pki.Signer.sign !signer digest in
      let verify_ns =
        measure_ns "verify" (fun () -> ignore (Pki.Signer.verify !verifier digest ~signature))
      in
      row "%-16s %s %s %s %-10d\n" (Pki.Signer.scheme_name scheme) (pp_ns keygen_ns)
        (pp_ns sign_ns) (pp_ns verify_ns)
        (Pki.Signer.signature_size scheme))
    [
      Pki.Signer.Hmac_shared { key = "k" };
      Pki.Signer.Rsa { bits = 512 };
      Pki.Signer.Rsa { bits = 1024 };
      Pki.Signer.Mss { height = 6; w = 16 };
      Pki.Signer.Mss { height = 6; w = 64 };
    ];
  (* One-time schemes, outside the Signer interface. *)
  let rng = Crypto.Prng.create ~seed:"bench-ots" in
  let lam_sk, lam_pk = Hashsig.Lamport.generate rng in
  let lam_sig = Hashsig.Lamport.sign lam_sk digest in
  row "%-16s %s %s %s %-10d  (one-time)\n" "lamport"
    (pp_ns (measure_ns "lkg" (fun () -> ignore (Hashsig.Lamport.generate rng))))
    (pp_ns (measure_ns "lsig" (fun () -> ignore (Hashsig.Lamport.sign lam_sk digest))))
    (pp_ns
       (measure_ns "lver" (fun () ->
            ignore (Hashsig.Lamport.verify lam_pk digest ~signature:lam_sig))))
    Hashsig.Lamport.signature_size;
  List.iter
    (fun w ->
      let p = Hashsig.Winternitz.params ~w in
      let sk, pk = Hashsig.Winternitz.generate p rng in
      let s = Hashsig.Winternitz.sign sk digest in
      row "%-16s %s %s %s %-10d  (one-time)\n"
        (Printf.sprintf "wots-w%d" w)
        (pp_ns (measure_ns "wkg" (fun () -> ignore (Hashsig.Winternitz.generate p rng))))
        (pp_ns (measure_ns "wsig" (fun () -> ignore (Hashsig.Winternitz.sign sk digest))))
        (pp_ns
           (measure_ns "wver" (fun () ->
                ignore (Hashsig.Winternitz.verify pk digest ~signature:s))))
        (Hashsig.Winternitz.signature_size p))
    [ 4; 16; 256 ]

(* ======================================================================= *)
(* Figure 1 / Theorem 3.1: the partition attack                            *)
(* ======================================================================= *)

let fig1_partition () =
  header "fig1-partition: partition attack vs k (2 users, fork hides t1)";
  row "%-28s %-4s %-10s %s\n" "protocol" "k" "oracle" "detection";
  List.iter
    (fun k ->
      let schedule =
        S.partitionable
          { S.group_a = [ 0 ]; group_b = [ 1 ]; shared_file = 7; k; private_files = 16 }
          ~seed:"fig1"
      in
      let fork_at = List.length (S.events_for_user schedule ~user:0) - 1 in
      let adversary = Adversary.Fork { at_op = fork_at; group_a = [ 0 ] } in
      List.iter
        (fun protocol ->
          let o = run ~users:2 protocol adversary schedule in
          row "%-28s %-4d %-10s %s\n" (Harness.protocol_name protocol) k
            (if o.oracle.Sim.Oracle.deviated then "deviates" else "-")
            (verdict o))
        [
          Harness.Unverified;
          Harness.Protocol_1 { k };
          Harness.Protocol_2 { k; tag_mode = `Tagged; check_gctr = true; sync_trigger = `Per_user };
        ])
    [ 2; 8; 32 ];
  row "\n(Theorem 3.1: without external communication the fork is invisible;\n\
      \ with the broadcast channel both protocols catch it within k.)\n"

(* ======================================================================= *)
(* Figure 3: the replay attack and the tagging fix                         *)
(* ======================================================================= *)

let fig3_replay () =
  header "fig3-replay: state replay vs register tagging";
  let script =
    let set r u k v = { Harness.at = r; by = u; what = Vo.Set (k, v) } in
    [
      set 1 0 "a" "v"; set 3 0 "b" "v"; set 5 0 "c" "v"; set 7 0 "d" "v";
      set 9 1 "shared" "x"; set 11 2 "shared" "x"; set 13 3 "shared" "x";
      set 15 0 "e" "v"; set 17 1 "f" "v"; set 19 0 "g" "v"; set 21 0 "h" "v";
      set 23 0 "i" "v";
    ]
  in
  row "%-44s %s\n" "variant" "outcome";
  List.iter
    (fun (name, tag_mode) ->
      let o =
        Harness.run_script
          (Harness.default_setup
             ~protocol:(Harness.Protocol_2 { k = 3; tag_mode; check_gctr = true; sync_trigger = `Per_user })
             ~users:4
             ~adversary:(Adversary.Rollback { at_op = 5; depth = 1; repeat = 2 }))
          ~script
      in
      row "%-44s %s\n" name (verdict o))
    [
      ("h(M(D)‖ctr) untagged (first design)", `Untagged);
      ("h(M(D)‖ctr‖j) user-tagged (the paper's fix)", `Tagged);
    ];
  (* The abstract graph view. *)
  let untagged_graph =
    List.fold_left
      (fun g (a, b) -> Wgraph.Digraph.add_edge g ~src:a ~dst:b)
      Wgraph.Digraph.empty
      [ ("s0", "s1"); ("s1", "s2"); ("s2", "s3"); ("s2", "s3"); ("s2", "s3"); ("s3", "s4") ]
  in
  let odd =
    List.length
      (List.filter
         (fun v -> Wgraph.Digraph.total_degree untagged_graph v mod 2 = 1)
         (Wgraph.Digraph.vertices untagged_graph))
  in
  row "\nuntagged multigraph: %d odd-degree vertices (XOR parity check %s), directed path: %b\n"
    odd
    (if odd = 2 then "PASSES" else "fails")
    (Wgraph.Digraph.is_directed_path untagged_graph)

(* ======================================================================= *)
(* Figure 4 / Theorem 4.3: epochs                                          *)
(* ======================================================================= *)

let epoch_schedule ~users ~epochs ~epoch_len =
  List.concat
    (List.init epochs (fun e ->
         List.concat
           (List.init users (fun u ->
                [
                  { S.round = (e * epoch_len) + (u * 11) + 3; user = u; intent = S.Write u };
                  {
                    S.round = (e * epoch_len) + (u * 11) + 8;
                    user = u;
                    intent = S.Write (u + users);
                  };
                ]))))

let fig4_epochs () =
  header "fig4-epochs: Protocol III detection within two epochs (Theorem 4.3)";
  row "%-6s %-6s %-14s %-14s %-12s\n" "t" "users" "fault epoch" "detect epoch" "bound ok";
  List.iter
    (fun epoch_len ->
      List.iter
        (fun users ->
          let events = epoch_schedule ~users ~epochs:8 ~epoch_len in
          (* Fault at the start of epoch 2 (2 ops per user per epoch). *)
          let at_op = 2 * 2 * users in
          let setup =
            {
              (Harness.default_setup ~protocol:(Harness.Protocol_3 { epoch_len }) ~users
                 ~adversary:(Adversary.Fork { at_op; group_a = [ 0 ] }))
              with
              Harness.tail_rounds = 4 * epoch_len;
            }
          in
          let o = Harness.run setup ~events in
          match (o.violation_round, o.detection_round) with
          | Some v, Some d ->
              row "%-6d %-6d %-14d %-14d %-12b\n" epoch_len users (v / epoch_len)
                (d / epoch_len)
                ((d / epoch_len) - (v / epoch_len) <= 2)
          | _ -> row "%-6d %-6d %-14s %-14s %-12s\n" epoch_len users "-" "none" "MISSED")
        [ 2; 4; 8 ])
    [ 60; 100; 160 ];
  row "\n(external communication used by Protocol III: 0 messages in all rows)\n"

(* ======================================================================= *)
(* Theorems 4.1 / 4.2: k-bounded deviation detection                       *)
(* ======================================================================= *)

let detection_matrix name mk_protocol =
  header name;
  row "%-18s %-4s %-22s %-10s %-16s %-8s\n" "protocol" "k" "adversary" "oracle" "detection"
    "<= k?";
  let events = workload ~rounds:800 "thm-detect" in
  List.iter
    (fun k ->
      List.iter
        (fun adversary ->
          let protocol = mk_protocol k in
          let (_ : Harness.outcome) = run protocol adversary events in
          (* Verdict read back from the run's obs registry. *)
          let detected = Obs.value "detection.detected" > 0 in
          row "%-18s %-4d %-22s %-10s %-16s %-8b\n"
            (Harness.protocol_name protocol)
            k (Adversary.name adversary)
            (if Obs.value "oracle.deviates" > 0 then "deviates" else "-")
            (if detected then Printf.sprintf "round %d" (Obs.value "detection.round")
             else "MISSED")
            (detected && Obs.value "detection.ops_after_violation" <= k))
        [
          Adversary.Tamper_value { at_op = 15 };
          Adversary.Drop_update { at_op = 15 };
          Adversary.Fork { at_op = 15; group_a = [ 0; 1 ] };
          Adversary.Rollback { at_op = 18; depth = 5; repeat = 1 };
        ])
    [ 4; 16; 64 ]

let thm41_detection () =
  detection_matrix "thm41-detection: Protocol I k-bounded detection" (fun k ->
      Harness.Protocol_1 { k })

let thm42_detection () =
  detection_matrix "thm42-detection: Protocol II k-bounded detection" (fun k ->
      Harness.Protocol_2 { k; tag_mode = `Tagged; check_gctr = true; sync_trigger = `Per_user })

let thm43_detection () =
  header "thm43-detection: Protocol III time-bounded detection";
  row "%-6s %-22s %-14s %-14s %-10s\n" "t" "adversary" "fault epoch" "detect epoch"
    "<= 2 epochs?";
  List.iter
    (fun epoch_len ->
      List.iter
        (fun adversary ->
          let events = epoch_schedule ~users:4 ~epochs:8 ~epoch_len in
          let setup =
            {
              (Harness.default_setup ~protocol:(Harness.Protocol_3 { epoch_len }) ~users:4
                 ~adversary)
              with
              Harness.tail_rounds = 4 * epoch_len;
            }
          in
          let (_ : Harness.outcome) = Harness.run setup ~events in
          let v = Obs.value "detection.violation_round" in
          let d = Obs.value "detection.round" in
          if Obs.value "detection.detected" > 0 && v > 0 then
            row "%-6d %-22s %-14d %-14d %-10b\n" epoch_len (Adversary.name adversary)
              (v / epoch_len) (d / epoch_len)
              ((d / epoch_len) - (v / epoch_len) <= 2)
          else
            row "%-6d %-22s %-14s %-14s %-10s\n" epoch_len (Adversary.name adversary) "-"
              "none" "MISSED")
        [
          Adversary.Tamper_value { at_op = 18 };
          Adversary.Drop_update { at_op = 18 };
          Adversary.Fork { at_op = 18; group_a = [ 0; 1 ] };
        ])
    [ 60; 100; 160 ]

(* ======================================================================= *)
(* Section 2.2.3: the token baseline's workload-preservation failure       *)
(* ======================================================================= *)

let wp_baseline () =
  header "wp-baseline: latency of a 3-op burst by one user vs number of users";
  row "%-8s %-22s %-22s %-22s\n" "users" "token max-latency" "protocol-1 max-lat"
    "protocol-2 max-lat";
  let burst =
    [
      { S.round = 1; user = 0; intent = S.Write 1 };
      { S.round = 2; user = 0; intent = S.Write 2 };
      { S.round = 3; user = 0; intent = S.Write 3 };
    ]
  in
  List.iter
    (fun users ->
      (* Each Harness.run resets the registry, so the latency histogram
         must be read back before the next protocol's run. *)
      let max_latency protocol =
        let (_ : Harness.outcome) = run ~users protocol Adversary.Honest burst in
        match Obs.stats "run.latency_rounds" with Some (_, _, _, mx) -> mx | None -> 0
      in
      let token = max_latency (Harness.Token_baseline { slot_len = 4 }) in
      let p1 = max_latency (Harness.Protocol_1 { k = 100 }) in
      let p2 =
        max_latency
          (Harness.Protocol_2
             { k = 100; tag_mode = `Tagged; check_gctr = true; sync_trigger = `Per_user })
      in
      row "%-8d %-22d %-22d %-22d\n" users token p1 p2)
    [ 2; 4; 8; 16; 32; 64 ];
  row "\n(token latency grows linearly with n — the user waits for a full\n\
      \ rotation of null records; Protocols I/II stay constant: c-workload\n\
      \ preservation.)\n"

(* ======================================================================= *)
(* Desideratum 3: per-operation overhead of each protocol                  *)
(* ======================================================================= *)

let overhead_ops () =
  header "overhead-ops: honest-run cost per operation (4 users, 600-round workload)";
  row "%-24s %-8s %-10s %-12s %-12s %-10s %-10s\n" "protocol" "ops" "rounds" "msgs/op"
    "bytes/op" "hashes/op" "broadcasts";
  let events = workload "overhead" in
  List.iter
    (fun protocol ->
      (* The headline numbers come out of the obs registry the run just
         populated, not from ad-hoc arithmetic over the outcome record. *)
      let o = run protocol Adversary.Honest events in
      let ops = max 1 (Obs.value "run.ops_completed") in
      row "%-24s %-8d %-10d %-12.2f %-12.0f %-10.1f %-10d\n"
        (Harness.protocol_name protocol) ops o.rounds_run
        (Option.value (Obs.gauge_value "run.messages_per_op")
           ~default:(float_of_int (Obs.value "sim.messages") /. float_of_int ops))
        (Option.value (Obs.gauge_value "run.bytes_per_op")
           ~default:(float_of_int (Obs.value "sim.bytes") /. float_of_int ops))
        (float_of_int (Obs.value "crypto.sha256.digests") /. float_of_int ops)
        (Obs.value "sim.broadcast_deliveries"))
    [
      Harness.Unverified;
      Harness.Protocol_1 { k = 16 };
      Harness.Protocol_2 { k = 16; tag_mode = `Tagged; check_gctr = true; sync_trigger = `Per_user };
      Harness.Protocol_3 { epoch_len = 120 };
    ];
  (* Client-side CPU: what verification actually costs per op. *)
  let db = T.of_alist ~branching:8 (Harness.initial_files 1024) in
  let op = Vo.Set (Harness.file_key 500, "new content") in
  let vo = Vo.generate db op in
  let rng = Crypto.Prng.create ~seed:"overhead" in
  let signer, _ = Pki.Signer.generate (Pki.Signer.Rsa { bits = 512 }) rng in
  row "\nclient CPU per op: VO replay %s;  + RSA-512 root signature %s (protocol 1 only)\n"
    (pp_ns (measure_ns "replay" (fun () -> ignore (Vo.apply vo op))))
    (pp_ns (measure_ns "sign" (fun () -> ignore (Pki.Signer.sign signer "digest"))))

(* ======================================================================= *)
(* Sync cost vs n and k                                                    *)
(* ======================================================================= *)

let sync_cost () =
  header "sync-cost: external-communication cost of synchronisation (protocol 2)";
  row "%-8s %-4s %-12s %-14s %-14s\n" "users" "k" "syncs" "broadcasts" "bcasts/sync";
  List.iter
    (fun users ->
      List.iter
        (fun k ->
          let events = workload ~users ~rounds:400 (Printf.sprintf "sync-%d-%d" users k) in
          let (_ : Harness.outcome) =
            run ~users
              (Harness.Protocol_2 { k; tag_mode = `Tagged; check_gctr = true; sync_trigger = `Per_user })
              Adversary.Honest events
          in
          (* Both the session count and the broadcast-delivery count are
             measured by the run itself (protocol2.syncs_completed is the
             per-user max; sessions are shared), so the row no longer
             depends on a hand-derived per-sync formula. *)
          let syncs = Obs.value "protocol2.syncs_completed" in
          let broadcasts = Obs.value "sim.broadcast_deliveries" in
          row "%-8d %-4d %-12d %-14d %-14d\n" users k syncs broadcasts
            (if syncs > 0 then broadcasts / syncs else 0))
        [ 4; 16; 64 ])
    [ 2; 4; 8; 16 ];
  row "\n(sync frequency falls as k grows; one sync costs Theta(n^2) broadcast\n\
      \ deliveries — the scaling pain that motivates Protocol III.)\n"

(* ======================================================================= *)
(* Protocol III detection latency vs activity rate                          *)
(* ======================================================================= *)

let detect_latency_time () =
  header "detect-latency-time: Protocol III delay (rounds) vs user activity";
  row "%-18s %-14s %-16s %-14s\n" "ops/user/epoch" "fault round" "detect round"
    "delay (epochs)";
  let epoch_len = 120 in
  List.iter
    (fun ops_per_epoch ->
      let events =
        List.concat
          (List.init 8 (fun e ->
               List.concat
                 (List.init 4 (fun u ->
                      List.init ops_per_epoch (fun j ->
                          {
                            S.round = (e * epoch_len) + (u * 4) + (j * 17) + 3;
                            user = u;
                            intent = S.Write ((u * ops_per_epoch) + j);
                          })))))
      in
      let setup =
        {
          (Harness.default_setup ~protocol:(Harness.Protocol_3 { epoch_len }) ~users:4
             ~adversary:(Adversary.Tamper_value { at_op = 40 }))
          with
          Harness.tail_rounds = 4 * epoch_len;
        }
      in
      let o = Harness.run setup ~events in
      match (o.violation_round, o.detection_round) with
      | Some v, Some d ->
          row "%-18d %-14d %-16d %-14d\n" ops_per_epoch v d ((d - v) / epoch_len)
      | _ -> row "%-18d %-14s %-16s %-14s\n" ops_per_epoch "-" "none" "MISSED")
    [ 2; 4; 7 ]

(* ======================================================================= *)
(* Ablations                                                               *)
(* ======================================================================= *)

let abl_gctr () =
  header "abl-gctr: the ctr monotonicity check (Protocol II step 4)";
  row "%-14s %-26s %s\n" "check_gctr" "adversary" "outcome";
  let events = workload "abl-gctr" in
  List.iter
    (fun check_gctr ->
      List.iter
        (fun adversary ->
          let o =
            run
              (Harness.Protocol_2 { k = 8; tag_mode = `Tagged; check_gctr; sync_trigger = `Per_user })
              adversary events
          in
          row "%-14b %-26s %s\n" check_gctr (Adversary.name adversary) (verdict o))
        [
          Adversary.Rollback { at_op = 12; depth = 6; repeat = 1 };
          Adversary.Drop_update { at_op = 12 };
        ])
    [ true; false ];
  row "\n(the check converts rollbacks served to a recent user from sync-time\n\
      \ detection into immediate detection)\n"

let abl_branching () =
  header "abl-branching: Merkle tree branching factor trade-off (|D| = 4096)";
  row "%-6s %-7s %-12s %-12s %-12s %-12s\n" "m" "depth" "VO bytes" "VO digests" "set cost"
    "replay cost";
  List.iter
    (fun branching ->
      let db =
        T.of_alist ~branching
          (List.init 4096 (fun i -> (Printf.sprintf "k%05d" i, String.make 16 'v')))
      in
      let key = "k02048" in
      let op = Vo.Set (key, "new") in
      let vo = Vo.generate db op in
      row "%-6d %-7d %-12d %-12d %s %s\n" branching (T.depth db) (Vo.size_bytes vo)
        (Vo.stub_count vo)
        (pp_ns (measure_ns "set" (fun () -> ignore (T.set db ~key ~value:"new"))))
        (pp_ns (measure_ns "replay" (fun () -> ignore (Vo.apply vo op)))))
    [ 4; 8; 16; 32; 64; 128 ]

let abl_hash_trunc () =
  header "abl-hash-trunc: digest truncation vs VO size and collision budget";
  row "%-14s %-14s %-30s\n" "digest bytes" "VO bytes" "collision prob (2^30 states)";
  let db =
    T.of_alist ~branching:16
      (List.init 65536 (fun i -> (Printf.sprintf "k%06d" i, String.make 16 'v')))
  in
  let vo = Vo.generate db (Vo.Get "k032768") in
  let full = Vo.size_bytes vo and stubs = Vo.stub_count vo in
  List.iter
    (fun trunc ->
      let size = full - (stubs * (32 - trunc)) in
      (* Birthday bound over q = 2^30 observed states. *)
      let log2_prob = (2. *. 30.) -. float_of_int ((8 * trunc) + 1) in
      row "%-14d %-14d 2^%.0f\n" trunc size log2_prob)
    [ 8; 16; 24; 32 ];
  row "\n(16-byte digests would nearly halve VO size but leave only a 2^-69\n\
      \ margin; the implementation ships 32 bytes.)\n"

(* ======================================================================= *)
(* Extensions (the paper's future directions, Section 6)                   *)
(* ======================================================================= *)

let ext_avail () =
  header "ext-avail: stalled transactions vs the b*-timeout (availability)";
  row "%-24s %-10s %s\n" "protocol" "timeout" "outcome";
  let events = workload "ext-avail" in
  List.iter
    (fun (protocol, timeout) ->
      let setup =
        {
          (Harness.default_setup ~protocol ~users:4
             ~adversary:(Adversary.Stall { at_op = 10 }))
          with
          Harness.response_timeout = timeout;
        }
      in
      let o = Harness.run setup ~events in
      row "%-24s %-10s %s\n" (Harness.protocol_name protocol)
        (match timeout with None -> "off" | Some t -> Printf.sprintf "%d" t)
        (verdict o))
    [
      (Harness.Protocol_2 { k = 8; tag_mode = `Tagged; check_gctr = true; sync_trigger = `Per_user }, None);
      (Harness.Protocol_2 { k = 8; tag_mode = `Tagged; check_gctr = true; sync_trigger = `Per_user }, Some 64);
      (Harness.Protocol_1 { k = 8 }, Some 64);
      (Harness.Protocol_3 { epoch_len = 120 }, Some 64);
      (Harness.Unverified, Some 64);
    ];
  row "\n(a pure stall is invisible to the bare protocols — the paper excludes\n\
      \ failures — but the model's b*-bounded transaction time makes a local\n\
      \ timeout a sound availability detector, even for unverified users.)\n"

let ext_batch () =
  header "ext-batch: atomic multi-key commits (Vo.Set_many) vs one-by-one";
  row "%-8s %-18s %-18s %-12s\n" "files" "batched VO bytes" "separate VO bytes" "saving";
  let db =
    T.of_alist ~branching:16
      (List.init 16384 (fun i -> (Printf.sprintf "k%06d" i, String.make 24 'v')))
  in
  List.iter
    (fun n ->
      let entries =
        List.init n (fun i -> (Printf.sprintf "k%06d" ((i * 977) mod 16384), "new"))
      in
      let batched = Vo.size_bytes (Vo.generate db (Vo.Set_many entries)) in
      let separate =
        List.fold_left
          (fun acc (k, v) -> acc + Vo.size_bytes (Vo.generate db (Vo.Set (k, v))))
          0 entries
      in
      row "%-8d %-18d %-18d %.0f%%\n" n batched separate
        (100. *. (1. -. (float_of_int batched /. float_of_int (max 1 separate)))))
    [ 1; 2; 4; 8; 16; 32 ];
  row "\n(shared upper tree levels are proved once per batch; the protocol also\n\
      \ counts the whole commit as one operation — one counter increment, one\n\
      \ register update — so k-bounded detection is measured in commits.)\n"

let ext_global_k () =
  header "ext-global-k: per-user vs global sync trigger (section 2.2.1's stronger bound)";
  row "%-14s %-4s %-22s %-12s %-12s %-10s\n" "trigger" "k" "adversary" "max/user" "total ops"
    "broadcasts";
  let events = workload ~users:4 ~rounds:800 "ext-global" in
  List.iter
    (fun k ->
      List.iter
        (fun (name, sync_trigger) ->
          let o =
            run
              (Harness.Protocol_2
                 { k; tag_mode = `Tagged; check_gctr = true; sync_trigger })
              (Adversary.Fork { at_op = 15; group_a = [ 0; 1 ] })
              events
          in
          row "%-14s %-4d %-22s %-12d %-12d %-10d\n" name k "fork@15"
            o.Harness.ops_after_violation o.Harness.total_ops_after_violation
            o.Harness.broadcasts_sent)
        [ ("per-user", `Per_user); ("global", `Global) ])
    [ 4; 16 ];
  row
    "\n(the global trigger bounds total post-violation operations by ~k per\n\
    \ branch of the fork — <= 2k here, vs up to n*k for the per-user\n\
    \ trigger — at the cost of more frequent syncs. No local trigger can\n\
    \ do better: a forking server shows each branch its own counter.)\n"

(* ======================================================================= *)
(* proto-compare: four-protocol sweep (writes BENCH_protocols.json)        *)
(* ======================================================================= *)

(* Set by `--smoke`: tiny sizes and quota so CI can keep the harness
   from bit-rotting without paying for a full run. *)
let smoke_mode = ref false

let proto_compare_protocols =
  [
    ("protocol-1", Harness.Protocol_1 { k = 8 });
    ( "protocol-2",
      Harness.Protocol_2
        { k = 8; tag_mode = `Tagged; check_gctr = true; sync_trigger = `Per_user } );
    ("protocol-3", Harness.Protocol_3 { epoch_len = 120 });
    ("protocol-4", Harness.Protocol_4 { announce_every = 4 });
  ]

let proto_compare () =
  header "proto-compare: four-protocol comparison (tracked, BENCH_protocols.json)";
  let smoke = !smoke_mode in
  let disjoint seed =
    S.disjoint_writers { S.default_disjoint with S.writers = 4; files_each = 8 } ~seed
  in
  let run_sharded protocol adversary events =
    let setup =
      { (Harness.default_setup ~protocol ~users:4 ~adversary) with Harness.shards = Some 2 }
    in
    let o = Harness.run setup ~events in
    (o, Obs.value "run.blocked_rounds")
  in
  (* Leg 1: honest concurrent disjoint writers — the workload class
     Protocol IV exists for. Throughput and blocked rounds show what
     the wait-free design buys; Protocols I–III pay sync sessions /
     epoch audits for traffic that never conflicts. *)
  let seeds = if smoke then [ "pc-1" ] else [ "pc-1"; "pc-2"; "pc-3" ] in
  row "-- honest disjoint writers (2 shards, %d seeds) --\n" (List.length seeds);
  let honest =
    List.map
      (fun (name, protocol) ->
        let outcomes =
          List.map (fun seed -> run_sharded protocol Adversary.Honest (disjoint seed)) seeds
        in
        let sum f = List.fold_left (fun acc (o, b) -> acc + f o b) 0 outcomes in
        let completed = sum (fun o _ -> o.Harness.completed_transactions) in
        let rounds = sum (fun o _ -> o.Harness.rounds_run) in
        let blocked = sum (fun _ b -> b) in
        let messages = sum (fun o _ -> o.Harness.messages_sent) in
        let bytes = sum (fun o _ -> o.Harness.bytes_sent) in
        let lat_sum, lat_n =
          List.fold_left
            (fun acc (o, _) ->
              List.fold_left (fun (s, n) (_, l) -> (s + l, n + 1)) acc o.Harness.latencies)
            (0, 0) outcomes
        in
        let mean_latency = float_of_int lat_sum /. float_of_int (max 1 lat_n) in
        let throughput = float_of_int completed /. float_of_int (max 1 rounds) in
        row "%-12s %4d tx / %5d rounds  %.4f tx/round  blocked %4d  latency %6.2f  msgs %6d\n"
          name completed rounds throughput blocked mean_latency messages;
        (name, (completed, rounds, throughput, blocked, mean_latency, messages, bytes)))
      proto_compare_protocols
  in
  (* Leg 2: detection under the shared Zipf workload — same seed and
     the same four adversaries for every protocol, so the latency
     numbers are directly comparable. *)
  let adversaries =
    [
      ("tamper@10", Adversary.Tamper_value { at_op = 10 });
      ("drop@10", Adversary.Drop_update { at_op = 10 });
      ("fork@10", Adversary.Fork { at_op = 10; group_a = [ 0; 1 ] });
      ("rollback@12x4", Adversary.Rollback { at_op = 12; depth = 4; repeat = 1 });
    ]
  in
  let adv_events = workload ~rounds:(if smoke then 300 else 600) "pc-adv" in
  row "\n-- adversary detection (zipf workload, same seed everywhere) --\n";
  let detection =
    List.map
      (fun (pname, protocol) ->
        let cells =
          List.map
            (fun (aname, adversary) ->
              let o = run protocol adversary adv_events in
              let latency =
                match (o.Harness.violation_round, o.Harness.detection_round) with
                | Some v, Some d -> d - v
                | _ -> -1
              in
              row "%-12s %-14s %s\n" pname aname (verdict o);
              (aname, (o.Harness.detected, latency, o.Harness.ops_after_violation)))
            adversaries
        in
        (pname, cells))
      proto_compare_protocols
  in
  (* Leg 3: the commutativity boundary. A fork separating two users who
     share a shard conflicts and every protocol catches it; a fork along
     the shard boundary only reorders commuting operations — the root
     protocols still see the split root, the wait-free protocol
     provably cannot. *)
  row "\n-- disjoint-writers forks (the commutativity boundary) --\n";
  let boundary =
    List.map
      (fun (pname, protocol) ->
        let conflicting, _ =
          run_sharded protocol
            (Adversary.Fork { at_op = 12; group_a = [ 0 ] })
            (disjoint "pc-fork")
        in
        let aligned, _ =
          run_sharded protocol
            (Adversary.Fork { at_op = 12; group_a = [ 0; 1 ] })
            (disjoint "pc-fork")
        in
        row "%-12s conflicting: %-36s aligned: %s\n" pname (verdict conflicting)
          (verdict aligned);
        (pname, conflicting.Harness.detected, aligned.Harness.detected))
      proto_compare_protocols
  in
  (* Machine-readable comparison for later PRs to track. *)
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "{\n  \"experiment\": \"proto-compare\",\n";
  Printf.bprintf buf "  \"smoke\": %b,\n  \"seeds\": %d,\n" smoke (List.length seeds);
  Printf.bprintf buf "  \"honest_disjoint_writers\": [\n";
  List.iteri
    (fun i (name, (completed, rounds, throughput, blocked, mean_latency, messages, bytes)) ->
      Printf.bprintf buf
        "    { \"protocol\": \"%s\", \"completed\": %d, \"rounds\": %d, \
         \"throughput_tx_per_round\": %.4f, \"blocked_rounds\": %d, \
         \"mean_latency_rounds\": %.2f, \"messages\": %d, \"bytes\": %d }%s\n"
        name completed rounds throughput blocked mean_latency messages bytes
        (if i < List.length honest - 1 then "," else ""))
    honest;
  Printf.bprintf buf "  ],\n  \"detection\": [\n";
  List.iteri
    (fun i (pname, cells) ->
      Printf.bprintf buf "    { \"protocol\": \"%s\", \"cells\": [\n" pname;
      List.iteri
        (fun j (aname, (detected, latency, ops_after)) ->
          Printf.bprintf buf
            "      { \"adversary\": \"%s\", \"detected\": %b, \"latency_rounds\": %d, \
             \"ops_after_violation\": %d }%s\n"
            aname detected latency ops_after
            (if j < List.length cells - 1 then "," else ""))
        cells;
      Printf.bprintf buf "    ] }%s\n" (if i < List.length detection - 1 then "," else ""))
    detection;
  Printf.bprintf buf "  ],\n  \"disjoint_fork_boundary\": [\n";
  List.iteri
    (fun i (pname, conflicting, aligned) ->
      Printf.bprintf buf
        "    { \"protocol\": \"%s\", \"conflicting_fork_detected\": %b, \
         \"shard_aligned_fork_detected\": %b }%s\n"
        pname conflicting aligned
        (if i < List.length boundary - 1 then "," else ""))
    boundary;
  Printf.bprintf buf "  ]\n}\n";
  let path = "BENCH_protocols.json" in
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  row "\nwrote %s\n" path

(* ======================================================================= *)
(* perf-mtree: tracked Merkle hot-path baseline (writes BENCH_mtree.json)  *)
(* ======================================================================= *)

(* Wall-clock best-of-[runs] for macro operations (bulk builds) where
   Bechamel's OLS needs more iterations than a multi-second build
   allows. *)
let time_best ?(runs = 3) f =
  let best = ref infinity in
  for _ = 1 to runs do
    let t0 = Sys.time () in
    ignore (Sys.opaque_identity (f ()));
    let ns = (Sys.time () -. t0) *. 1e9 in
    if ns < !best then best := ns
  done;
  !best

let perf_mtree () =
  header "perf-mtree: Merkle hot-path ns/op (tracked baseline, BENCH_mtree.json)";
  let smoke = !smoke_mode in
  let sizes = if smoke then [ 1024 ] else [ 1024; 16384; 131072 ] in
  let quota = if smoke then 0.02 else 0.25 in
  let branching = 16 and value_bytes = 1024 in
  let results =
    List.map
      (fun n ->
        let bindings =
          List.init n (fun i -> (Printf.sprintf "k%06d" i, String.make value_bytes 'v'))
        in
        let db = T.of_alist ~branching bindings in
        let bdb = Baseline.of_alist ~branching bindings in
        let roots_match = T.root_digest db = Baseline.root_digest bdb in
        if not roots_match then
          row "!! root digest MISMATCH vs seed implementation at n=%d\n" n;
        let key = Printf.sprintf "k%06d" (n / 2) in
        let fresh_value = String.make value_bytes 'n' in
        let m name f = measure_ns ~quota name f in
        let get_ns = m "get" (fun () -> ignore (T.find db key)) in
        let set_ns = m "set" (fun () -> ignore (T.set db ~key ~value:fresh_value)) in
        let remove_ns = m "remove" (fun () -> ignore (T.remove db key)) in
        let vo = Vo.generate db (Vo.Set (key, fresh_value)) in
        let vog_ns =
          m "vo-gen" (fun () -> ignore (Vo.generate db (Vo.Set (key, fresh_value))))
        in
        let vor_ns =
          m "vo-replay" (fun () -> ignore (Vo.apply vo (Vo.Set (key, fresh_value))))
        in
        let batch =
          List.init 16 (fun i ->
              (Printf.sprintf "k%06d" (i * (max 1 (n / 16))), fresh_value))
        in
        let setmany_ns = m "set-many" (fun () -> ignore (T.set_many db batch)) /. 16. in
        (* Exact hash-invocation counts per operation, from the crypto
           layer's own counter — the work the ns/op numbers are made of. *)
        let hashes_of f =
          let before = Obs.value "crypto.sha256.digests" in
          ignore (Sys.opaque_identity (f ()));
          Obs.value "crypto.sha256.digests" - before
        in
        let hashes =
          [
            ("get", hashes_of (fun () -> T.find db key));
            ("set", hashes_of (fun () -> T.set db ~key ~value:fresh_value));
            ("remove", hashes_of (fun () -> T.remove db key));
            ("vo_generate", hashes_of (fun () -> Vo.generate db (Vo.Set (key, fresh_value))));
            ("vo_replay", hashes_of (fun () -> Vo.apply vo (Vo.Set (key, fresh_value))));
          ]
        in
        let base_get_ns = m "base-get" (fun () -> ignore (Baseline.find bdb key)) in
        let base_set_ns =
          m "base-set" (fun () -> ignore (Baseline.set bdb ~key ~value:fresh_value))
        in
        let runs = if smoke then 1 else 3 in
        let bulk_ns = time_best ~runs (fun () -> T.of_alist ~branching bindings) in
        let base_bulk_ns = time_best ~runs (fun () -> Baseline.of_alist ~branching bindings) in
        row "n=%-8d get %s  set %s (seed %s, %4.1fx)  remove %s\n" n (pp_ns get_ns)
          (pp_ns set_ns) (pp_ns base_set_ns) (base_set_ns /. set_ns) (pp_ns remove_ns);
        row "           vo-gen %s  vo-replay %s  set_many/key %s\n" (pp_ns vog_ns)
          (pp_ns vor_ns) (pp_ns setmany_ns);
        row "           bulk-load %s (seed %s, %4.1fx)  roots %s\n" (pp_ns bulk_ns)
          (pp_ns base_bulk_ns) (base_bulk_ns /. bulk_ns)
          (if roots_match then "identical" else "MISMATCH");
        row "           sha256/op:%s\n"
          (String.concat ""
             (List.map (fun (k, c) -> Printf.sprintf "  %s %d" k c) hashes));
        ( n,
          [
            ("get", get_ns); ("set", set_ns); ("remove", remove_ns);
            ("vo_generate", vog_ns); ("vo_replay", vor_ns);
            ("set_many_per_key", setmany_ns);
          ],
          hashes,
          [ ("get", base_get_ns); ("set", base_set_ns) ],
          (bulk_ns, base_bulk_ns),
          roots_match ))
      sizes
  in
  (* Machine-readable trajectory for later PRs to beat. *)
  let buf = Buffer.create 4096 in
  let fld k v = Printf.bprintf buf "      \"%s\": %.1f" k v in
  Printf.bprintf buf "{\n  \"experiment\": \"perf-mtree\",\n";
  Printf.bprintf buf "  \"branching\": %d,\n  \"value_bytes\": %d,\n" branching value_bytes;
  Printf.bprintf buf "  \"quota_s\": %g,\n  \"smoke\": %b,\n  \"results\": [\n" quota smoke;
  List.iteri
    (fun i (n, opt, hashes, base, (bulk_ns, base_bulk_ns), roots_match) ->
      Printf.bprintf buf "    {\n      \"n\": %d,\n" n;
      Printf.bprintf buf "      \"optimized_ns_per_op\": {\n";
      List.iteri
        (fun j (k, v) ->
          Printf.bprintf buf "  ";
          fld k v;
          Printf.bprintf buf (if j < List.length opt - 1 then ",\n" else "\n"))
        opt;
      Printf.bprintf buf "      },\n      \"sha256_digests_per_op\": {\n";
      List.iteri
        (fun j (k, c) ->
          Printf.bprintf buf "        \"%s\": %d%s\n" k c
            (if j < List.length hashes - 1 then "," else ""))
        hashes;
      Printf.bprintf buf "      },\n      \"seed_baseline_ns_per_op\": {\n";
      List.iteri
        (fun j (k, v) ->
          Printf.bprintf buf "  ";
          fld k v;
          Printf.bprintf buf (if j < List.length base - 1 then ",\n" else "\n"))
        base;
      Printf.bprintf buf "      },\n";
      fld "bulk_load_ns" bulk_ns;
      Printf.bprintf buf ",\n";
      fld "seed_bulk_load_ns" base_bulk_ns;
      Printf.bprintf buf ",\n";
      fld "set_speedup" (List.assoc "set" base /. List.assoc "set" opt);
      Printf.bprintf buf ",\n";
      fld "bulk_load_speedup" (base_bulk_ns /. bulk_ns);
      Printf.bprintf buf ",\n      \"root_digest_match\": %b\n    }%s\n" roots_match
        (if i < List.length results - 1 then "," else ""))
    results;
  Printf.bprintf buf "  ]\n}\n";
  let path = "BENCH_mtree.json" in
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  row "\nwrote %s\n" path

(* ======================================================================= *)
(* perf-store: durable store cost baseline (writes BENCH_store.json)       *)
(* ======================================================================= *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun entry -> rm_rf (Filename.concat path entry)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let bench_dir name =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) ("tcvs-bench-" ^ name) in
  rm_rf dir;
  dir

let perf_store () =
  header "perf-store: WAL / checkpoint / recovery cost (tracked baseline, BENCH_store.json)";
  let smoke = !smoke_mode in
  let quota = if smoke then 0.02 else 0.25 in
  let m name f = measure_ns ~quota name f in
  (* WAL append: the per-mutation durability tax, with and without
     fsync. *)
  let payload_sizes = if smoke then [ 64 ] else [ 64; 1024 ] in
  row "%-16s %-14s %-14s\n" "payload bytes" "append" "append+fsync";
  let wal_results =
    List.map
      (fun bytes ->
        let payload = String.make bytes 'p' in
        let dir = bench_dir "wal" in
        Unix.mkdir dir 0o755;
        let w = Store.Wal.open_writer (Filename.concat dir "bench.wal") in
        let lsn = ref 0 in
        let append_ns =
          m "append" (fun () ->
              incr lsn;
              Store.Wal.append w ~lsn:!lsn ~payload)
        in
        let fsync_ns =
          measure_ns ~quota:(if smoke then 0.02 else 0.1) "append-fsync" (fun () ->
              incr lsn;
              Store.Wal.append ~fsync:true w ~lsn:!lsn ~payload)
        in
        Store.Wal.close_writer w;
        rm_rf dir;
        row "%-16d %s %s\n" bytes (pp_ns append_ns) (pp_ns fsync_ns);
        (bytes, append_ns, fsync_ns))
      payload_sizes
  in
  (* Group commit: ns/op when [batch] staged records share one flush
     and one fsync. The WAL-level sweep isolates the durability tax
     (directly comparable to the append rows above); the store-level
     sweep is end-to-end — Merkle apply + record fan-out + round flush
     with fsync, i.e. what one server round actually pays per op. *)
  let append_floor_ns, append_fsync_ns =
    match wal_results with
    | (_, append_ns, fsync_ns) :: _ -> (append_ns, fsync_ns)
    | [] -> (nan, nan)
  in
  let batches = if smoke then [ 1; 8 ] else [ 1; 8; 64; 256 ] in
  row "\n%-8s %-14s %-12s %-14s\n" "batch" "wal ns/op" "vs append" "store ns/op";
  let gc_results =
    List.map
      (fun batch ->
        let payload = String.make 64 'p' in
        let dir = bench_dir "group-commit-wal" in
        Unix.mkdir dir 0o755;
        let w = Store.Wal.open_writer (Filename.concat dir "gc.wal") in
        let lsn = ref 0 in
        let wal_batch_ns =
          m "wal-group-commit" (fun () ->
              for _ = 1 to batch do
                incr lsn;
                Store.Wal.stage w ~lsn:!lsn ~payload
              done;
              ignore (Store.Wal.flush ~fsync:true w))
        in
        Store.Wal.close_writer w;
        rm_rf dir;
        let wal_per_op_ns = wal_batch_ns /. float_of_int batch in
        let dir = bench_dir "group-commit-store" in
        let initial =
          List.init 1024 (fun i -> (Printf.sprintf "k%06d" i, String.make 64 'v'))
        in
        let store =
          match
            Store.create_or_open ~fsync:true ~durability:Store.Per_round
              ~checkpoint_every:max_int ~dir ~branching:16 ~shards:4 ~initial ()
          with
          | Ok (s, _) -> s
          | Error e -> failwith e
        in
        let db = ref (Store.db store) in
        let i = ref 0 in
        let round_ns =
          m "store-group-commit" (fun () ->
              for _ = 1 to batch do
                incr i;
                let op =
                  Vo.Set (Printf.sprintf "k%06d" (!i mod 1024), String.make 64 'n')
                in
                let db', _ = Store.Shard_db.apply !db op in
                db := db';
                Store.log_op store ~db:db' ~op ~ctr:!i ~last_user:(!i mod 4)
              done;
              Store.flush store)
        in
        let store_per_op_ns = round_ns /. float_of_int batch in
        Store.close store;
        rm_rf dir;
        row "%-8d %s %10.2fx %s\n" batch (pp_ns wal_per_op_ns)
          (wal_per_op_ns /. append_floor_ns)
          (pp_ns store_per_op_ns);
        (batch, wal_per_op_ns, store_per_op_ns))
      batches
  in
  row "(append+fsync, unbatched: %s — the tax group commit amortises)\n"
    (pp_ns append_fsync_ns);
  (* Checkpoint: serialising every shard tree + bookkeeping as a new
     generation. *)
  let ckpt_sizes = if smoke then [ 512 ] else [ 1024; 16384 ] in
  row "\n%-10s %-8s %-14s\n" "entries" "shards" "checkpoint";
  let ckpt_results =
    List.concat_map
      (fun entries ->
        let initial =
          List.init entries (fun i -> (Printf.sprintf "k%06d" i, String.make 64 'v'))
        in
        List.map
          (fun shards ->
            let dir = bench_dir "ckpt" in
            let store =
              match
                Store.create_or_open ~checkpoint_every:max_int ~dir ~branching:16 ~shards
                  ~initial ()
              with
              | Ok (s, _) -> s
              | Error e -> failwith e
            in
            let db = Store.db store in
            let ckpt_ns = m "checkpoint" (fun () -> Store.checkpoint store ~db) in
            Store.close store;
            rm_rf dir;
            row "%-10d %-8d %s\n" entries shards (pp_ns ckpt_ns);
            (entries, shards, ckpt_ns))
          (if smoke then [ 4 ] else [ 1; 4 ]))
      ckpt_sizes
  in
  (* Recovery: latest snapshot + WAL tail replay, as a function of how
     much tail the crash left unsnapshotted. *)
  let tails = if smoke then [ 64 ] else [ 256; 1024; 4096 ] in
  let snap_entries = if smoke then 256 else 1024 in
  row "\n%-18s %-14s %-14s %s\n" "snapshot entries" "tail ops" "recover" "root";
  let recovery_results =
    List.map
      (fun tail ->
        let dir = bench_dir "recover" in
        let initial =
          List.init snap_entries (fun i -> (Printf.sprintf "k%06d" i, String.make 64 'v'))
        in
        let store =
          match
            Store.create_or_open ~checkpoint_every:max_int ~dir ~branching:16 ~shards:4
              ~initial ()
          with
          | Ok (s, _) -> s
          | Error e -> failwith e
        in
        let db = ref (Store.db store) in
        for i = 1 to tail do
          let op =
            Vo.Set (Printf.sprintf "k%06d" (i mod snap_entries), String.make 64 'n')
          in
          let db', _ = Store.Shard_db.apply !db op in
          db := db';
          Store.log_op store ~db:db' ~op ~ctr:i ~last_user:(i mod 4)
        done;
        let recover_ns = m "recover" (fun () -> ignore (Store.recover store)) in
        let root_match =
          match Store.recover store with
          | Ok r ->
              String.equal
                (Store.Shard_db.root_digest r.Store.db)
                (Store.Shard_db.root_digest !db)
          | Error _ -> false
        in
        Store.close store;
        rm_rf dir;
        row "%-18d %-14d %s %s\n" snap_entries tail (pp_ns recover_ns)
          (if root_match then "identical" else "MISMATCH");
        (tail, recover_ns, root_match))
      tails
  in
  (* Recovery vs run length: checkpoints every 64 ops bound the
     replayed tail, so recovery cost should stay flat as the run grows
     instead of scaling with total ops logged. *)
  let run_lens = if smoke then [ 256 ] else [ 4096; 16384; 65536 ] in
  row "\n%-12s %-14s %-12s %s\n" "run ops" "recover" "generation" "root";
  let runlen_results =
    List.map
      (fun run_len ->
        let dir = bench_dir "runlen" in
        let initial =
          List.init 1024 (fun i -> (Printf.sprintf "k%06d" i, String.make 64 'v'))
        in
        let store =
          match
            Store.create_or_open ~durability:(Store.Every_n 64) ~dir ~branching:16
              ~shards:4 ~initial ()
          with
          | Ok (s, _) -> s
          | Error e -> failwith e
        in
        let db = ref (Store.db store) in
        for i = 1 to run_len do
          let op =
            Vo.Set (Printf.sprintf "k%06d" (i mod 1024), String.make 64 'n')
          in
          let db', _ = Store.Shard_db.apply !db op in
          db := db';
          Store.log_op store ~db:db' ~op ~ctr:i ~last_user:(i mod 4)
        done;
        Store.flush store;
        let recover_ns = m "recover" (fun () -> ignore (Store.recover store)) in
        let root_match =
          match Store.recover store with
          | Ok r ->
              String.equal
                (Store.Shard_db.root_digest r.Store.db)
                (Store.Shard_db.root_digest !db)
          | Error _ -> false
        in
        let generation = Store.generation store in
        Store.close store;
        rm_rf dir;
        row "%-12d %s %-12d %s\n" run_len (pp_ns recover_ns) generation
          (if root_match then "identical" else "MISMATCH");
        (run_len, recover_ns, generation, root_match))
      run_lens
  in
  (* Machine-readable trajectory for later PRs to beat. *)
  let buf = Buffer.create 2048 in
  Printf.bprintf buf "{\n  \"experiment\": \"perf-store\",\n";
  Printf.bprintf buf "  \"quota_s\": %g,\n  \"smoke\": %b,\n" quota smoke;
  Printf.bprintf buf "  \"wal_append\": [\n";
  List.iteri
    (fun i (bytes, append_ns, fsync_ns) ->
      Printf.bprintf buf
        "    { \"payload_bytes\": %d, \"append_ns\": %.1f, \"append_fsync_ns\": %.1f }%s\n"
        bytes append_ns fsync_ns
        (if i < List.length wal_results - 1 then "," else ""))
    wal_results;
  Printf.bprintf buf "  ],\n  \"group_commit\": [\n";
  List.iteri
    (fun i (batch, wal_per_op_ns, store_per_op_ns) ->
      Printf.bprintf buf
        "    { \"batch\": %d, \"wal_ns_per_op\": %.1f, \"vs_append\": %.2f, \
         \"store_ns_per_op\": %.1f }%s\n"
        batch wal_per_op_ns
        (wal_per_op_ns /. append_floor_ns)
        store_per_op_ns
        (if i < List.length gc_results - 1 then "," else ""))
    gc_results;
  Printf.bprintf buf "  ],\n  \"checkpoint\": [\n";
  List.iteri
    (fun i (entries, shards, ckpt_ns) ->
      Printf.bprintf buf
        "    { \"entries\": %d, \"shards\": %d, \"checkpoint_ns\": %.1f }%s\n" entries
        shards ckpt_ns
        (if i < List.length ckpt_results - 1 then "," else ""))
    ckpt_results;
  Printf.bprintf buf "  ],\n  \"recovery\": [\n";
  List.iteri
    (fun i (tail, recover_ns, root_match) ->
      Printf.bprintf buf
        "    { \"snapshot_entries\": %d, \"wal_tail_ops\": %d, \"recover_ns\": %.1f, \
         \"root_digest_match\": %b }%s\n"
        snap_entries tail recover_ns root_match
        (if i < List.length recovery_results - 1 then "," else ""))
    recovery_results;
  Printf.bprintf buf "  ],\n  \"recovery_vs_run_length\": [\n";
  List.iteri
    (fun i (run_len, recover_ns, generation, root_match) ->
      Printf.bprintf buf
        "    { \"run_ops\": %d, \"recover_ns\": %.1f, \"generation\": %d, \
         \"root_digest_match\": %b }%s\n"
        run_len recover_ns generation root_match
        (if i < List.length runlen_results - 1 then "," else ""))
    runlen_results;
  Printf.bprintf buf "  ]\n}\n";
  let path = "BENCH_store.json" in
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  row "\nwrote %s\n" path

(* ======================================================================= *)
(* perf-obs: telemetry hot-path baseline (writes BENCH_obs.json)           *)
(* ======================================================================= *)

(* The domain-safe registry rework moved every metric bump from a plain
   mutable field to a per-domain cell array reached through
   domain-local storage. These numbers pin what that indirection costs
   on the paths protocol code hits per message (counter bump, histogram
   observe) against the pre-rework representation — an inline mutable
   record, measured here as the "plain" baseline — plus the per-op
   costs the telemetry plane added on top: trace emission on and off,
   get-or-create registry lookups, and a journal span event (one
   formatted line plus an eagerly flushed write). *)

type plain_counter = { mutable pc_count : int }

type plain_hist = {
  mutable ph_count : int;
  mutable ph_sum : int;
  mutable ph_min : int;
  mutable ph_max : int;
  ph_buckets : int array;
}

let perf_obs () =
  header "perf-obs: telemetry hot paths ns/op (tracked baseline, BENCH_obs.json)";
  let smoke = !smoke_mode in
  let quota = if smoke then 0.02 else 0.25 in
  let scope = Obs.Scope.v "bench.obs" in
  let c = Obs.counter ~scope "bump" in
  let h = Obs.histogram ~scope "observe" in
  let m name f = measure_ns ~quota name f in
  let incr_ns = m "counter-incr" (fun () -> Obs.incr c) in
  let pc = { pc_count = 0 } in
  let plain_incr_ns =
    m "plain-incr" (fun () -> pc.pc_count <- pc.pc_count + 1)
  in
  let observe_ns =
    let v = ref 0 in
    m "histogram-observe" (fun () ->
        v := (!v + 257) land 0xffff;
        Obs.observe h !v)
  in
  let plain_observe_ns =
    let ph =
      { ph_count = 0; ph_sum = 0; ph_min = max_int; ph_max = min_int;
        ph_buckets = Array.make 63 0 }
    in
    let v = ref 0 in
    m "plain-observe" (fun () ->
        v := (!v + 257) land 0xffff;
        let x = !v in
        ph.ph_count <- ph.ph_count + 1;
        ph.ph_sum <- ph.ph_sum + x;
        if x < ph.ph_min then ph.ph_min <- x;
        if x > ph.ph_max then ph.ph_max <- x;
        let rec bits acc n = if n = 0 then acc else bits (acc + 1) (n lsr 1) in
        let i = if x <= 0 then 0 else min 62 (bits 0 x) in
        ph.ph_buckets.(i) <- ph.ph_buckets.(i) + 1)
  in
  let lookup_ns =
    m "get-or-create" (fun () -> ignore (Obs.counter ~scope "bump"))
  in
  Obs.set_tracing false;
  let trace_off_ns =
    m "trace-emit-off" (fun () -> Obs.Trace.emit ~scope ~at:1 ~name:"e" "x")
  in
  Obs.set_tracing true;
  let trace_on_ns =
    m "trace-emit-on" (fun () -> Obs.Trace.emit ~scope ~dur:2 ~at:1 ~name:"e" "x")
  in
  Obs.set_tracing false;
  let journal_ns =
    let path = Filename.temp_file "tcvs-bench-obs" ".jsonl" in
    let j = Obs.Journal.open_ ~proc:"bench" path in
    let ns =
      m "journal-event" (fun () ->
          Obs.Journal.event j ~user:0 ~span:1 ~round:7 ~ev:"client.send" "request")
    in
    Obs.Journal.close j;
    Sys.remove path;
    ns
  in
  Obs.reset ();
  row "counter-incr      %s   (plain mutable %s, %4.1fx)\n" (pp_ns incr_ns)
    (pp_ns plain_incr_ns) (incr_ns /. plain_incr_ns);
  row "histogram-observe %s   (plain mutable %s, %4.1fx)\n" (pp_ns observe_ns)
    (pp_ns plain_observe_ns) (observe_ns /. plain_observe_ns);
  row "get-or-create     %s\n" (pp_ns lookup_ns);
  row "trace-emit        %s off  %s on\n" (pp_ns trace_off_ns) (pp_ns trace_on_ns);
  row "journal-event     %s   (formatted line + eager write)\n" (pp_ns journal_ns);
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "{\n  \"experiment\": \"perf-obs\",\n";
  Printf.bprintf buf "  \"quota_s\": %g,\n  \"smoke\": %b,\n" quota smoke;
  Printf.bprintf buf "  \"ns_per_op\": {\n";
  let fields =
    [
      ("counter_incr", incr_ns);
      ("plain_mutable_incr", plain_incr_ns);
      ("histogram_observe", observe_ns);
      ("plain_mutable_observe", plain_observe_ns);
      ("counter_get_or_create", lookup_ns);
      ("trace_emit_off", trace_off_ns);
      ("trace_emit_on", trace_on_ns);
      ("journal_event", journal_ns);
    ]
  in
  List.iteri
    (fun i (k, v) ->
      Printf.bprintf buf "    \"%s\": %.1f%s\n" k v
        (if i < List.length fields - 1 then "," else ""))
    fields;
  Printf.bprintf buf "  },\n  \"overhead\": {\n";
  Printf.bprintf buf "    \"counter_incr_vs_plain\": %.2f,\n"
    (incr_ns /. plain_incr_ns);
  Printf.bprintf buf "    \"histogram_observe_vs_plain\": %.2f\n"
    (observe_ns /. plain_observe_ns);
  Printf.bprintf buf "  }\n}\n";
  let path = "BENCH_obs.json" in
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  row "\nwrote %s\n" path

(* ======================================================================= *)
(* Registry and entry point                                                *)
(* ======================================================================= *)

let experiments =
  [
    ("tab1-notation", "Table 1 notation as concrete messages", tab1_notation);
    ("fig2-merkle-path", "Figure 2: Merkle path / O(log n) VOs", fig2_merkle_path);
    ("mtree-ops", "Section 4.1: tree operation costs", mtree_ops);
    ("sig-schemes", "PKI assumption: signature scheme costs", sig_schemes);
    ("fig1-partition", "Figure 1 / Theorem 3.1: partition attack", fig1_partition);
    ("fig3-replay", "Figure 3: replay attack and tagging (= abl-ctr-tag)", fig3_replay);
    ("fig4-epochs", "Figure 4 / Theorem 4.3: epochs", fig4_epochs);
    ("thm41-detection", "Theorem 4.1: Protocol I detection", thm41_detection);
    ("thm42-detection", "Theorem 4.2: Protocol II detection", thm42_detection);
    ("thm43-detection", "Theorem 4.3: Protocol III detection", thm43_detection);
    ("wp-baseline", "Section 2.2.3: token baseline blowup", wp_baseline);
    ("overhead-ops", "per-operation protocol overhead", overhead_ops);
    ("sync-cost", "synchronisation cost vs n and k", sync_cost);
    ("detect-latency-time", "Protocol III latency vs activity", detect_latency_time);
    ("abl-gctr", "ablation: ctr monotonicity check", abl_gctr);
    ("abl-branching", "ablation: branching factor", abl_branching);
    ("abl-hash-trunc", "ablation: digest truncation", abl_hash_trunc);
    ("ext-avail", "extension: availability timeout vs stalls", ext_avail);
    ("ext-batch", "extension: atomic multi-key commits", ext_batch);
    ("ext-global-k", "extension: global-k sync trigger", ext_global_k);
    ("proto-compare", "four-protocol comparison sweep (BENCH_protocols.json)", proto_compare);
    ("perf-mtree", "Merkle hot-path tracked baseline (BENCH_mtree.json)", perf_mtree);
    ("perf-store", "durable store tracked baseline (BENCH_store.json)", perf_store);
    ("perf-obs", "telemetry hot-path tracked baseline (BENCH_obs.json)", perf_obs);
  ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse selected = function
    | [] -> List.rev selected
    | "--list" :: _ ->
        List.iter (fun (id, descr, _) -> Printf.printf "%-22s %s\n" id descr) experiments;
        exit 0
    | "-e" :: id :: rest -> parse (id :: selected) rest
    | "--smoke" :: rest ->
        smoke_mode := true;
        parse selected rest
    | arg :: _ ->
        Printf.eprintf "unknown argument %S (try --list)\n" arg;
        exit 2
  in
  let selected = parse [] args in
  let to_run =
    if selected = [] then experiments
    else
      List.map
        (fun id ->
          match List.find_opt (fun (i, _, _) -> i = id) experiments with
          | Some e -> e
          | None ->
              Printf.eprintf "unknown experiment %S (try --list)\n" id;
              exit 2)
        selected
  in
  Printf.printf "Trusted CVS experiment harness — %d experiment(s)\n" (List.length to_run);
  List.iter (fun (_, _, f) -> f ()) to_run
