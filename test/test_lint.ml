(* tcvs-lint unit tests: each rule must flag its golden bad fixture and
   stay silent on the clean counterpart, and every suppression channel
   (allow attribute, config directive, scope override) must work. The
   fixtures double as the rule catalogue's executable examples. *)

module C = Tcvs_lint_core.Lint_config
module E = Tcvs_lint_core.Lint_engine
module R = Tcvs_lint_core.Lint_rules
module G = Tcvs_lint_core.Lint_callgraph
module D = Tcvs_lint_core.Lint_reach

let config_exn source =
  match C.parse_string source with
  | Ok config -> config
  | Error m -> Alcotest.failf "config did not parse: %s" m

let lint ?(config = C.empty) ?(file = "lib/core/fixture.ml") source =
  E.lint_string ~config ~rules:R.all ~file source

let rule_ids findings = List.map (fun (f : E.finding) -> f.rule_id) findings
let hits rule findings = List.exists (String.equal rule) (rule_ids findings)

let check_flags ?config ?file ~rule source =
  Alcotest.(check bool)
    (Printf.sprintf "%s flags %S" rule source)
    true
    (hits rule (lint ?config ?file source))

let check_clean ?config ?file source =
  let findings = lint ?config ?file source in
  Alcotest.(check (list string))
    (Printf.sprintf "clean: %S" source)
    [] (rule_ids findings)

(* ---- digest-safety ---------------------------------------------------- *)

let test_digest_safety_poly_eq () =
  check_flags ~rule:"digest-safety" "let check digest other = digest = other";
  check_flags ~rule:"digest-safety" "let stale t = t.root <> t.cached_root";
  check_flags ~rule:"digest-safety" "let same a sigma = a == sigma"

let test_digest_safety_banned_idents () =
  check_flags ~rule:"digest-safety" "let f root roots = List.mem root roots";
  check_flags ~rule:"digest-safety" "let c a b = compare a b";
  check_flags ~rule:"digest-safety" "let h v = Hashtbl.hash v"

let test_digest_safety_safe_operands () =
  (* Arithmetic, lengths and argument-less constructors cannot be
     digests; comparing them polymorphically is fine. *)
  check_clean "let empty roots = List.length roots = 0";
  check_clean "let missing tag = tag = None";
  check_clean "let f digest other = String.equal digest other"

let test_digest_safety_needs_suggestive_name () =
  check_clean "let f a b = a = b"

(* ---- determinism ------------------------------------------------------ *)

let det_file = "lib/sim/fixture.ml"

let test_determinism_flags () =
  check_flags ~file:det_file ~rule:"determinism" "let r () = Random.int 10";
  check_flags ~file:det_file ~rule:"determinism" "let t () = Sys.time ()";
  check_flags ~file:det_file ~rule:"determinism" "let u () = Unix.gettimeofday ()";
  check_flags ~file:det_file ~rule:"determinism"
    "let keys tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl []"

let test_determinism_scope () =
  (* lib/workload is outside the determinism scope: its generator owns
     its own PRNG discipline. *)
  check_clean ~file:"lib/workload/fixture.ml" "let r () = Random.int 10"

(* ---- logging ----------------------------------------------------------- *)

let test_logging_flags () =
  check_flags ~rule:"logging" "let f () = print_endline \"hi\"";
  check_flags ~rule:"logging" "let f x = Printf.printf \"%d\" x";
  check_flags ~file:"lib/mtree/fixture.ml" ~rule:"logging"
    "let f () = Format.eprintf \"oops\""

let test_logging_out_of_scope () =
  (* Executables under bin/ may print; the rule audits lib/ only. *)
  check_clean ~file:"bin/fixture.ml" "let f () = print_endline \"hi\""

(* ---- no-catchall ------------------------------------------------------- *)

let test_no_catchall_flags () =
  check_flags ~rule:"no-catchall" "let f g = try g () with _ -> 0";
  check_flags ~rule:"no-catchall" "let f g = try g () with e -> ignore e; 0";
  check_flags ~rule:"no-catchall" "let f g = match g () with x -> x | exception _ -> 0"

let test_no_catchall_allows_specific () =
  check_clean "let f g = try g () with Not_found -> 0";
  check_clean "let f g = match g () with x -> x | exception Not_found -> 0";
  (* A guard means the handler inspects the exception. *)
  check_clean ~file:"lib/core/fixture.ml"
    "let f g p = try g () with e when p e -> 0"

(* ---- net-io ------------------------------------------------------------ *)

let test_net_io_flags () =
  check_flags ~file:"lib/mtree/fixture.ml" ~rule:"net-io"
    "let s () = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0";
  check_flags ~file:"lib/wire/fixture.ml" ~rule:"net-io"
    "let r fd buf = Unix.read fd buf 0 1";
  check_flags ~file:"lib/crypto/fixture.ml" ~rule:"net-io"
    "let t () = Unix.gettimeofday ()"

let test_net_io_sanctioned_dirs () =
  (* lib/net owns sockets, lib/store owns durable fds, lib/obs owns
     report emission; the rule stays silent there (determinism still
     covers lib/obs separately). *)
  check_clean ~file:"lib/net/fixture.ml"
    "let s () = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0";
  check_clean ~file:"lib/store/fixture.ml" "let f path = Unix.openfile path [] 0o644";
  check_clean ~file:"bin/fixture.ml" "let t () = Unix.gettimeofday ()"

(* ---- fsync-confinement ------------------------------------------------- *)

let test_fsync_confinement_flags () =
  (* lib/net and lib/obs may use Unix freely (net-io sanctions them) but
     still must not place their own durability barriers. *)
  check_flags ~file:"lib/net/fixture.ml" ~rule:"fsync-confinement"
    "let f fd = Unix.fsync fd";
  check_flags ~file:"lib/obs/fixture.ml" ~rule:"fsync-confinement"
    "let f fd = Unix.fdatasync fd";
  check_flags ~file:"lib/core/fixture.ml" ~rule:"fsync-confinement"
    "let f fd = Unix.fsync fd"

let test_fsync_confinement_store_ok () =
  check_clean ~file:"lib/store/fixture.ml" "let f fd = Unix.fsync fd";
  (* Other Unix calls in the sanctioned dirs stay legal. *)
  check_clean ~file:"lib/net/fixture.ml" "let f fd = Unix.close fd"

(* ---- checksum-confinement ---------------------------------------------- *)

let test_checksum_confinement_flags () =
  (* A CRC-32C where a digest belongs: a Merkle node, a program, or a
     store file other than the WAL and snapshot formats. *)
  check_flags ~file:"lib/mtree/fixture.ml" ~rule:"checksum-confinement"
    "let digest s = Crypto.Crc32c.string s";
  check_flags ~file:"lib/store/store.ml" ~rule:"checksum-confinement"
    "let sum s = Crypto.Crc32c.update 0 s ~off:0 ~len:(String.length s)";
  check_flags ~file:"bin/fixture.ml" ~rule:"checksum-confinement"
    "let f s = Crypto.Crc32c.(string s)";
  check_flags ~file:"lib/crypto/fixture.ml" ~rule:"checksum-confinement"
    "let f s = Crc32c.string s"

let test_checksum_confinement_sanctioned () =
  List.iter
    (fun file -> check_clean ~file "let sum s = Crypto.Crc32c.string s")
    [ "lib/store/wal.ml"; "lib/store/snapshot.ml"; "lib/net/codec.ml" ];
  check_clean ~file:"lib/mtree/fixture.ml" "let digest s = Crypto.Sha256.digest s"

(* ---- obs-scope-naming -------------------------------------------------- *)

let test_obs_scope_naming_flags () =
  check_flags ~rule:"obs-scope-naming" "let s = Obs.Scope.v \"Net.Daemon\"";
  check_flags ~rule:"obs-scope-naming" "let s = Obs.Scope.v \"net..daemon\"";
  check_flags ~rule:"obs-scope-naming" "let s = Obs.Scope.v \"net-daemon\"";
  (* Dots belong in the scope, not the metric name. *)
  check_flags ~rule:"obs-scope-naming"
    "let c = Obs.counter ~scope:obs_scope \"frames.sent\"";
  check_flags ~rule:"obs-scope-naming"
    "let h = Obs.histogram ~scope:obs_scope \"Round_us\"";
  (* A literal name without ~scope lands at the registry root. *)
  check_flags ~rule:"obs-scope-naming" "let c = Obs.counter \"frames_sent\"";
  check_flags ~rule:"obs-scope-naming"
    "let () = Obs.set_gauge \"msgs_per_op\" 1.5";
  (* bench/ and tools/ register metrics too; the rule follows them. *)
  check_flags ~file:"bench/fixture.ml" ~rule:"obs-scope-naming"
    "let s = Obs.Scope.v \"Bench\""

let test_obs_scope_naming_clean () =
  check_clean "let s = Obs.Scope.v \"net.daemon\"";
  check_clean "let s = Obs.Scope.v \"store.group_commit\"";
  check_clean "let c = Obs.counter ~scope:obs_scope \"frames_sent\"";
  check_clean "let h = Obs.histogram ~scope:obs_scope ~volatile:true \"fsync_us\"";
  check_clean "let () = Obs.set_gauge ~scope:obs_scope \"msgs_per_op\" 1.5";
  (* Computed names and scope algebra are beyond a syntactic rule. *)
  check_clean "let c = Obs.counter ~scope:obs_scope (\"sent.\" ^ kind)";
  check_clean "let s = Obs.Scope.(v \"crypto\" / \"sha256\")";
  (* test/ may register throwaway scopes. *)
  check_clean ~file:"test/fixture.ml" "let c = Obs.counter \"x\""

(* ---- allow attributes -------------------------------------------------- *)

let test_allow_attribute_on_expression () =
  check_clean "let f () = (print_endline [@tcvs.lint.allow \"logging\"]) \"hi\""

let test_allow_attribute_on_binding () =
  check_clean ~file:det_file
    "let[@tcvs.lint.allow \"determinism\"] r () = Random.int 10"

let test_allow_attribute_floating () =
  check_clean
    "[@@@tcvs.lint.allow \"digest-safety\"]\nlet check digest other = digest = other"

let test_allow_attribute_is_rule_specific () =
  (* Allowing one rule must not silence another. *)
  check_flags ~rule:"logging"
    "let[@tcvs.lint.allow \"determinism\"] f () = print_endline \"hi\""

(* ---- config ------------------------------------------------------------ *)

let test_config_rule_off () =
  let config = config_exn "rule logging off" in
  check_clean ~config "let f () = print_endline \"hi\"";
  (* Other rules unaffected. *)
  check_flags ~config ~rule:"digest-safety" "let f digest other = digest = other"

let test_config_allow_path () =
  let config = config_exn "allow logging lib/core/fixture.ml" in
  check_clean ~config "let f () = print_endline \"hi\"";
  check_flags ~config ~file:"lib/core/other.ml" ~rule:"logging"
    "let f () = print_endline \"hi\""

let test_config_scope_override () =
  let config = config_exn "scope no-catchall lib/mtree" in
  check_clean ~config "let f g = try g () with _ -> 0";
  check_flags ~config ~file:"lib/mtree/fixture.ml" ~rule:"no-catchall"
    "let f g = try g () with _ -> 0"

let test_config_comments_and_blanks () =
  let config = config_exn "# comment\n\n  # indented comment\nrule logging off\n" in
  Alcotest.(check bool) "logging disabled" true (C.rule_disabled config "logging");
  Alcotest.(check bool) "others on" false (C.rule_disabled config "determinism")

(* ---- parse errors ------------------------------------------------------ *)

let test_parse_error_is_a_finding () =
  let findings = lint "let = (" in
  Alcotest.(check (list string)) "parse-error reported" [ "parse-error" ] (rule_ids findings)

(* ---- the repo itself is clean ------------------------------------------ *)

let test_repo_is_clean () =
  (* dune copies the library sources next to the test binary's tree, so
     the full lint pass can run in-sandbox. Skip silently if the layout
     ever changes rather than fail spuriously. *)
  match Sys.file_exists "../lib" && Sys.is_directory "../lib" with
  | false -> ()
  | true ->
      let config =
        if Sys.file_exists "../.tcvs-lint" then
          match C.load "../.tcvs-lint" with
          | Ok config -> config
          | Error m -> Alcotest.failf "%s" m
        else C.empty
      in
      let findings =
        List.concat_map
          (fun file -> E.lint_file ~config ~rules:R.all ~file (Filename.concat ".." file))
          (E.ml_files ~dir:"lib" ~root:".." ())
      in
      Alcotest.(check (list string))
        "lib/ carries zero lint findings"
        []
        (List.map E.to_string (E.sort findings))

(* ---- deep tier: call-graph edge resolution ----------------------------- *)

let build sources = G.build_from_sources ~libraries:[ ("lib/core", "tcvs") ] sources

let edge_to g ~src ~dst =
  match G.find_def g src with
  | None -> Alcotest.failf "no def %s in graph" src
  | Some def -> (
      match List.find_opt (fun e -> String.equal e.G.e_target dst) def.G.d_edges with
      | Some e -> e.G.e_prov
      | None ->
          Alcotest.failf "no edge %s -> %s (edges: %s)" src dst
            (String.concat ", " (List.map (fun e -> e.G.e_target) def.G.d_edges)))

let prov =
  Alcotest.testable
    (fun fmt p -> Format.pp_print_string fmt (G.provenance_label p))
    ( = )

let test_callgraph_direct_edge () =
  let g = build [ ("lib/net/a.ml", "let g () = 1\nlet f () = g ()") ] in
  Alcotest.check prov "call in head position is a direct edge" G.Direct
    (edge_to g ~src:"A.f" ~dst:"A.g")

let test_callgraph_aliased_edge () =
  (* Through `module M = Other` in the caller's file. *)
  let g =
    build
      [
        ("lib/net/other.ml", "let target () = 1");
        ("lib/net/a.ml", "module M = Other\nlet f () = M.target ()");
      ]
  in
  Alcotest.check prov "module-alias call" G.Aliased (edge_to g ~src:"A.f" ~dst:"Other.target");
  (* Through the dune library wrapper (lib/core -> Tcvs). *)
  let g =
    build
      [
        ("lib/core/harness.ml", "let run () = 1");
        ("lib/net/a.ml", "let f () = Tcvs.Harness.run ()");
      ]
  in
  Alcotest.check prov "library-wrapper call" G.Aliased (edge_to g ~src:"A.f" ~dst:"Harness.run");
  (* Through a re-export alias inside the target file (the Store.Shard_db
     pattern). *)
  let g =
    build
      [
        ("lib/net/shard_db.ml", "let create () = 1");
        ("lib/net/store.ml", "module Shard_db = Shard_db");
        ("lib/net/a.ml", "let f () = Store.Shard_db.create ()");
      ]
  in
  Alcotest.check prov "re-export alias call" G.Aliased
    (edge_to g ~src:"A.f" ~dst:"Shard_db.create")

let test_callgraph_functor_edge () =
  (* `module M = F (X)` routes M.* to the functor body F.*: one analysis
     of the body over-approximates every application. *)
  let g =
    build
      [
        ( "lib/net/a.ml",
          "module F (X : sig end) = struct let mk () = 1 end\n\
           module M = F (struct end)\n\
           let f () = M.mk ()" );
      ]
  in
  Alcotest.check prov "functor-application call" G.Functor_app
    (edge_to g ~src:"A.f" ~dst:"A.F.mk")

let test_callgraph_first_class_edge () =
  (* A known def referenced outside call-head position may be called by
     whoever receives it: the reference becomes a first-class edge. *)
  let g = build [ ("lib/net/a.ml", "let g x = x + 1\nlet f xs = List.map g xs") ] in
  Alcotest.check prov "argument reference over-approximated" G.First_class
    (edge_to g ~src:"A.f" ~dst:"A.g")

let test_callgraph_value_defs_do_not_propagate () =
  (* `let c = mk ()` runs at module init: reading [c] from a root must
     not charge the root with mk's effects. *)
  let g =
    build
      [
        ( "lib/net/a.ml",
          "let mk () = Unix.sleep 1\n\
           let c = mk ()\n\
           let[@tcvs.lint.root \"event-loop\"] tick () = ignore c" );
      ]
  in
  let reached = G.reachable g ~roots:[ "A.tick" ] in
  Alcotest.(check bool) "value def itself reached" true (G.is_reached reached "A.c");
  Alcotest.(check bool) "its init-time callee is not" false (G.is_reached reached "A.mk")

let test_callgraph_path_rendering () =
  let g =
    build
      [ ("lib/net/a.ml", "let h () = 1\nlet g () = h ()\nlet f () = g ()") ]
  in
  let reached = G.reachable g ~roots:[ "A.f" ] in
  Alcotest.(check string)
    "provenance-annotated path" "A.f →[direct] A.g →[direct] A.h"
    (G.path_to reached "A.h")

(* ---- deep tier: the reachability rules --------------------------------- *)

let analyze ?(config = C.empty) sources = D.analyze ~config (build sources)

let deep_hits rule findings =
  List.exists (fun (f : D.finding) -> String.equal f.rule_id rule) findings

let check_deep_flags ?config ~rule sources =
  Alcotest.(check bool)
    (Printf.sprintf "deep rule %s fires" rule)
    true
    (deep_hits rule (analyze ?config sources))

let check_deep_clean ?config sources =
  Alcotest.(check (list string))
    "deep tier silent" []
    (List.map D.to_string (analyze ?config sources))

let test_event_loop_purity_flags () =
  (* Directly in the root... *)
  check_deep_flags ~rule:"event-loop-purity"
    [ ("lib/net/a.ml", "let[@tcvs.lint.root \"event-loop\"] tick () = Unix.sleep 1") ];
  (* ...and through a call chain, including channel I/O and Mutex.lock. *)
  check_deep_flags ~rule:"event-loop-purity"
    [
      ( "lib/net/a.ml",
        "let helper oc = output_string oc \"x\"\n\
         let[@tcvs.lint.root \"event-loop\"] tick oc = helper oc" );
    ];
  check_deep_flags ~rule:"event-loop-purity"
    [
      ("lib/core/locks.ml", "let locked mu f = Mutex.lock mu; f ()");
      ( "lib/net/a.ml",
        "let[@tcvs.lint.root \"event-loop\"] tick mu = Locks.locked mu (fun () -> 1)" );
    ]

let test_event_loop_purity_store_flush_exempt () =
  (* fsync and fd writes are the store's sanctioned blocking point... *)
  check_deep_clean
    [
      ("lib/store/wal.ml", "let flush fd = Unix.fsync fd");
      ("lib/net/a.ml", "let[@tcvs.lint.root \"event-loop\"] tick fd = Wal.flush fd");
    ];
  (* ...but always-blocking primitives are banned even there. *)
  check_deep_flags ~rule:"event-loop-purity"
    [
      ("lib/store/wal.ml", "let flush fd = Unix.sleep 1");
      ("lib/net/a.ml", "let[@tcvs.lint.root \"event-loop\"] tick fd = Wal.flush fd");
    ]

let test_event_loop_purity_suppressed () =
  (* Allow attr on the sink def (the Conn.fill pattern: nonblocking fd). *)
  check_deep_clean
    [
      ( "lib/net/conn_fixture.ml",
        "let[@tcvs.lint.allow \"event-loop-purity\"] fill fd b = Unix.read fd b 0 1" );
      ("lib/net/a.ml", "let[@tcvs.lint.root \"event-loop\"] tick fd b = Conn_fixture.fill fd b");
    ];
  (* Config allow for the sink's file. *)
  check_deep_clean
    ~config:(config_exn "allow event-loop-purity lib/net/conn_fixture.ml")
    [
      ("lib/net/conn_fixture.ml", "let fill fd b = Unix.read fd b 0 1");
      ("lib/net/a.ml", "let[@tcvs.lint.root \"event-loop\"] tick fd b = Conn_fixture.fill fd b");
    ]

let test_hot_path_alloc_flags () =
  let root body =
    [ ("lib/mtree/a.ml", "let[@tcvs.lint.root \"hot-path\"] verify x = " ^ body) ]
  in
  check_deep_flags ~rule:"hot-path-alloc" (root "List.map (fun e -> e + 1) x");
  check_deep_flags ~rule:"hot-path-alloc" (root "x :: []");
  check_deep_flags ~rule:"hot-path-alloc" (root "ref x");
  check_deep_flags ~rule:"hot-path-alloc" (root "x ^ x");
  (* Reachable allocations count the same as local ones. *)
  check_deep_flags ~rule:"hot-path-alloc"
    [
      ("lib/mtree/deep.ml", "let helper x = ref x");
      ("lib/mtree/a.ml", "let[@tcvs.lint.root \"hot-path\"] verify x = Deep.helper x");
    ]

let test_hot_path_alloc_clean_and_suppressed () =
  (* Pure arithmetic and full application allocate nothing the rule
     tracks; a toplevel table read is init-time, not per-call. *)
  check_deep_clean
    [
      ( "lib/mtree/a.ml",
        "let table = Hashtbl.create 16\n\
         let[@tcvs.lint.root \"hot-path\"] verify x = Hashtbl.length table + x" );
    ];
  (* The amortized-builder allowlist: the Node.range pattern. *)
  check_deep_clean
    [
      ( "lib/mtree/a.ml",
        "let[@tcvs.lint.allow \"hot-path-alloc\"] collect xs = List.map (fun e -> e) xs\n\
         let[@tcvs.lint.root \"hot-path\"] verify xs = collect xs" );
    ]

let domain_safety_sources ~spawners =
  [
    ("lib/core/state.ml", "let cell = ref 0\nlet bump () = cell := !cell + 1");
    ( "lib/core/workers.ml",
      String.concat "\n"
        (List.init spawners (fun i ->
             Printf.sprintf "let w%d () = Domain.spawn (fun () -> State.bump ())" i)) );
  ]

let test_domain_safety_flags () =
  let findings = analyze (domain_safety_sources ~spawners:2) in
  Alcotest.(check bool) "shared ref across two spawn sites" true
    (deep_hits "domain-safety" findings);
  match List.find_opt (fun (f : D.finding) -> f.D.rule_id = "domain-safety") findings with
  | Some f -> Alcotest.(check string) "charged to the mutable binding" "State.cell" f.D.symbol
  | None -> Alcotest.fail "missing domain-safety finding"

let test_domain_safety_single_domain_ok () =
  (* One spawn site shares nothing; zero spawn sites trivially so. *)
  check_deep_clean (domain_safety_sources ~spawners:1);
  check_deep_clean [ ("lib/core/state.ml", "let cell = ref 0\nlet bump () = cell := !cell + 1") ]

let test_domain_safety_suppressed () =
  check_deep_clean
    [
      ( "lib/core/state.ml",
        "let[@tcvs.lint.allow \"domain-safety\"] cell = ref 0\nlet bump () = cell := !cell + 1"
      );
      ( "lib/core/workers.ml",
        "let w0 () = Domain.spawn (fun () -> State.bump ())\n\
         let w1 () = Domain.spawn (fun () -> State.bump ())" );
    ]

let test_domain_safety_trips_on_obs () =
  (* Obs keeps its registry as plain module state because no process
     spawns a domain. This is the tripwire that keeps that sound: the
     real lib/obs/obs.ml, reached from two spawn sites, gets every piece
     of its registry state flagged. *)
  let obs = In_channel.with_open_bin "../lib/obs/obs.ml" In_channel.input_all in
  let findings =
    analyze
      [
        ("lib/obs/obs.ml", obs);
        ( "lib/core/workers.ml",
          "let c = Obs.counter \"work\"\n\
           let w0 () = Domain.spawn (fun () -> Obs.incr c)\n\
           let w1 () = Domain.spawn (fun () -> Obs.incr c)" );
      ]
  in
  Alcotest.(check (list string))
    "Obs's registry state, charged to its bindings"
    [ "Obs.Trace.buf"; "Obs.meta"; "Obs.slots"; "Obs.tracing_on" ]
    (List.filter_map
       (fun (f : D.finding) ->
         if f.D.rule_id = "domain-safety" then Some f.D.symbol else None)
       findings
    |> List.sort_uniq String.compare)

let dead_code_symbols ?config sources =
  List.filter_map
    (fun (f : D.finding) -> if f.D.rule_id = "dead-code" then Some f.D.symbol else None)
    (analyze ?config sources)

let test_dead_code_flags () =
  (* A lib def a program calls is live, and so is what it calls; one
     that only other dead code calls is not. *)
  Alcotest.(check (list string))
    "unreached lib defs" [ "Util.orphan_helper"; "Util.orphan" ]
    (dead_code_symbols
       [
         ( "lib/core/util.ml",
           "let helper x = x + 1\n\
            let used x = helper x\n\
            let orphan_helper x = x * 2\n\
            let orphan x = orphan_helper x" );
         ("bin/main.ml", "let () = print_int (Tcvs.Util.used 1)");
       ]);
  (* A value a program reads needs its body's callees; a module's
     top-level effects run whenever it is linked. *)
  Alcotest.(check (list string))
    "values and (init) propagate" []
    (dead_code_symbols
       [
         ( "lib/core/util.ml",
           "let build () = 42\n\
            let table = build ()\n\
            let register () = ()\n\
            let () = register ()" );
         ("bin/main.ml", "let () = print_int Tcvs.Util.table");
       ])

let test_dead_code_local_scope () =
  (* A parameter, a let local or a case variable named like a def is
     not a call to it: here the punned [~durability] and the case
     variable leave the [durability] accessor unreached. *)
  Alcotest.(check (list string))
    "a def only locals shadow is dead" [ "Util.durability" ]
    (dead_code_symbols
       [
         ( "lib/core/util.ml",
           "type t = { durability : int }\n\
            let durability t = t.durability\n\
            let make ~durability = { durability }\n\
            let pick o = match o with Some durability -> durability | None -> 0" );
         ( "bin/main.ml",
           "let () = print_int ((Tcvs.Util.make ~durability:1).durability + Tcvs.Util.pick None)" );
       ]);
  (* A local's scope ends with its binding: a call past a let local, or
     in a case that binds no such name, is a real call. *)
  Alcotest.(check (list string))
    "a call past the shadow is live" []
    (dead_code_symbols
       [
         ( "lib/core/util.ml",
           "let helper x = x + 1\n\
            let after x = (let helper = 3 in helper) + helper x" );
         ("bin/main.ml", "let () = print_int (Tcvs.Util.after 1)");
       ]);
  Alcotest.(check (list string))
    "a call in a case that binds no such name is live" []
    (dead_code_symbols
       [
         ( "lib/core/util.ml",
           "let helper x = x + 1\n\
            let cases o = match o with Some helper -> helper | None -> helper 0" );
         ("bin/main.ml", "let () = print_int (Tcvs.Util.cases None)");
       ])

let test_dead_code_needs_a_program () =
  (* With no program in the graph nothing roots it, so the rule is
     silent, as event-loop-purity is without an event-loop root. *)
  Alcotest.(check (list string))
    "lib-only graph" []
    (dead_code_symbols [ ("lib/core/util.ml", "let orphan x = x") ])

let test_dead_code_suppressed () =
  (* An allowed def is a root: neither it nor its callees are
     reported. *)
  Alcotest.(check (list string))
    "allow attribute" []
    (dead_code_symbols
       [
         ( "lib/core/util.ml",
           "let corrupt_helper x = x\n\
            let[@tcvs.lint.allow \"dead-code\"] debug_corrupt x = corrupt_helper x" );
         ("bin/main.ml", "let () = ()");
       ]);
  Alcotest.(check (list string))
    "config allow for the file" []
    (dead_code_symbols
       ~config:(config_exn "allow dead-code lib/core/cvs.ml")
       [
         ("lib/core/cvs.ml", "let tag x = Util.snapshot x");
         ("lib/core/util.ml", "let snapshot x = x");
         ("bin/main.ml", "let () = ()");
       ])

(* ---- deep tier: baseline and JSON -------------------------------------- *)

let test_baseline_round_trip () =
  let findings = analyze (domain_safety_sources ~spawners:2) in
  Alcotest.(check bool) "fixture produces findings" true (findings <> []);
  let keys = List.map D.key findings in
  (* render -> parse round-trips the key set (comments stripped). *)
  let parsed = D.baseline_of_string (D.render_baseline keys) in
  Alcotest.(check (list string)) "round trip" (List.sort_uniq String.compare keys) parsed;
  (* A pinned finding is not fresh; a stale key is reported. *)
  let fresh, pinned, stale =
    D.apply_baseline ~baseline:("bogus|lib/x.ml|X.f|ref" :: keys) findings
  in
  Alcotest.(check int) "all pinned" 0 (List.length fresh);
  Alcotest.(check int) "pinned count" (List.length findings) (List.length pinned);
  Alcotest.(check (list string)) "stale reported" [ "bogus|lib/x.ml|X.f|ref" ] stale;
  (* Keys are line-number-free: an unrelated edit above the finding must
     not invalidate the baseline. *)
  let shifted =
    analyze
      [
        ( "lib/core/state.ml",
          "(* comment *)\n\nlet unrelated = 42\nlet cell = ref 0\nlet bump () = cell := !cell + 1"
        );
        List.nth (domain_safety_sources ~spawners:2) 1;
      ]
  in
  let fresh, _, _ = D.apply_baseline ~baseline:keys shifted in
  Alcotest.(check int) "stable under line drift" 0 (List.length fresh)

let test_json_schema_stability () =
  let static =
    [ { E.file = "lib/a.ml"; line = 3; col = 2; rule_id = "logging"; message = "printf" } ]
  in
  let deep =
    [
      {
        D.file = "lib/b.ml";
        line = 7;
        col = 0;
        rule_id = "event-loop-purity";
        symbol = "B.tick";
        detail = "Unix.sleep";
        message = "m \"q\"";
      };
    ]
  in
  Alcotest.(check string) "exact artifact schema"
    ("{\"version\":1,\"findings\":["
   ^ "{\"tier\":\"syntactic\",\"rule\":\"logging\",\"file\":\"lib/a.ml\",\"line\":3,\"col\":2,\"message\":\"printf\"},"
   ^ "{\"tier\":\"deep\",\"rule\":\"event-loop-purity\",\"file\":\"lib/b.ml\",\"line\":7,\"col\":0,\"symbol\":\"B.tick\",\"detail\":\"Unix.sleep\",\"key\":\"event-loop-purity|lib/b.ml|B.tick|Unix.sleep\",\"baselined\":false,\"message\":\"m \\\"q\\\"\"},"
   ^ "{\"tier\":\"deep\",\"rule\":\"event-loop-purity\",\"file\":\"lib/b.ml\",\"line\":7,\"col\":0,\"symbol\":\"B.tick\",\"detail\":\"Unix.sleep\",\"key\":\"event-loop-purity|lib/b.ml|B.tick|Unix.sleep\",\"baselined\":true,\"message\":\"m \\\"q\\\"\"}"
   ^ "],\"summary\":{\"syntactic\":1,\"deep_new\":1,\"deep_baselined\":1,\"stale_baseline\":[\"gone|k|e|y\"]}}"
    )
    (D.json_report ~static ~deep ~baselined:deep ~stale:[ "gone|k|e|y" ])

(* ---- deep tier: the repo's own roots hold ------------------------------ *)

(* The real graph over ../lib and the programs (see test_repo_is_clean
   for the layout caveat), or [None] where the tree is not there. *)
let repo_graph () =
  if not (Sys.file_exists "../lib" && Sys.is_directory "../lib") then None
  else Some (G.of_repo ~root:"..")

let repo_config () =
  match C.load "../.tcvs-lint" with Ok c -> c | Error m -> Alcotest.failf "%s" m

let test_repo_deep_baseline_holds () =
  (* Every current deep finding is either fixed, justified in-source, or
     pinned in the committed baseline. *)
  match repo_graph () with
  | None -> ()
  | Some graph ->
      let findings = D.analyze ~config:(repo_config ()) graph in
      let baseline =
        match D.load_baseline "../.tcvs-lint-baseline" with
        | Ok keys -> keys
        | Error m -> Alcotest.failf "%s" m
      in
      let fresh, _, stale = D.apply_baseline ~baseline findings in
      Alcotest.(check (list string))
        "no non-baselined deep findings in lib/" []
        (List.map D.to_string fresh);
      Alcotest.(check (list string)) "no stale baseline keys" [] stale

let test_repo_no_dead_code () =
  (* Every lib/ def is reached from a program, from a module's top-level
     effects, or from a def allowed with the reason a test needs it. *)
  match repo_graph () with
  | None -> ()
  | Some graph ->
      Alcotest.(check (list string))
        "lib/ defs no program reaches" []
        (D.analyze ~config:(repo_config ()) graph
        |> List.filter (fun (f : D.finding) -> f.D.rule_id = "dead-code")
        |> List.map D.to_string)

let test_repo_event_loop_roots () =
  (* One root per process, on the definition that hands the loop its
     callbacks: every handler the process runs between two selects
     must be reached from it. *)
  match repo_graph () with
  | None -> ()
  | Some graph ->
      Alcotest.(check (list string))
        "one event-loop root per process"
        [ "Client.drive"; "Daemon.serve"; "Proxy.serve"; "Router.serve" ]
        (List.map (fun (d : G.def) -> d.G.d_id) (G.defs_with_root graph "event-loop"));
      List.iter
        (fun (root, handlers) ->
          let reached = G.reachable graph ~roots:[ root ] in
          List.iter
            (fun h ->
              Alcotest.(check bool) (Printf.sprintf "%s reaches %s" root h) true
                (Hashtbl.mem reached h))
            handlers)
        [
          ( "Daemon.serve",
            [ "Front.handle_frame"; "Server.handle"; "Daemon.commit"; "Admin.service" ] );
          ( "Router.serve",
            [
              "Front.handle_frame"; "Router.pump_links"; "Router.handle_link_frame"; "Admin.service";
            ] );
          ("Proxy.serve", [ "Proxy.relay" ]);
          ("Client.drive", [ "Client.handle_tick" ]);
        ]

let suite =
  [
    Alcotest.test_case "digest-safety: polymorphic eq" `Quick test_digest_safety_poly_eq;
    Alcotest.test_case "digest-safety: banned idents" `Quick test_digest_safety_banned_idents;
    Alcotest.test_case "digest-safety: safe operands" `Quick test_digest_safety_safe_operands;
    Alcotest.test_case "digest-safety: needs digest-like name" `Quick
      test_digest_safety_needs_suggestive_name;
    Alcotest.test_case "determinism: flags" `Quick test_determinism_flags;
    Alcotest.test_case "determinism: scope" `Quick test_determinism_scope;
    Alcotest.test_case "logging: flags" `Quick test_logging_flags;
    Alcotest.test_case "logging: out of scope" `Quick test_logging_out_of_scope;
    Alcotest.test_case "no-catchall: flags" `Quick test_no_catchall_flags;
    Alcotest.test_case "no-catchall: specific handlers ok" `Quick
      test_no_catchall_allows_specific;
    Alcotest.test_case "net-io: flags" `Quick test_net_io_flags;
    Alcotest.test_case "net-io: sanctioned dirs" `Quick test_net_io_sanctioned_dirs;
    Alcotest.test_case "fsync-confinement: flags" `Quick test_fsync_confinement_flags;
    Alcotest.test_case "fsync-confinement: lib/store ok" `Quick
      test_fsync_confinement_store_ok;
    Alcotest.test_case "checksum-confinement: flags" `Quick test_checksum_confinement_flags;
    Alcotest.test_case "checksum-confinement: three formats ok" `Quick
      test_checksum_confinement_sanctioned;
    Alcotest.test_case "obs-scope-naming: flags" `Quick test_obs_scope_naming_flags;
    Alcotest.test_case "obs-scope-naming: clean" `Quick test_obs_scope_naming_clean;
    Alcotest.test_case "allow attr: expression" `Quick test_allow_attribute_on_expression;
    Alcotest.test_case "allow attr: binding" `Quick test_allow_attribute_on_binding;
    Alcotest.test_case "allow attr: floating" `Quick test_allow_attribute_floating;
    Alcotest.test_case "allow attr: rule-specific" `Quick test_allow_attribute_is_rule_specific;
    Alcotest.test_case "config: rule off" `Quick test_config_rule_off;
    Alcotest.test_case "config: allow path" `Quick test_config_allow_path;
    Alcotest.test_case "config: scope override" `Quick test_config_scope_override;
    Alcotest.test_case "config: comments" `Quick test_config_comments_and_blanks;
    Alcotest.test_case "parse error" `Quick test_parse_error_is_a_finding;
    Alcotest.test_case "repo lib/ is lint-clean" `Quick test_repo_is_clean;
    Alcotest.test_case "callgraph: direct edge" `Quick test_callgraph_direct_edge;
    Alcotest.test_case "callgraph: aliased edges" `Quick test_callgraph_aliased_edge;
    Alcotest.test_case "callgraph: functor application" `Quick test_callgraph_functor_edge;
    Alcotest.test_case "callgraph: first-class over-approximation" `Quick
      test_callgraph_first_class_edge;
    Alcotest.test_case "callgraph: value defs do not propagate" `Quick
      test_callgraph_value_defs_do_not_propagate;
    Alcotest.test_case "callgraph: path rendering" `Quick test_callgraph_path_rendering;
    Alcotest.test_case "event-loop-purity: flags" `Quick test_event_loop_purity_flags;
    Alcotest.test_case "event-loop-purity: store flush exempt" `Quick
      test_event_loop_purity_store_flush_exempt;
    Alcotest.test_case "event-loop-purity: suppressed" `Quick test_event_loop_purity_suppressed;
    Alcotest.test_case "hot-path-alloc: flags" `Quick test_hot_path_alloc_flags;
    Alcotest.test_case "hot-path-alloc: clean + allowlist" `Quick
      test_hot_path_alloc_clean_and_suppressed;
    Alcotest.test_case "domain-safety: flags" `Quick test_domain_safety_flags;
    Alcotest.test_case "domain-safety: single domain ok" `Quick
      test_domain_safety_single_domain_ok;
    Alcotest.test_case "domain-safety: suppressed" `Quick test_domain_safety_suppressed;
    Alcotest.test_case "domain-safety: trips on the real Obs" `Quick
      test_domain_safety_trips_on_obs;
    Alcotest.test_case "dead-code: flags" `Quick test_dead_code_flags;
    Alcotest.test_case "dead-code: needs a program" `Quick test_dead_code_needs_a_program;
    Alcotest.test_case "dead-code: suppressed" `Quick test_dead_code_suppressed;
    Alcotest.test_case "dead-code: locals shadow defs" `Quick test_dead_code_local_scope;
    Alcotest.test_case "baseline: round trip + line drift" `Quick test_baseline_round_trip;
    Alcotest.test_case "json report: schema stability" `Quick test_json_schema_stability;
    Alcotest.test_case "repo deep baseline holds" `Quick test_repo_deep_baseline_holds;
    Alcotest.test_case "event-loop roots cover every process" `Quick test_repo_event_loop_roots;
    Alcotest.test_case "repo lib/ has no dead code" `Quick test_repo_no_dead_code;
  ]
