(* tcvs — command-line front end for the Trusted CVS reproduction.

   Subcommands:
     tcvs simulate   run a protocol against an adversary over a
                     generated workload and report the outcome
     tcvs matrix     the full protocol x adversary detection matrix
     tcvs workload   print a generated workload schedule
     tcvs session    scripted two-user CVS session (commit/checkout/log)
     tcvs inspect    build a database and show Merkle tree / VO facts
     tcvs store-inspect  read-only dump of a durable store directory
     tcvs serve      the server as a TCP daemon over a durable store
     tcvs client     one protocol user, over TCP, against a daemon
     tcvs proxy      fault-injecting TCP proxy (drop/delay/dup/partition)
     tcvs route      cluster router: compose shard-daemon roots for clients
     tcvs serve-cluster  spawn N shard daemons plus the router, foreground
     tcvs trace-join merge per-process span journals into one timeline
     tcvs stats      scrape a daemon's admin endpoint once
     tcvs top        refreshing terminal view of a daemon's admin endpoint

   Everything is deterministic given --seed (network timing aside). *)

open Cmdliner
open Tcvs
module S = Workload.Schedule

(* ---- shared argument definitions -------------------------------------- *)

let seed_arg =
  let doc = "PRNG seed; equal seeds give identical runs." in
  Arg.(value & opt string "tcvs-cli" & info [ "seed" ] ~docv:"SEED" ~doc)

let verbosity_conv =
  let parse s =
    match Log_setup.level_of_string s with
    | Ok lvl -> Ok lvl
    | Error other -> Error (`Msg (Printf.sprintf "unknown verbosity %S" other))
  in
  let print fmt lvl = Format.pp_print_string fmt (Logs.level_to_string lvl) in
  Arg.conv (parse, print)

let verbosity_arg =
  let doc = "Log verbosity: quiet, error, warn, info or debug." in
  let env = Cmd.Env.info "TCVS_LOG" ~doc:"Default log verbosity." in
  Arg.(
    value
    & opt verbosity_conv (Some Logs.Warning)
    & info [ "verbosity" ] ~docv:"LEVEL" ~doc ~env)

let metrics_arg =
  let doc =
    "Write the run's metrics registry as a JSON report to $(docv) after the run \
     ($(b,-) for stdout). Same seed, same report, byte for byte."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let trace_arg =
  let doc =
    "Record span-style trace events (message sends, sync sessions, transaction \
     issue/complete) and write them to $(docv) as JSON lines ($(b,-) for stdout, \
     which is also the default when no file is given)."
  in
  Arg.(
    value
    & opt ~vopt:(Some "-") (some string) None
    & info [ "trace" ] ~docv:"FILE" ~doc)

let write_lines path lines =
  match path with
  | "-" -> List.iter print_endline lines
  | path ->
      let oc = open_out path in
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        lines;
      close_out oc

let users_arg =
  let doc = "Number of users." in
  Arg.(value & opt int 4 & info [ "users"; "n" ] ~docv:"N" ~doc)

let rounds_arg =
  let doc = "Length of the generated workload, in rounds." in
  Arg.(value & opt int 600 & info [ "rounds" ] ~docv:"ROUNDS" ~doc)

let k_arg =
  let doc = "Synchronisation period k (operations between syncs)." in
  Arg.(value & opt int 8 & info [ "k" ] ~docv:"K" ~doc)

let epoch_arg =
  let doc = "Epoch length t for protocol 3 (rounds)." in
  Arg.(value & opt int 120 & info [ "epoch-len"; "t" ] ~docv:"ROUNDS" ~doc)

let protocol_conv k epoch_len =
  let parse s =
    match s with
    | "1" | "protocol-1" -> Ok (Harness.Protocol_1 { k })
    | "2" | "protocol-2" ->
        Ok (Harness.Protocol_2 { k; tag_mode = `Tagged; check_gctr = true; sync_trigger = `Per_user })
    | "2-untagged" ->
        Ok
          (Harness.Protocol_2
             { k; tag_mode = `Untagged; check_gctr = true; sync_trigger = `Per_user })
    | "2-global" ->
        Ok
          (Harness.Protocol_2
             { k; tag_mode = `Tagged; check_gctr = true; sync_trigger = `Global })
    | "3" | "protocol-3" -> Ok (Harness.Protocol_3 { epoch_len })
    | "4" | "protocol-4" -> Ok (Harness.Protocol_4 { announce_every = 4 })
    | "token" -> Ok (Harness.Token_baseline { slot_len = 4 })
    | "none" | "unverified" -> Ok Harness.Unverified
    | _ -> Error (`Msg (Printf.sprintf "unknown protocol %S" s))
  in
  parse

let protocol_arg =
  let doc =
    "Protocol: 1, 2, 2-untagged, 2-global, 3, 4, token, or none (the unverified baseline)."
  in
  Arg.(value & opt string "2" & info [ "protocol"; "p" ] ~docv:"PROTO" ~doc)

let adversary_arg =
  let doc =
    "Server behaviour: honest, tamper:N, drop:N, fork:N, rollback:N:DEPTH, \
     bitrot:N (N = operation index at which the attack fires; bitrot \
     silently corrupts stored bytes under stale digests and is only \
     caught with $(b,--sanitize)), crash:R, rollback-crash:R (R = round at \
     which the server crashes and restarts from its durable store; both \
     require $(b,--store); the rollback variant recovers from the stale \
     previous snapshot generation and must be detected), torn-manifest:R, \
     torn-manifest-hard:R (crash at round R tearing the MANIFEST mid-write; \
     the plain variant must repair from MANIFEST.bak and recover cleanly, \
     the hard variant wrecks the backup too and the server must halt \
     loudly rather than serve a half-initialized shard map), \
     checkpoint-crash:R (crash mid-checkpoint, next-generation snapshot \
     leftovers unpublished; an honest crash that must recover \
     byte-identically). R counts session rounds: simulator rounds, and \
     under $(b,serve) the lockstep ticks (the cluster round on a shard \
     daemon, which ends only the rounds it seals, so the crash comes at \
     the first sealed round from R on); a free session has no rounds, \
     so these never fire there."
  in
  Arg.(value & opt string "honest" & info [ "adversary"; "a" ] ~docv:"ADV" ~doc)

let store_arg =
  let doc =
    "Run the server on a durable store (per-shard write-ahead logs + \
     checksummed snapshots) rooted at $(docv). Created on first use. An \
     existing directory is loaded from disk: $(b,serve) continues its session \
     in place, $(b,simulate) starts a new session over its data. Required by \
     the crash adversaries."
  in
  Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)

(* Every command takes the same shard range, the one Store.Shard_map
   enforces; out of it is a usage error, as every other bad argument. *)
let check_shard_count ~flag n =
  if n < 1 || n > Mtree.Vo.max_shards then begin
    Printf.eprintf "error: %s must be between 1 and %d\n" flag Mtree.Vo.max_shards;
    exit 2
  end

let shards_arg =
  let doc =
    "Partition the server database into $(docv) key-range shards (1 to 61), \
     each with its own Merkle tree (and WAL file under $(b,--store)). The \
     exchanged root digest composes the sorted shard roots; verdicts are \
     unchanged."
  in
  Arg.(value & opt (some int) None & info [ "shards" ] ~docv:"N" ~doc)

let durability_conv =
  let parse s =
    match Store.durability_of_string s with
    | Ok d -> Ok d
    | Error m -> Error (`Msg m)
  in
  let print fmt d = Format.pp_print_string fmt (Store.durability_to_string d) in
  Arg.conv (parse, print)

let durability_arg =
  let doc =
    "WAL group-commit cadence under $(b,--store): $(b,per-op) (flush every \
     logged record — the default, and the mode recovery digests are pinned \
     in) or $(b,per-round) (one group commit per simulation round / daemon \
     tick)."
  in
  Arg.(value & opt durability_conv Store.Per_op & info [ "durability" ] ~docv:"MODE" ~doc)

let sanitize_arg =
  let doc =
    "Enable runtime invariant sanitizers (Merkle re-hash, register-ledger and \
     epoch checks). Equivalent to setting TCVS_SANITIZE=1."
  in
  Arg.(value & flag & info [ "sanitize" ] ~doc)

let parse_adversary ~users s =
  let fail () = Error (`Msg (Printf.sprintf "cannot parse adversary %S" s)) in
  match String.split_on_char ':' s with
  | [ "honest" ] -> Ok Adversary.Honest
  | [ "tamper"; n ] -> (
      match int_of_string_opt n with
      | Some at_op -> Ok (Adversary.Tamper_value { at_op })
      | None -> fail ())
  | [ "drop"; n ] -> (
      match int_of_string_opt n with
      | Some at_op -> Ok (Adversary.Drop_update { at_op })
      | None -> fail ())
  | [ "fork"; n ] -> (
      match int_of_string_opt n with
      | Some at_op ->
          (* First half of the users keeps the true branch. *)
          Ok (Adversary.Fork { at_op; group_a = List.init (max 1 (users / 2)) Fun.id })
      | None -> fail ())
  | [ "rollback"; n; d ] -> (
      match (int_of_string_opt n, int_of_string_opt d) with
      | Some at_op, Some depth -> Ok (Adversary.Rollback { at_op; depth; repeat = 1 })
      | _ -> fail ())
  | [ "bitrot"; n ] -> (
      match int_of_string_opt n with
      | Some at_op -> Ok (Adversary.Bitrot { at_op })
      | None -> fail ())
  | [ "crash"; r ] -> (
      match int_of_string_opt r with
      | Some at_round -> Ok (Adversary.Crash { at_round })
      | None -> fail ())
  | [ "rollback-crash"; r ] -> (
      match int_of_string_opt r with
      | Some at_round -> Ok (Adversary.Rollback_crash { at_round })
      | None -> fail ())
  | [ "torn-manifest"; r ] -> (
      match int_of_string_opt r with
      | Some at_round -> Ok (Adversary.Torn_manifest { at_round; wreck = false })
      | None -> fail ())
  | [ "torn-manifest-hard"; r ] -> (
      match int_of_string_opt r with
      | Some at_round -> Ok (Adversary.Torn_manifest { at_round; wreck = true })
      | None -> fail ())
  | [ "checkpoint-crash"; r ] -> (
      match int_of_string_opt r with
      | Some at_round -> Ok (Adversary.Checkpoint_crash { at_round })
      | None -> fail ())
  | _ -> fail ()

let generated_workload ~users ~rounds ~seed =
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

(* ---- simulate ----------------------------------------------------------- *)

let print_outcome protocol adversary (o : Harness.outcome) =
  Printf.printf "protocol      : %s\n" (Harness.protocol_name protocol);
  Printf.printf "adversary     : %s\n" (Adversary.name adversary);
  Printf.printf "transactions  : %d issued, %d completed\n" o.issued_transactions
    o.completed_transactions;
  Printf.printf "rounds        : %d\n" o.rounds_run;
  Printf.printf "messages      : %d (%d bytes), %d broadcast deliveries\n" o.messages_sent
    o.bytes_sent o.broadcasts_sent;
  Printf.printf "ground truth  : %s\n"
    (if o.oracle.Sim.Oracle.deviated then "run DEVIATES from every trusted run"
     else "run is consistent with a trusted run");
  (match o.alarms with
  | [] -> Printf.printf "detection     : none\n"
  | a :: _ ->
      Printf.printf "detection     : %s at round %d\n" (Sim.Id.to_string a.Sim.Engine.agent)
        a.Sim.Engine.at_round;
      Printf.printf "reason        : %s\n" a.Sim.Engine.reason;
      Printf.printf "ops after vio : %d\n" o.ops_after_violation);
  match Harness.classify o with
  | `True_alarm -> Printf.printf "classification: TRUE ALARM\n"
  | `False_alarm -> Printf.printf "classification: FALSE ALARM (bug!)\n"
  | `Missed -> Printf.printf "classification: MISSED VIOLATION\n"
  | `Clean -> Printf.printf "classification: clean run\n"

let simulate_cmd =
  let run seed users rounds k epoch_len protocol_str adversary_str sanitize verbosity
      metrics trace_file store_dir shards durability =
    Log_setup.install ~level:verbosity ();
    Option.iter (check_shard_count ~flag:"--shards") shards;
    if sanitize then Sanitize.set_enabled true;
    match
      ( protocol_conv k epoch_len protocol_str,
        parse_adversary ~users adversary_str )
    with
    | Error (`Msg m), _ | _, Error (`Msg m) ->
        Printf.eprintf "error: %s\n" m;
        exit 2
    | Ok protocol, Ok adversary ->
        (* Arm tracing before the run; the flag survives the harness's
           registry reset. *)
        if trace_file <> None then Obs.set_tracing true;
        let events = generated_workload ~users ~rounds ~seed in
        let setup =
          {
            (Harness.default_setup ~protocol ~users ~adversary) with
            Harness.seed;
            store_dir;
            shards;
            store_durability = durability;
          }
        in
        (match Harness.validate setup with
        | Ok () -> ()
        | Error e ->
            Printf.eprintf "error: %s\n" (Harness.setup_error_message e);
            exit 2);
        let outcome =
          try Harness.run setup ~events
          with Harness.Setup_error e ->
            Printf.eprintf "error: %s\n" (Harness.setup_error_message e);
            exit 2
        in
        (* Write the machine-readable artefacts before the human
           summary so a `--metrics -` report is not interleaved. *)
        (match trace_file with
        | Some path -> write_lines path (Obs.Report.trace_lines ())
        | None -> ());
        (match metrics with Some path -> Obs.Report.write path | None -> ());
        if metrics <> Some "-" && trace_file <> Some "-" then
          print_outcome protocol adversary outcome
  in
  let doc = "Run one protocol against one adversary over a generated workload." in
  Cmd.v
    (Cmd.info "simulate" ~doc)
    Term.(
      const run $ seed_arg $ users_arg $ rounds_arg $ k_arg $ epoch_arg $ protocol_arg
      $ adversary_arg $ sanitize_arg $ verbosity_arg $ metrics_arg $ trace_arg
      $ store_arg $ shards_arg $ durability_arg)

(* ---- matrix -------------------------------------------------------------- *)

let matrix_cmd =
  let run seed users rounds k epoch_len verbosity =
    Log_setup.install ~level:verbosity ();
    let events = generated_workload ~users ~rounds ~seed in
    let protocols =
      [
        Harness.Unverified;
        Harness.Protocol_1 { k };
        Harness.Protocol_2 { k; tag_mode = `Tagged; check_gctr = true; sync_trigger = `Per_user };
        Harness.Protocol_3 { epoch_len };
        Harness.Protocol_4 { announce_every = 4 };
      ]
    in
    let adversaries =
      [
        Adversary.Honest;
        Adversary.Tamper_value { at_op = 10 };
        Adversary.Drop_update { at_op = 10 };
        Adversary.Fork { at_op = 10; group_a = List.init (max 1 (users / 2)) Fun.id };
        Adversary.Rollback { at_op = 12; depth = 4; repeat = 1 };
      ]
    in
    Printf.printf "%-24s %-22s %-10s %-28s\n" "protocol" "adversary" "oracle" "detection";
    List.iter
      (fun protocol ->
        List.iter
          (fun adversary ->
            let o =
              Harness.run (Harness.default_setup ~protocol ~users ~adversary) ~events
            in
            Printf.printf "%-24s %-22s %-10s %-28s\n" (Harness.protocol_name protocol)
              (Adversary.name adversary)
              (if o.oracle.Sim.Oracle.deviated then "deviates" else "-")
              (match o.alarms with
              | [] -> if adversary = Adversary.Honest then "clean" else "MISSED"
              | a :: _ -> Printf.sprintf "round %d (%d ops after)" a.Sim.Engine.at_round
                            o.ops_after_violation))
          adversaries;
        print_newline ())
      protocols
  in
  let doc = "Run the full protocol x adversary detection matrix." in
  Cmd.v
    (Cmd.info "matrix" ~doc)
    Term.(const run $ seed_arg $ users_arg $ rounds_arg $ k_arg $ epoch_arg $ verbosity_arg)

(* ---- workload -------------------------------------------------------------- *)

let workload_cmd =
  let run seed users rounds partitionable k =
    let events =
      if partitionable then
        S.partitionable
          {
            S.group_a = List.init (max 1 (users / 2)) Fun.id;
            group_b = List.init (users - (users / 2)) (fun i -> (users / 2) + i);
            shared_file = 7;
            k;
            private_files = 16;
          }
          ~seed
      else generated_workload ~users ~rounds ~seed
    in
    List.iter (fun ev -> Format.printf "%a@." S.pp_event ev) events;
    Printf.printf "# %d events\n" (List.length events)
  in
  let partitionable_arg =
    Arg.(value & flag & info [ "partitionable" ] ~doc:"Generate the Figure 1 workload shape.")
  in
  let doc = "Print a generated workload schedule." in
  Cmd.v
    (Cmd.info "workload" ~doc)
    Term.(const run $ seed_arg $ users_arg $ rounds_arg $ partitionable_arg $ k_arg)

(* ---- session ------------------------------------------------------------- *)

let session_cmd =
  let run k adversary_str verbosity =
    Log_setup.install ~level:verbosity ();
    match parse_adversary ~users:2 adversary_str with
    | Error (`Msg m) ->
        Printf.eprintf "error: %s\n" m;
        exit 2
    | Ok adversary ->
        let engine = Sim.Engine.create ~measure:Message.encoded_size () in
        let trace = Sim.Trace.create () in
        let server =
          Server.on_engine engine
            (Server.create
               { Server.mode = `Plain; epoch_len = None; adversary }
               ~db:(Store.Shard_db.create ~branching:8 ~shards:1 []))
        in
        let config =
          Protocol2.default_config ~n:2 ~k ~initial_root:(Server.initial_root server)
        in
        let session u =
          Cvs.session ~engine
            ~base:
              (Protocol2.base
                 (User_base.on_engine engine ~user:u ~agent:Protocol2.agent
                    (Protocol2.create config ~user:u ~trace)))
        in
        let alice = session 0 and bob = session 1 in
        let step name = function
          | Ok _ -> Printf.printf "ok   %s\n" name
          | Error e -> Printf.printf "FAIL %s: %s\n" name (Format.asprintf "%a" Cvs.pp_error e)
        in
        step "alice commits main.ml r1"
          (Result.map ignore (Cvs.commit alice ~path:"main.ml" ~content:"v1" ~log:"import"));
        step "bob checks out main.ml"
          (Result.map ignore (Cvs.checkout bob ~path:"main.ml"));
        step "bob commits main.ml r2"
          (Result.map ignore (Cvs.commit bob ~path:"main.ml" ~content:"v2" ~log:"edit"));
        step "alice reads the log" (Result.map ignore (Cvs.log alice ~path:"main.ml"));
        step "alice commits util.ml r1"
          (Result.map ignore (Cvs.commit alice ~path:"util.ml" ~content:"u1" ~log:"add"));
        step "bob lists files" (Result.map ignore (Cvs.list_files bob ~prefix:""));
        (match Sim.Engine.alarms engine with
        | [] -> Printf.printf "no alarms — %d messages exchanged\n" (Sim.Engine.messages_sent engine)
        | a :: _ ->
            Printf.printf "ALARM by %s: %s\n" (Sim.Id.to_string a.Sim.Engine.agent)
              a.Sim.Engine.reason)
  in
  let doc = "Run a scripted two-user CVS session over Protocol II." in
  Cmd.v (Cmd.info "session" ~doc) Term.(const run $ k_arg $ adversary_arg $ verbosity_arg)

(* ---- inspect -------------------------------------------------------------- *)

let inspect_cmd =
  let run items branching =
    if items < 0 then begin
      Printf.eprintf "error: --items must be at least 0\n";
      exit 2
    end;
    if branching < 4 then begin
      Printf.eprintf "error: --branching must be at least 4\n";
      exit 2
    end;
    let db =
      Mtree.Merkle_btree.of_alist ~branching
        (List.init items (fun i -> (Printf.sprintf "key%06d" i, Printf.sprintf "value-%d" i)))
    in
    Printf.printf "items        : %d\n" items;
    Printf.printf "branching    : %d\n" branching;
    Printf.printf "depth        : %d\n" (Mtree.Merkle_btree.depth db);
    Printf.printf "root digest  : %s\n"
      (Crypto.Hex.encode (Mtree.Merkle_btree.root_digest db));
    let key = Printf.sprintf "key%06d" (items / 2) in
    List.iter
      (fun (name, op) ->
        let vo = Mtree.Vo.generate db op in
        Printf.printf "VO for %-22s: %5d bytes, %3d pruned digests, %2d nodes\n" name
          (Mtree.Vo.size_bytes vo) (Mtree.Vo.stub_count vo) (Mtree.Vo.materialized_nodes vo))
      [
        ("point read", Mtree.Vo.Get key);
        ("update", Mtree.Vo.Set (key, "new"));
        ("delete", Mtree.Vo.Remove key);
        ("32-key range", Mtree.Vo.Range (key, Printf.sprintf "key%06d" ((items / 2) + 31)));
      ]
  in
  let items_arg =
    Arg.(value & opt int 4096 & info [ "items" ] ~docv:"N" ~doc:"Database size.")
  in
  let branching_arg =
    Arg.(value & opt int 16 & info [ "branching"; "m" ] ~docv:"M" ~doc:"B+-tree branching.")
  in
  let doc = "Build a database and print Merkle tree / verification-object facts." in
  Cmd.v (Cmd.info "inspect" ~doc) Term.(const run $ items_arg $ branching_arg)

(* ---- store-inspect -------------------------------------------------------- *)

let store_inspect_cmd =
  let run dir =
    match Store.inspect ~dir with
    | Error e ->
        Printf.eprintf "error: %s\n" e;
        exit 1
    | Ok info ->
        Printf.printf "store         : %s\n" info.Store.info_dir;
        Printf.printf "manifest      : %s\n" info.Store.info_manifest;
        Printf.printf "shards        : %d (branching %d)\n" info.Store.info_shards
          info.Store.info_branching;
        Printf.printf "generation    : %d\n" info.Store.info_generation;
        Printf.printf "next-lsn      : %d\n" info.Store.info_next_lsn;
        let bad = ref 0 in
        List.iter
          (fun (s : Store.stream_info) ->
            let chain = s.Store.str_base_chain in
            let full, deltas =
              match chain with
              | [] -> (0, 0)
              | (_, full) :: deltas ->
                  (full, List.fold_left (fun n (_, bytes) -> n + bytes) 0 deltas)
            in
            Printf.printf
              "stream %-8s: base %s (%s, %d full + %d delta bytes), log %s: %d \
               records, lsn %d..%d, %d bytes, %s\n"
              s.Store.str_name
              (String.concat "+" (List.map fst chain))
              (if s.Store.str_base_ok then "ok" else "BAD")
              full deltas s.Store.str_log_file s.Store.str_records s.Store.str_lsn_lo
              s.Store.str_lsn_hi s.Store.str_log_bytes s.Store.str_log_status;
            if not s.Store.str_base_ok then incr bad;
            (* a torn tail is a legal crash mid-append *)
            match s.Store.str_log_status with "ok" | "torn tail" -> () | _ -> incr bad)
          info.Store.info_streams;
        (match info.Store.info_orphans with
        | [] -> Printf.printf "orphans       : none\n"
        | l ->
            Printf.printf "orphans       : %d (%s)\n" (List.length l)
              (String.concat ", " l));
        if !bad > 0 then begin
          Printf.printf "verdict       : %d damaged file(s)\n" !bad;
          exit 3
        end
        else Printf.printf "verdict       : ok\n"
  in
  let dir_arg =
    let doc = "Store directory to inspect." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc)
  in
  let doc =
    "Inspect a durable store directory without touching it: manifest, \
     generation, per-stream base snapshots (a shard's chain: full snapshot, \
     then deltas) and WAL logs (record counts, LSN ranges, checksum status), \
     orphaned crash leftovers. Exits 3 when any base snapshot chain or log is \
     damaged (a torn log tail is legal)."
  in
  Cmd.v (Cmd.info "store-inspect" ~doc) Term.(const run $ dir_arg)

(* ---- networking: serve / client / proxy ---------------------------------- *)

let parse_hostport s =
  match String.rindex_opt s ':' with
  | Some i -> (
      let host = String.sub s 0 i in
      match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
      | Some port when port > 0 ->
          Ok ((if host = "" then "127.0.0.1" else host), port)
      | _ -> Error (Printf.sprintf "cannot parse %S as HOST:PORT" s))
  | None -> (
      match int_of_string_opt s with
      | Some port when port > 0 -> Ok ("127.0.0.1", port)
      | _ -> Error (Printf.sprintf "cannot parse %S as HOST:PORT" s))

let listen_arg =
  let doc = "Port to bind on 127.0.0.1 ($(b,0) picks an ephemeral port)." in
  Arg.(value & opt int 0 & info [ "listen" ] ~docv:"PORT" ~doc)

let port_file_arg =
  let doc = "Write the bound port to $(docv) (tmp+rename) once listening." in
  Arg.(value & opt (some string) None & info [ "port-file" ] ~docv:"FILE" ~doc)

let connect_arg =
  let doc = "Server address, as HOST:PORT or just PORT (host defaults to 127.0.0.1)." in
  Arg.(required & opt (some string) None & info [ "connect" ] ~docv:"HOST:PORT" ~doc)

let journal_arg =
  let doc =
    "Append per-operation span events to $(docv) as JSON lines; merge the \
     journals of a daemon, proxy and clients with $(b,tcvs trace-join)."
  in
  Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)

let serve_cmd =
  let run seed users k epoch_len protocol_str adversary_str sanitize verbosity listen
      port_file store_dir shards shard_id shard_count durability max_conns journal
      admin_port admin_port_file metrics =
    Log_setup.install ~level:verbosity ();
    Option.iter (check_shard_count ~flag:"--shards") shards;
    check_shard_count ~flag:"--shard-count" shard_count;
    if sanitize then Sanitize.set_enabled true;
    match (protocol_conv k epoch_len protocol_str, parse_adversary ~users adversary_str) with
    | Error (`Msg m), _ | _, Error (`Msg m) ->
        Printf.eprintf "error: %s\n" m;
        exit 2
    | Ok protocol, Ok adversary -> (
        (match adversary with
        | ( Adversary.Crash _ | Adversary.Rollback_crash _
          | Adversary.Torn_manifest _ | Adversary.Checkpoint_crash _ )
          when store_dir = None ->
            Printf.eprintf "error: %s\n"
              (Harness.setup_error_message (Harness.Store_required adversary));
            exit 2
        | _ -> ());
        let cfg =
          {
            Net.Daemon.default_config with
            Net.Daemon.listen_port = listen;
            port_file;
            store_dir;
            shards = Option.value ~default:1 shards;
            protocol;
            users;
            seed;
            adversary;
            max_conns;
            durability;
            journal;
            admin_port;
            admin_port_file;
            shard_id;
            shard_count;
          }
        in
        match Net.Daemon.run cfg with
        | Ok () ->
            (match metrics with Some path -> Obs.Report.write path | None -> ())
        | Error e ->
            Printf.eprintf "error: %s\n" e;
            exit 1)
  in
  let max_conns_arg =
    let doc = "Connection limit; excess connections are rejected busy." in
    Arg.(value & opt int 64 & info [ "max-conns" ] ~docv:"N" ~doc)
  in
  let admin_arg =
    let doc =
      "Serve read-only JSON snapshots (live registry including volatile \
       metrics, per-connection I/O gauges) on a second loopback port \
       ($(b,0) picks an ephemeral port; scrape with $(b,tcvs stats) or \
       $(b,tcvs top))."
    in
    Arg.(value & opt (some int) None & info [ "admin" ] ~docv:"PORT" ~doc)
  in
  let admin_port_file_arg =
    let doc = "Write the bound admin port to $(docv) (tmp+rename)." in
    Arg.(value & opt (some string) None & info [ "admin-port-file" ] ~docv:"FILE" ~doc)
  in
  let shard_id_arg =
    let doc =
      "Serve as shard $(docv) of a $(b,--shard-count)-way cluster: a 1-shard \
       store over this shard's slice of the seeded key space, accepting only \
       a router's shard-link connection (see $(b,tcvs route))."
    in
    Arg.(value & opt (some int) None & info [ "shard-id" ] ~docv:"I" ~doc)
  in
  let shard_count_arg =
    let doc = "Total shards in the cluster (with $(b,--shard-id))." in
    Arg.(value & opt int 1 & info [ "shard-count" ] ~docv:"N" ~doc)
  in
  let doc = "Serve the Trusted-CVS server as a TCP daemon over a durable store." in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ seed_arg $ users_arg $ k_arg $ epoch_arg $ protocol_arg
      $ adversary_arg $ sanitize_arg $ verbosity_arg $ listen_arg $ port_file_arg
      $ store_arg $ shards_arg $ shard_id_arg $ shard_count_arg $ durability_arg
      $ max_conns_arg $ journal_arg $ admin_arg $ admin_port_file_arg $ metrics_arg)

let client_cmd =
  let run seed users rounds k epoch_len protocol_str verbosity connect user shards
      response_timeout sync_timeout max_reconnects journal =
    Log_setup.install ~level:verbosity ();
    Option.iter (check_shard_count ~flag:"--shards") shards;
    match (protocol_conv k epoch_len protocol_str, parse_hostport connect) with
    | Error (`Msg m), _ | _, Error m ->
        Printf.eprintf "error: %s\n" m;
        exit 2
    | Ok protocol, Ok (host, port) -> (
        (* Same generator as `simulate`, lowered with the same global
           write numbering — verdicts are comparable byte-for-byte. *)
        let script =
          Harness.script_of_events (generated_workload ~users ~rounds ~seed)
        in
        let cfg =
          {
            (Net.Client.default_config ~user ~port) with
            Net.Client.host;
            users;
            protocol;
            seed;
            script;
            shards = Option.value ~default:1 shards;
            response_timeout = Some response_timeout;
            sync_timeout;
            max_reconnects;
            journal;
          }
        in
        match Net.Client.run cfg with
        | Error e ->
            Printf.eprintf "error: %s\n" e;
            exit 1
        | Ok v ->
            Printf.printf "user          : %d\n" user;
            Printf.printf "rounds        : %d\n" v.Net.Client.v_rounds;
            Printf.printf "reconnects    : %d\n" v.Net.Client.v_reconnects;
            Printf.printf "session       : %s%s\n"
              (if v.Net.Client.v_session_alarmed then "ALARMED" else "clean")
              (if v.Net.Client.v_session_reason = "" then ""
               else " (" ^ v.Net.Client.v_session_reason ^ ")");
            List.iter
              (fun (round, reason) ->
                Printf.printf "local alarm   : round %d: %s\n" round reason)
              v.Net.Client.v_local_alarms;
            Printf.printf "verdict       : %s\n"
              (if v.Net.Client.v_alarmed then "ALARM" else "clean");
            exit (if v.Net.Client.v_alarmed then 3 else 0))
  in
  let user_arg =
    let doc = "This client's user id (0-based; each id connects exactly once)." in
    Arg.(required & opt (some int) None & info [ "user"; "u" ] ~docv:"ID" ~doc)
  in
  let response_timeout_arg =
    let doc = "Alarm when a transaction gets no response within $(docv) rounds." in
    Arg.(value & opt int 64 & info [ "response-timeout" ] ~docv:"ROUNDS" ~doc)
  in
  let sync_timeout_arg =
    let doc =
      "Protocols I and II: alarm when a sync session stays unresolved for \
       $(docv) rounds (partial synchrony on the external channel; required to \
       detect a partitioned broadcast network)."
    in
    Arg.(value & opt (some int) None & info [ "sync-timeout" ] ~docv:"ROUNDS" ~doc)
  in
  let max_reconnects_arg =
    let doc = "Reconnection attempts (exponential backoff) before giving up." in
    Arg.(value & opt int 8 & info [ "max-reconnects" ] ~docv:"N" ~doc)
  in
  let doc = "Run one protocol user against a tcvs serve daemon." in
  Cmd.v (Cmd.info "client" ~doc)
    Term.(
      const run $ seed_arg $ users_arg $ rounds_arg $ k_arg $ epoch_arg $ protocol_arg
      $ verbosity_arg $ connect_arg $ user_arg $ shards_arg $ response_timeout_arg
      $ sync_timeout_arg $ max_reconnects_arg $ journal_arg)

let proxy_cmd =
  let parse_partition s =
    let ints x = String.split_on_char ',' x |> List.filter_map int_of_string_opt in
    match String.split_on_char '@' s with
    | [ groups; r ] -> (
        match (String.split_on_char '|' groups, int_of_string_opt r) with
        | [ a; b ], Some from_round -> Ok (ints a, ints b, from_round)
        | _ -> Error (Printf.sprintf "cannot parse partition %S (want A,..|B,..@ROUND)" s))
    | _ -> Error (Printf.sprintf "cannot parse partition %S (want A,..|B,..@ROUND)" s)
  in
  let run verbosity listen port_file connect seed drop delay duplicate partition_str
      journal =
    Log_setup.install ~level:verbosity ();
    let partition =
      match partition_str with
      | None -> Ok None
      | Some s -> Result.map Option.some (parse_partition s)
    in
    match (parse_hostport connect, partition) with
    | Error m, _ | _, Error m ->
        Printf.eprintf "error: %s\n" m;
        exit 2
    | Ok (dst_host, dst_port), Ok partition -> (
        let cfg =
          {
            (Net.Proxy.default_config ~dst_port) with
            Net.Proxy.listen_port = listen;
            port_file;
            dst_host;
            seed;
            faults = { Net.Proxy.drop; delay; duplicate; partition };
            journal;
          }
        in
        match Net.Proxy.run cfg with
        | Ok () -> ()
        | Error e ->
            Printf.eprintf "error: %s\n" e;
            exit 1)
  in
  let prob name doc = Arg.(value & opt float 0. & info [ name ] ~docv:"P" ~doc) in
  let partition_arg =
    let doc =
      "Partition the broadcast relay between user groups from a round on, e.g. \
       $(b,0,1|2,3\\@40): server-to-client Delivers crossing the cut are dropped."
    in
    Arg.(value & opt (some string) None & info [ "partition" ] ~docv:"SPEC" ~doc)
  in
  let doc =
    "Fault-injecting TCP proxy between tcvs clients and a tcvs serve daemon \
     (drops, delays, duplicates and partitions payload frames; Figure 1 over \
     real sockets)."
  in
  Cmd.v (Cmd.info "proxy" ~doc)
    Term.(
      const run $ verbosity_arg $ listen_arg $ port_file_arg $ connect_arg $ seed_arg
      $ prob "drop" "Drop each payload frame with probability $(docv)."
      $ prob "delay" "Delay each payload frame to the next round boundary with probability $(docv)."
      $ prob "duplicate" "Forward each payload frame twice with probability $(docv)."
      $ partition_arg $ journal_arg)

(* ---- cluster: route / serve-cluster --------------------------------------- *)

let wait_port_file ?(timeout = 15.0) path =
  let deadline = Unix.gettimeofday () +. timeout in
  let read () =
    match open_in path with
    | exception Sys_error _ -> None
    | ic ->
        let line = try Some (input_line ic) with End_of_file -> None in
        close_in ic;
        Option.bind line (fun l ->
            match int_of_string_opt (String.trim l) with
            | Some p when p > 0 -> Some p
            | _ -> None)
  in
  let rec loop () =
    match read () with
    | Some p -> Ok p
    | None ->
        if Unix.gettimeofday () > deadline then
          Error (Printf.sprintf "timed out waiting for port file %s" path)
        else begin
          Unix.sleepf 0.05;
          loop ()
        end
  in
  loop ()

let spawn_tcvs args =
  Unix.create_process Sys.executable_name
    (Array.of_list (Filename.basename Sys.executable_name :: args))
    Unix.stdin Unix.stdout Unix.stderr

(* SIGTERM first (the daemons drain), SIGKILL whoever outstays it. *)
let reap_children ?(timeout = 5.0) pids =
  List.iter (fun pid -> try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ()) pids;
  let deadline = Unix.gettimeofday () +. timeout in
  List.iter
    (fun pid ->
      let rec wait () =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ ->
            if Unix.gettimeofday () > deadline then begin
              (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
              ignore (Unix.waitpid [] pid)
            end
            else begin
              Unix.sleepf 0.05;
              wait ()
            end
        | _ -> ()
      in
      try wait () with Unix.Unix_error _ -> ())
    pids

let fresh_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  path

(* Spawn the N shard daemons of a cluster and wait for their ports.
   Shards run the plain protocol: composition and verification live at
   the router and the clients; signing protocols stay single-daemon. *)
let start_shards ~dir ~shards ~seed ?store_base ?journal_base () =
  let spawn i =
    let pf = Filename.concat dir (Printf.sprintf "shard%d.port" i) in
    let args =
      [
        "serve"; "--shard-id"; string_of_int i; "--shard-count";
        string_of_int shards; "--protocol"; "none"; "--listen"; "0";
        "--port-file"; pf; "--seed"; seed;
      ]
      @ (match store_base with
        | Some b -> [ "--store"; Filename.concat b (Printf.sprintf "shard%d" i) ]
        | None -> [])
      @
      match journal_base with
      | Some b -> [ "--journal"; Filename.concat b (Printf.sprintf "shard%d.jsonl" i) ]
      | None -> []
    in
    (spawn_tcvs args, pf)
  in
  let procs = List.init shards spawn in
  let pids = List.map fst procs in
  let rec collect acc = function
    | [] -> Ok (List.rev acc)
    | (_, pf) :: rest -> (
        match wait_port_file pf with
        | Ok p -> collect (p :: acc) rest
        | Error e ->
            reap_children pids;
            Error e)
  in
  Result.map (fun ports -> (pids, ports)) (collect [] procs)

let route_cmd =
  let run verbosity listen port_file shard_strs shard_port_files users files max_conns
      journal admin_port admin_port_file metrics =
    Log_setup.install ~level:verbosity ();
    let addrs =
      List.map parse_hostport shard_strs
      @ List.map
          (fun pf -> Result.map (fun p -> ("127.0.0.1", p)) (wait_port_file pf))
          shard_port_files
    in
    match
      List.fold_left
        (fun acc r ->
          match (acc, r) with
          | Error m, _ -> Error m
          | _, Error m -> Error m
          | Ok l, Ok a -> Ok (a :: l))
        (Ok []) addrs
    with
    | Error m ->
        Printf.eprintf "error: %s\n" m;
        exit 2
    | Ok rev_addrs -> (
        let shard_addrs = Array.of_list (List.rev rev_addrs) in
        let cfg =
          {
            (Net.Router.default_config ~shard_addrs) with
            Net.Router.listen_port = listen;
            port_file;
            files;
            users;
            max_conns;
            journal;
            admin_port;
            admin_port_file;
          }
        in
        match Net.Router.run cfg with
        | Ok () ->
            (match metrics with Some path -> Obs.Report.write path | None -> ())
        | Error e ->
            Printf.eprintf "error: %s\n" e;
            exit 1)
  in
  let shard_arg =
    let doc =
      "A shard daemon's address (repeat once per shard, in shard-id order)."
    in
    Arg.(value & opt_all string [] & info [ "shard" ] ~docv:"HOST:PORT" ~doc)
  in
  let shard_port_file_arg =
    let doc =
      "Read a shard daemon's loopback port from $(docv) (repeatable; appended \
       after $(b,--shard) addresses in shard-id order; waits for the file)."
    in
    Arg.(value & opt_all string [] & info [ "shard-port-file" ] ~docv:"FILE" ~doc)
  in
  let files_arg =
    let doc = "Seeded key-space size — must match the shard daemons." in
    Arg.(value & opt int 32 & info [ "files" ] ~docv:"N" ~doc)
  in
  let max_conns_arg =
    let doc = "Connection limit; excess connections are rejected busy." in
    Arg.(value & opt int 64 & info [ "max-conns" ] ~docv:"N" ~doc)
  in
  let admin_arg =
    let doc =
      "Serve read-only JSON snapshots (cluster topology, per-shard serial \
       roots, live registry) on a second loopback port ($(b,0) picks an \
       ephemeral port)."
    in
    Arg.(value & opt (some int) None & info [ "admin" ] ~docv:"PORT" ~doc)
  in
  let admin_port_file_arg =
    let doc = "Write the bound admin port to $(docv) (tmp+rename)." in
    Arg.(value & opt (some string) None & info [ "admin-port-file" ] ~docv:"FILE" ~doc)
  in
  let doc =
    "Route clients over a cluster of shard daemons, composing the \
     client-visible root from per-shard proofs with a two-phase round barrier."
  in
  Cmd.v (Cmd.info "route" ~doc)
    Term.(
      const run $ verbosity_arg $ listen_arg $ port_file_arg $ shard_arg
      $ shard_port_file_arg $ users_arg $ files_arg $ max_conns_arg $ journal_arg
      $ admin_arg $ admin_port_file_arg $ metrics_arg)

let serve_cluster_cmd =
  let run verbosity listen port_file shards users seed store_base journal_base
      admin_port admin_port_file metrics =
    Log_setup.install ~level:verbosity ();
    check_shard_count ~flag:"--shards" shards;
    Option.iter (fun b -> if not (Sys.file_exists b) then Unix.mkdir b 0o755) store_base;
    Option.iter (fun b -> if not (Sys.file_exists b) then Unix.mkdir b 0o755) journal_base;
    let dir = fresh_dir "tcvs-cluster" in
    match start_shards ~dir ~shards ~seed ?store_base ?journal_base () with
    | Error e ->
        Printf.eprintf "error: %s\n" e;
        exit 1
    | Ok (pids, ports) -> (
        let cfg =
          {
            (Net.Router.default_config
               ~shard_addrs:
                 (Array.of_list (List.map (fun p -> ("127.0.0.1", p)) ports)))
            with
            Net.Router.listen_port = listen;
            port_file;
            users;
            journal =
              Option.map (fun b -> Filename.concat b "router.jsonl") journal_base;
            admin_port;
            admin_port_file;
          }
        in
        let result = Net.Router.run cfg in
        reap_children pids;
        match result with
        | Ok () ->
            (match metrics with Some path -> Obs.Report.write path | None -> ())
        | Error e ->
            Printf.eprintf "error: %s\n" e;
            exit 1)
  in
  let shards_arg =
    let doc = "Shard daemons to spawn (one process per key-range shard; 1 to 61)." in
    Arg.(value & opt int 2 & info [ "shards" ] ~docv:"N" ~doc)
  in
  let store_base_arg =
    let doc = "Give each shard a durable store under $(docv)/shard$(i,I)." in
    Arg.(value & opt (some string) None & info [ "store-base" ] ~docv:"DIR" ~doc)
  in
  let journal_base_arg =
    let doc =
      "Write per-process span journals under $(docv) (router.jsonl and one \
       shard$(i,I).jsonl each; merge with $(b,tcvs trace-join))."
    in
    Arg.(value & opt (some string) None & info [ "journal-base" ] ~docv:"DIR" ~doc)
  in
  let admin_arg =
    let doc = "Router admin endpoint port ($(b,0) picks an ephemeral port)." in
    Arg.(value & opt (some int) None & info [ "admin" ] ~docv:"PORT" ~doc)
  in
  let admin_port_file_arg =
    let doc = "Write the router's bound admin port to $(docv)." in
    Arg.(value & opt (some string) None & info [ "admin-port-file" ] ~docv:"FILE" ~doc)
  in
  let doc =
    "Spawn a full sharded deployment — $(b,--shards) shard daemons plus the \
     composing router — as one foreground command."
  in
  Cmd.v (Cmd.info "serve-cluster" ~doc)
    Term.(
      const run $ verbosity_arg $ listen_arg $ port_file_arg $ shards_arg
      $ users_arg $ seed_arg $ store_base_arg $ journal_base_arg $ admin_arg
      $ admin_port_file_arg $ metrics_arg)

(* ---- telemetry plane: trace-join / stats / top ----------------------------- *)

let read_journal_lines path =
  let ic = open_in_bin path in
  let rec loop acc =
    match input_line ic with
    | line -> loop (line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  loop []

let trace_join_cmd =
  let run files =
    let lines =
      List.concat_map
        (fun path ->
          if Sys.file_exists path then read_journal_lines path
          else begin
            Printf.eprintf "error: no such journal: %s\n" path;
            exit 2
          end)
        files
    in
    let text, s = Obs.Trace_join.join lines in
    print_string text;
    if s.Obs.Trace_join.orphans > 0 then exit 4
  in
  let files_arg =
    let doc = "Journal files (JSON lines) written with --journal, in any order." in
    Arg.(non_empty & pos_all string [] & info [] ~docv:"FILE" ~doc)
  in
  let doc =
    "Merge the per-process span journals of a session (daemon, proxy, clients) \
     into one deterministic round-ordered timeline: client queue, proxy fault \
     plane, daemon dispatch, store flush, reply. Duplicate lines are dropped, \
     torn tails skipped, and spans that never reached a reply are reported as \
     orphaned (exit 4)."
  in
  Cmd.v (Cmd.info "trace-join" ~doc) Term.(const run $ files_arg)

(* One admin scrape: connect, read to EOF, return the snapshot. *)
let scrape ~host ~port =
  match
    Result.bind (Net.Loop.resolve host) (fun addr ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        match Unix.connect fd (Unix.ADDR_INET (addr, port)) with
        | () -> Ok fd
        | exception Unix.Unix_error (err, _, _) ->
            Unix.close fd;
            Error (Unix.error_message err))
  with
  | Error e -> Error e
  | Ok fd ->
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec loop () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            loop ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      in
      loop ();
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Ok (Buffer.contents buf)

let stats_cmd =
  let run connect =
    match parse_hostport connect with
    | Error m ->
        Printf.eprintf "error: %s\n" m;
        exit 2
    | Ok (host, port) -> (
        match scrape ~host ~port with
        | Error e ->
            Printf.eprintf "error: cannot scrape %s:%d: %s\n" host port e;
            exit 1
        | Ok body -> print_string body)
  in
  let doc =
    "Scrape a daemon's admin endpoint (tcvs serve --admin) once and print the \
     JSON snapshot: round, per-connection I/O gauges, and the live metric \
     registry including volatile counters and latency histograms."
  in
  Cmd.v (Cmd.info "stats" ~doc) Term.(const run $ connect_arg)

let top_cmd =
  let module J = Obs.Json in
  let jint ?(default = 0) j path =
    let rec dig j = function
      | [] -> ( match j with J.Int n -> Some n | J.Float f -> Some (int_of_float f) | _ -> None)
      | k :: rest -> ( match J.member k j with Some j' -> dig j' rest | None -> None)
    in
    Option.value ~default (dig j path)
  in
  let render ~host ~port body =
    match J.parse body with
    | Error e -> Printf.printf "unparseable snapshot: %s\n" e
    | Ok j ->
        Printf.printf "tcvs top — %s:%d    round %d    ticking %s    sessions %d\n"
          host port (jint j [ "round" ])
          (match J.member "ticking" j with Some (J.Bool b) -> string_of_bool b | _ -> "?")
          (jint j [ "sessions" ]);
        Printf.printf "outstanding %d    relays pending %d\n\n"
          (jint j [ "outstanding" ])
          (jint j [ "relays_pending" ]);
        Printf.printf "%4s %-9s %9s %9s %11s %11s %8s %6s %4s\n" "USER" "ROLE"
          "FRAMES_IN" "FRAMES_OUT" "BYTES_IN" "BYTES_OUT" "BACKLOG" "DEDUP" "OUT";
        (match J.member "connections" j with
        | Some (J.Arr conns) ->
            List.iter
              (fun c ->
                Printf.printf "%4d %-9s %9d %9d %11d %11d %8d %6d %4d\n"
                  (jint c [ "user" ])
                  (match J.member "role" c with Some (J.Str s) -> s | _ -> "?")
                  (jint c [ "frames_in" ]) (jint c [ "frames_out" ])
                  (jint c [ "bytes_in" ]) (jint c [ "bytes_out" ])
                  (jint c [ "backlog_bytes" ])
                  (jint c [ "dedup_hits" ])
                  (jint c [ "outstanding" ]))
              conns
        | _ -> ());
        let reg = Option.value ~default:J.Null (J.member "registry" j) in
        Printf.printf "\n%-32s %d\n%-32s %d\n%-32s %d\n%-32s %d\n"
          "net.daemon.requests_executed"
          (jint reg [ "counters"; "net.daemon.requests_executed" ])
          "net.daemon.dedup_hits"
          (jint reg [ "counters"; "net.daemon.dedup_hits" ])
          "net.frames_received"
          (jint reg [ "counters"; "net.frames_received" ])
          "store.wal.fsyncs"
          (jint reg [ "counters"; "store.wal.fsyncs" ]);
        let hist name =
          match J.member "histograms" reg with
          | Some h -> (
              match J.member name h with
              | Some hj ->
                  let count = jint hj [ "count" ] in
                  Printf.printf "%-32s count %-8d mean %-10d min %-10d max %d\n" name
                    count
                    (if count > 0 then jint hj [ "sum" ] / count else 0)
                    (jint hj [ "min" ]) (jint hj [ "max" ])
              | None -> ())
          | None -> ()
        in
        hist "net.daemon.round_us";
        hist "store.wal.fsync_us"
  in
  let run connect interval count =
    match parse_hostport connect with
    | Error m ->
        Printf.eprintf "error: %s\n" m;
        exit 2
    | Ok (host, port) ->
        let rec loop i =
          if count = 0 || i < count then begin
            (match scrape ~host ~port with
            | Error e ->
                print_string "\027[2J\027[H";
                Printf.printf "tcvs top — %s:%d unreachable: %s\n%!" host port e
            | Ok body ->
                (* clear + home between scrapes, not within, to avoid flicker *)
                print_string "\027[2J\027[H";
                render ~host ~port body;
                print_string "\n(ctrl-c to quit)\n";
                flush stdout);
            if count = 0 || i + 1 < count then
              ignore (Unix.select [] [] [] interval);
            loop (i + 1)
          end
        in
        loop 0
  in
  let interval_arg =
    let doc = "Seconds between scrapes." in
    Arg.(value & opt float 1.0 & info [ "interval" ] ~docv:"SECONDS" ~doc)
  in
  let count_arg =
    let doc = "Stop after $(docv) scrapes (0 = run until interrupted)." in
    Arg.(value & opt int 0 & info [ "count" ] ~docv:"N" ~doc)
  in
  let doc =
    "Refreshing terminal view of a daemon's admin endpoint: live round, \
     per-connection frame/byte/backlog gauges, dedup hits, and round / fsync \
     latency histograms."
  in
  Cmd.v (Cmd.info "top" ~doc) Term.(const run $ connect_arg $ interval_arg $ count_arg)

(* ---- entry ----------------------------------------------------------------- *)

let () =
  (* Subcommands that take --verbosity re-install with the resolved
     level; this default covers the rest (and `--help` paths). *)
  Log_setup.install ();
  let doc = "Trusted CVS: detection protocols for untrusted version-control servers" in
  let info = Cmd.info "tcvs" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            simulate_cmd; matrix_cmd; workload_cmd; session_cmd; inspect_cmd;
            store_inspect_cmd; serve_cmd; client_cmd; proxy_cmd; route_cmd;
            serve_cluster_cmd; trace_join_cmd; stats_cmd; top_cmd;
          ]))
