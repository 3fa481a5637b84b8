(* tcvs-lint — the repo's own static-analysis pass, plus the dynamic
   determinism smoke check.

   Static mode (the default, wired to `dune build @lint`):

     tcvs_lint [--root DIR] [--config FILE] [--list-rules] [--deep]
               [--baseline FILE] [--write-baseline FILE] [--format text|json]
               [FILE...]

   parses every .ml under --root (or just the FILEs given) with
   compiler-libs and runs the Lint_rules set; findings print one per
   line, exit status 1 if any.

   `--deep` additionally builds the call graph over lib/ and the
   programs that use it (Lint_callgraph.of_repo) and runs the
   interprocedural tier (Lint_reach): event-loop purity, hot-path
   allocation freedom, domain-safety, dead code.
   `--baseline FILE` pins pre-existing deep findings — only findings
   whose key is absent from the file fail the run; `--write-baseline`
   regenerates the file. `--format json` emits the machine-readable
   report CI uploads as an artifact.

   Dynamic mode (the ROADMAP "trace-driven regression diffs" item):

     tcvs_lint --run-twice [--protocol 1|2|3|4|all] [--seed S]
               [--users N] [--rounds R]

   runs the honest-server harness twice with identical seeds and diffs
   the two observability reports plus the full trace-event streams,
   failing on the first divergence. This is the dynamic half of the
   determinism rule: the static rule bans the usual sources of
   nondeterminism, the double run catches whatever slips through.
   `--store DIR` runs both passes on (separate, wiped) durable stores
   under DIR and `--shards N` shards the server database, so the
   persistence layer is covered by the same byte-identity bar.

   Trace differ:

     tcvs_lint --diff-traces A.jsonl B.jsonl

   diffs two previously captured trace streams (e.g. from
   `tcvs simulate --trace`) line by line and reports the first
   divergence — the standalone half of --run-twice for traces captured
   on different machines or commits. *)

open Tcvs_lint_core

let usage =
  "tcvs_lint [--root DIR] [--config FILE] [--list-rules] [--deep]\n\
  \           [--baseline FILE] [--write-baseline FILE] [--format text|json] [FILE...]\n\
   tcvs_lint --run-twice [--protocol 1|2|3|4|all] [--seed S] [--users N] [--rounds R]\n\
  \           [--store DIR] [--shards N]\n\
   tcvs_lint --diff-traces A.jsonl B.jsonl"

(* ---- static pass ----------------------------------------------------- *)

let load_config path ~explicit =
  if Sys.file_exists path then begin
    match Lint_config.load path with
    | Ok config -> config
    | Error msg ->
        prerr_endline ("tcvs_lint: bad config: " ^ msg);
        exit 2
  end
  else if explicit then begin
    prerr_endline ("tcvs_lint: config file not found: " ^ path);
    exit 2
  end
  else Lint_config.empty

let list_rules () =
  List.iter
    (fun (rule : Lint_engine.rule) ->
      Printf.printf "%-14s scope: %s\n               %s\n" rule.id
        (String.concat ", " rule.default_scope)
        rule.summary)
    Lint_rules.all;
  List.iter
    (fun (id, summary) ->
      Printf.printf "%-18s tier: deep (interprocedural, needs --deep)\n               %s\n" id
        summary)
    Lint_reach.rules

let static_findings ~root ~config ~files =
  let files = match files with [] -> Lint_engine.ml_files ~root () | files -> files in
  let findings =
    List.concat_map
      (fun rel ->
        let abs = if Filename.is_relative rel then Filename.concat root rel else rel in
        if Sys.file_exists abs then
          Lint_engine.lint_file ~config ~rules:Lint_rules.all ~file:rel abs
        else begin
          prerr_endline ("tcvs_lint: no such file: " ^ rel);
          exit 2
        end)
      files
  in
  Lint_engine.sort findings

let run_static ~root ~config_path ~explicit_config ~files ~deep ~baseline_path
    ~write_baseline ~format =
  let config =
    let path =
      if Filename.is_relative config_path then Filename.concat root config_path
      else config_path
    in
    load_config path ~explicit:explicit_config
  in
  let static = static_findings ~root ~config ~files in
  let deep_findings =
    if deep then Lint_reach.analyze ~config (Lint_callgraph.of_repo ~root) else []
  in
  (match write_baseline with
  | Some path ->
      let keys = List.map Lint_reach.key deep_findings in
      let oc = open_out path in
      output_string oc (Lint_reach.render_baseline keys);
      close_out oc;
      Printf.printf "wrote %d baseline key%s to %s\n" (List.length keys)
        (if List.length keys = 1 then "" else "s")
        path
  | None -> ());
  let baseline =
    (* a just-written baseline pins the findings it records: the write
       is the explicit decision to accept them as residue *)
    if write_baseline <> None then List.map Lint_reach.key deep_findings
    else
      match baseline_path with
      | None -> []
      | Some path -> (
          match Lint_reach.load_baseline path with
          | Ok keys -> keys
          | Error msg ->
              prerr_endline ("tcvs_lint: " ^ msg);
              exit 2)
  in
  let fresh, pinned, stale = Lint_reach.apply_baseline ~baseline deep_findings in
  (match format with
  | `Json -> print_endline (Lint_reach.json_report ~static ~deep:fresh ~baselined:pinned ~stale)
  | `Text ->
      List.iter (fun f -> print_endline (Lint_engine.to_string f)) static;
      List.iter (fun f -> print_endline (Lint_reach.to_string f)) fresh;
      if pinned <> [] then
        Printf.printf "%d baselined finding%s pinned (burn-down list: %s)\n"
          (List.length pinned)
          (if List.length pinned = 1 then "" else "s")
          (Option.value baseline_path ~default:"");
      if stale <> [] then begin
        Printf.printf
          "%d stale baseline entr%s (finding fixed — delete the line):\n"
          (List.length stale)
          (if List.length stale = 1 then "y" else "ies");
        List.iter (fun k -> Printf.printf "  %s\n" k) stale
      end);
  match (static, fresh) with
  | [], [] -> 0
  | _ ->
      if format = `Text then
        Printf.printf "%d finding%s\n"
          (List.length static + List.length fresh)
          (if List.length static + List.length fresh = 1 then "" else "s");
      1

(* ---- dynamic pass: run twice, diff the evidence ---------------------- *)

let protocol_of_string k epoch_len = function
  | "1" -> Some (Tcvs.Harness.Protocol_1 { k })
  | "2" ->
      Some
        (Tcvs.Harness.Protocol_2
           { k; tag_mode = `Tagged; check_gctr = true; sync_trigger = `Per_user })
  | "3" -> Some (Tcvs.Harness.Protocol_3 { epoch_len })
  | "4" -> Some (Tcvs.Harness.Protocol_4 { announce_every = 4 })
  | _ -> None

(* Same traffic profile as `tcvs simulate` so the smoke check exercises
   the code path users actually run. *)
let workload ~users ~rounds ~seed =
  Workload.Schedule.generate
    {
      Workload.Schedule.default_profile with
      Workload.Schedule.users;
      files = 24;
      mean_think = 4.0;
      offline_probability = 0.02;
      mean_offline = 30.0;
    }
    ~seed ~rounds

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun entry -> rm_rf (Filename.concat path entry)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let run_once ~protocol ~users ~rounds ~seed ~store_dir ~shards =
  Obs.set_tracing true;
  (* A leftover store would be recovered rather than created, changing
     the run: each pass starts from a clean directory. *)
  (match store_dir with Some dir -> rm_rf dir | None -> ());
  let events = workload ~users ~rounds ~seed in
  let setup =
    { (Tcvs.Harness.default_setup ~protocol ~users ~adversary:Tcvs.Adversary.Honest) with
      Tcvs.Harness.seed; store_dir; shards }
  in
  let outcome = Tcvs.Harness.run setup ~events in
  (outcome, Obs.Report.to_json (), Obs.Report.trace_lines ())

let first_diff a b =
  let rec go i = function
    | [], [] -> None
    | x :: xs, y :: ys -> if String.equal x y then go (i + 1) (xs, ys) else Some (i, x, y)
    | x :: _, [] -> Some (i, x, "<missing>")
    | [], y :: _ -> Some (i, "<missing>", y)
  in
  go 1 (a, b)

let diff_streams ~what a b =
  if List.equal String.equal a b then true
  else begin
    (match first_diff a b with
    | Some (i, x, y) ->
        Printf.printf "  %s diverges at line %d:\n    run 1: %s\n    run 2: %s\n" what i x y
    | None -> ());
    false
  end

let run_twice_one ~name ~protocol ~users ~rounds ~seed ~store_dir ~shards =
  (* Two distinct directories: report byte-identity must hold across
     different store locations, which is why the path never enters the
     Obs meta. *)
  let dir n = Option.map (fun d -> Filename.concat d n) store_dir in
  let o1, report1, trace1 =
    run_once ~protocol ~users ~rounds ~seed ~store_dir:(dir "run1") ~shards
  in
  let o2, report2, trace2 =
    run_once ~protocol ~users ~rounds ~seed ~store_dir:(dir "run2") ~shards
  in
  Printf.printf
    "protocol %s: seed %S, %d users, %d rounds — run 1: %d tx / %d rounds, run 2: %d tx / %d \
     rounds\n"
    name seed users rounds o1.Tcvs.Harness.completed_transactions o1.Tcvs.Harness.rounds_run
    o2.Tcvs.Harness.completed_transactions o2.Tcvs.Harness.rounds_run;
  let report_ok =
    diff_streams ~what:"metrics report" (String.split_on_char '\n' report1)
      (String.split_on_char '\n' report2)
  in
  let trace_ok = diff_streams ~what:"trace" trace1 trace2 in
  if report_ok && trace_ok then begin
    Printf.printf "  identical: %d report lines, %d trace events\n"
      (List.length (String.split_on_char '\n' report1))
      (List.length trace1);
    true
  end
  else false

let run_twice ~protocols ~users ~rounds ~seed ~k ~epoch_len ~store_dir ~shards =
  let selected =
    match protocols with
    | "all" -> [ "1"; "2"; "3"; "4" ]
    | p -> String.split_on_char ',' p
  in
  let ok =
    List.fold_left
      (fun ok name ->
        match protocol_of_string k epoch_len name with
        | Some protocol ->
            run_twice_one ~name ~protocol ~users ~rounds ~seed ~store_dir ~shards && ok
        | None ->
            prerr_endline ("tcvs_lint: unknown protocol " ^ name ^ " (use 1, 2, 3, 4 or all)");
            exit 2)
      true selected
  in
  if ok then begin
    print_endline "determinism smoke: all runs byte-identical";
    0
  end
  else begin
    print_endline "determinism smoke: DIVERGENCE detected";
    1
  end

(* ---- trace differ ---------------------------------------------------- *)

let read_lines path =
  if not (Sys.file_exists path) then begin
    prerr_endline ("tcvs_lint: no such trace file: " ^ path);
    exit 2
  end;
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let diff_trace_files a b =
  let lines_a = read_lines a and lines_b = read_lines b in
  Printf.printf "diffing %s (%d lines) against %s (%d lines)\n" a (List.length lines_a) b
    (List.length lines_b);
  if diff_streams ~what:"trace" lines_a lines_b then begin
    print_endline "traces identical";
    0
  end
  else 1

(* ---- entry ----------------------------------------------------------- *)

let () =
  let root = ref "." in
  let config_path = ref ".tcvs-lint" in
  let explicit_config = ref false in
  let do_list = ref false in
  let do_deep = ref false in
  let baseline_path = ref "" in
  let write_baseline = ref "" in
  let format = ref "text" in
  let do_run_twice = ref false in
  let protocols = ref "all" in
  let seed = ref "tcvs-lint-smoke" in
  let users = ref 4 in
  let rounds = ref 300 in
  let k = ref 8 in
  let epoch_len = ref 120 in
  let store = ref "" in
  let shards = ref 0 in
  let diff_a = ref "" in
  let diff_b = ref "" in
  let files = ref [] in
  let spec =
    [
      ("--root", Arg.Set_string root, "DIR repo root to scan (default .)");
      ( "--config",
        Arg.String
          (fun path ->
            config_path := path;
            explicit_config := true),
        "FILE lint config (default .tcvs-lint under --root, optional)" );
      ("--list-rules", Arg.Set do_list, " print the rule catalogue and exit");
      ( "--deep",
        Arg.Set do_deep,
        " also run the interprocedural tier (call-graph reachability into lib/)" );
      ( "--baseline",
        Arg.Set_string baseline_path,
        "FILE pin deep findings listed in FILE; only new findings fail" );
      ( "--write-baseline",
        Arg.String
          (fun path ->
            write_baseline := path;
            do_deep := true),
        "FILE regenerate the baseline from the current deep findings (implies --deep)" );
      ( "--format",
        Arg.Symbol ([ "text"; "json" ], fun f -> format := f),
        " output format (default text); json is the CI artifact schema" );
      ("--run-twice", Arg.Set do_run_twice, " determinism smoke: run twice, diff evidence");
      ( "--protocol",
        Arg.Set_string protocols,
        "P protocols for --run-twice: 1, 2, 3, 4, comma list, or all (default all)" );
      ("--seed", Arg.Set_string seed, "S PRNG seed for --run-twice");
      ("--users", Arg.Set_int users, "N users for --run-twice (default 4)");
      ("--rounds", Arg.Set_int rounds, "R workload length for --run-twice (default 300)");
      ("--k", Arg.Set_int k, "K sync period for protocols 1/2 (default 8)");
      ("--epoch-len", Arg.Set_int epoch_len, "T epoch length for protocol 3 (default 120)");
      ( "--store",
        Arg.Set_string store,
        "DIR run --run-twice on durable stores under DIR (wiped per pass)" );
      ("--shards", Arg.Set_int shards, "N shard the server database for --run-twice");
      ( "--diff-traces",
        Arg.Tuple [ Arg.Set_string diff_a; Arg.Set_string diff_b ],
        "A B diff two captured trace streams, report the first divergence" );
    ]
  in
  Arg.parse spec (fun file -> files := file :: !files) usage;
  if !do_list then begin
    list_rules ();
    exit 0
  end;
  let status =
    if !diff_a <> "" || !diff_b <> "" then diff_trace_files !diff_a !diff_b
    else if !do_run_twice then
      run_twice ~protocols:!protocols ~users:!users ~rounds:!rounds ~seed:!seed ~k:!k
        ~epoch_len:!epoch_len
        ~store_dir:(if !store = "" then None else Some !store)
        ~shards:(if !shards = 0 then None else Some !shards)
    else
      run_static ~root:!root ~config_path:!config_path ~explicit_config:!explicit_config
        ~files:(List.rev !files) ~deep:!do_deep
        ~baseline_path:(if !baseline_path = "" then None else Some !baseline_path)
        ~write_baseline:(if !write_baseline = "" then None else Some !write_baseline)
        ~format:(if !format = "json" then `Json else `Text)
  in
  exit status
