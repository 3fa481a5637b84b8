(* tcvs_bench: the verified closed-loop benchmark of the Trusted-CVS
   network stack.

     tcvs_bench run [--workload W] [--seed S] [--seconds N] [--trace 0|1] ...
     tcvs_bench compare --parent A.json... --change B.json...

   See tcvs_bench/README.md for the workloads, the metrics and how to
   read [compare]. *)

open Tcvs_bench_core

let usage =
  "usage: tcvs_bench run [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--smoke] ...\n\
  \       tcvs_bench compare --parent A.json... --change B.json... [--benchmark FILE]"

let print_run (r : Results.run) =
  Printf.printf "\n== %s (seed %s%s): %s, %d ops attempted, %d failed\n" r.workload r.seed
    (if r.traced then ", traced" else "")
    (if Results.correct r then "verified" else "FAILED")
    r.attempted r.failed;
  List.iter (fun e -> Printf.printf "   failure: %s\n" e) r.failures;
  List.iter
    (fun (m : Results.metric) -> Printf.printf "   %-34s %14.6g %s\n" m.name m.value m.unit_)
    r.metrics;
  flush stdout

let run args =
  let cfg = ref Runner.default_cfg and workload = ref "" and trace = ref 0 and smoke = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "W  one of " ^ String.concat ", " Mix.names ^ " (default: all)");
      ("--seed", Arg.String (fun s -> cfg := { !cfg with seed = s }), "S  workload seed");
      ("--seconds", Arg.Int (fun n -> cfg := { !cfg with seconds = n }), "N  measured window");
      ("--trace", Arg.Set_int trace, "0|1  1 = traced run (per-layer metrics)");
      ("--smoke", Arg.Set smoke, " 1 s warm-up, 3 s window, one setup");
      ("--out", Arg.String (fun d -> cfg := { !cfg with out = d }), "DIR  results, spans, scratch");
    ]
  in
  match Arg.parse_argv ~current:(ref 0) (Array.of_list ("run" :: args)) spec (fun a -> raise (Arg.Bad a)) usage with
  | exception (Arg.Bad msg | Arg.Help msg) ->
      prerr_string msg;
      2
  | () -> (
      let cfg = { !cfg with traced = !trace = 1 } in
      let cfg =
        if !smoke then { cfg with warmup = 1.; seconds = 3; setups = 1; replay_ops = 500 } else cfg
      in
      let workloads =
        if !workload = "" then Some Mix.all else Option.map (fun w -> [ w ]) (Mix.find !workload)
      in
      match workloads with
      | None ->
          Printf.eprintf "unknown workload %s (have %s)\n" !workload (String.concat ", " Mix.names);
          2
      | Some _ when cfg.seconds < 2 ->
          prerr_endline "--seconds must be at least 2";
          2
      | Some workloads ->
          Runner.mkdir_p cfg.out;
          let runs =
            List.map
              (fun w ->
                let r = Runner.run_workload w cfg in
                print_run r;
                r)
              workloads
          in
          let label = match workloads with [ w ] -> w.Mix.name | _ -> "all" in
          let file =
            Filename.concat cfg.out
              (Printf.sprintf "result-%s-%s%s.json" label cfg.seed (if cfg.traced then "-traced" else ""))
          in
          Out_channel.with_open_bin file (fun oc ->
              output_string oc (Results.file_json runs);
              output_char oc '\n');
          Printf.printf "\nresult: %s\n" file;
          let names = if cfg.traced then Runner.contract_per_layer else Runner.contract_end_to_end in
          print_endline (Results.summary_line ~names runs);
          if List.for_all Results.correct runs then 0 else 1)

let () =
  match Array.to_list Sys.argv with
  | _ :: "__serve" :: args -> Servers.serve args
  | _ :: "run" :: args ->
      (* an 8 MiB minor heap keeps the generator's GC work per reply
         low; the servers are fresh processes with the runtime defaults *)
      Gc.set { (Gc.get ()) with minor_heap_size = 1 lsl 20 };
      at_exit Servers.kill_all;
      let stop = Sys.Signal_handle (fun _ -> exit 130) in
      Sys.set_signal Sys.sigint stop;
      Sys.set_signal Sys.sigterm stop;
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      exit (run args)
  | _ :: "compare" :: args -> exit (Compare.main args)
  | _ ->
      prerr_endline usage;
      exit 2
