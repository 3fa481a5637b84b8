(* The regression gate: parent runs against change runs, one verdict
   per workload x end-to-end metric, with each metric's direction and
   bound read from BENCHMARK.json.

   - worse:      the change's median is worse than the parent's by more
                 than the bound;
   - unresolved: otherwise, but the run-to-run spread (IQR / median, on
                 either side) exceeds the bound and not every change run
                 beats every parent run;
   - improved:   with at least ten runs a side, the change wins at least
                 nine in ten pairs and the medians differ by more than
                 the parent's IQR;
   - unresolved: better by more than the bound without meeting that rule;
   - unchanged:  everything else.

   Any failed op in a change run that the parent runs do not match is a
   regression too ([failed_op_frac]). *)

type better = Lower | Higher
type bound = { metric : string; better : better; bound : float }
type verdict = Improved | Unchanged | Worse | Unresolved

let verdict_name = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

let ( let* ) = Result.bind

let load_bounds path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text -> (
      let* j = Result.map_error (fun e -> path ^ ": " ^ e) (Obs.Json.parse text) in
      match Obs.Json.member "end_to_end" j with
      | Some (Obs.Json.Arr ms) ->
          List.fold_right
            (fun m acc ->
              let* rest = acc in
              match
                ( Results.to_string (Obs.Json.member "name" m),
                  Results.to_string (Obs.Json.member "better" m),
                  Results.to_float (Obs.Json.member "bound" m) )
              with
              | Some metric, Some ("lower" | "higher" as b), Some bound ->
                  Ok ({ metric; better = (if b = "lower" then Lower else Higher); bound } :: rest)
              | _ -> Error (path ^ ": malformed end_to_end entry"))
            ms (Ok [])
      | _ -> Error (path ^ ": no end_to_end list"))

let min_pairs = 10

let judge b ~parent ~change =
  let mp = Stats.median parent and mc = Stats.median change in
  let beats x y = match b.better with Lower -> x < y | Higher -> x > y in
  let worse_by =
    if mp = 0. then 0.
    else match b.better with Lower -> (mc -. mp) /. Float.abs mp | Higher -> (mp -. mc) /. Float.abs mp
  in
  let all_better = List.for_all (fun c -> List.for_all (beats c) parent) change in
  let spread = Float.max (Stats.rel_spread parent) (Stats.rel_spread change) in
  let pairs = min (List.length parent) (List.length change) in
  let take l = List.filteri (fun i _ -> i < pairs) l in
  let wins = List.length (List.filter Fun.id (List.map2 beats (take change) (take parent))) in
  if worse_by > b.bound then Worse
  else if spread > b.bound && not all_better then Unresolved
  else if
    pairs >= min_pairs && wins * 10 >= 9 * pairs && beats mc mp
    && Float.abs (mc -. mp) > Stats.iqr parent
  then Improved
  else if -.worse_by > b.bound then Unresolved
  else Unchanged

type row = {
  workload : string;
  metric : string;
  parent : float list;
  change : float list;
  bound : float;
  verdict : verdict;
}

let values runs ~workload ~metric =
  List.filter_map
    (fun (r : Results.run) ->
      if r.traced || not (String.equal r.workload workload) then None
      else if String.equal metric "failed_op_frac" then
        Some (float_of_int r.failed /. float_of_int (max 1 r.attempted))
      else
        List.find_opt (fun (m : Results.metric) -> String.equal m.name metric) r.metrics
        |> Option.map (fun (m : Results.metric) -> m.value))
    runs

let rows ~bounds ~parent ~change =
  let workloads =
    List.sort_uniq String.compare
      (List.filter_map
         (fun (r : Results.run) -> if r.traced then None else Some r.workload)
         (parent @ change))
  in
  List.concat_map
    (fun workload ->
      let row (b : bound) =
        let p = values parent ~workload ~metric:b.metric
        and c = values change ~workload ~metric:b.metric in
        let verdict = if p = [] || c = [] then Unresolved else judge b ~parent:p ~change:c in
        { workload; metric = b.metric; parent = p; change = c; bound = b.bound; verdict }
      in
      let failed =
        let p = values parent ~workload ~metric:"failed_op_frac"
        and c = values change ~workload ~metric:"failed_op_frac" in
        let top l = List.fold_left Float.max 0. l in
        {
          workload;
          metric = "failed_op_frac";
          parent = p;
          change = c;
          bound = 0.;
          verdict = (if top c > top p then Worse else Unchanged);
        }
      in
      List.map row bounds @ [ failed ])
    workloads

let pp_side values =
  if values = [] then Printf.sprintf "%24s" "(no runs)"
  else
    Printf.sprintf "%11.4g [IQR %8.3g]" (Stats.median values) (Stats.iqr values)

let print_rows rows =
  Printf.printf "%-15s %-19s %25s %25s %8s %6s  %s\n" "workload" "metric" "parent median"
    "change median" "delta" "bound" "verdict";
  List.iter
    (fun r ->
      let mp = Stats.median r.parent and mc = Stats.median r.change in
      let delta =
        if r.parent = [] || r.change = [] || mp = 0. then "-"
        else Printf.sprintf "%+.1f%%" (100. *. (mc -. mp) /. Float.abs mp)
      in
      Printf.printf "%-15s %-19s %s %s %8s %5.1f%%  %s (n=%d/%d)\n" r.workload r.metric
        (pp_side r.parent) (pp_side r.change) delta (100. *. r.bound) (verdict_name r.verdict)
        (List.length r.parent) (List.length r.change))
    rows;
  let worse = List.filter (fun r -> r.verdict = Worse) rows in
  List.iter (fun r -> Printf.printf "REGRESSION: %s %s\n" r.workload r.metric) worse;
  if worse = [] then 0 else 1

let load_all paths =
  List.fold_right
    (fun p acc ->
      let* rest = acc in
      let* runs = Results.read p in
      Ok (runs @ rest))
    paths (Ok [])

(* [compare --parent A.json... --change B.json... [--benchmark FILE]] *)
let main args =
  let rec split side (parent, change, bench) = function
    | [] -> Ok (List.rev parent, List.rev change, bench)
    | "--parent" :: rest -> split `Parent (parent, change, bench) rest
    | "--change" :: rest -> split `Change (parent, change, bench) rest
    | "--benchmark" :: f :: rest -> split side (parent, change, f) rest
    | f :: rest -> (
        match side with
        | `Parent -> split side (f :: parent, change, bench) rest
        | `Change -> split side (parent, f :: change, bench) rest
        | `None -> Error ("unexpected argument " ^ f))
  in
  match
    let* parent_files, change_files, bench = split `None ([], [], "BENCHMARK.json") args in
    if parent_files = [] || change_files = [] then
      Error "usage: compare --parent A.json... --change B.json... [--benchmark FILE]"
    else
      let* bounds = load_bounds bench in
      let* parent = load_all parent_files in
      let* change = load_all change_files in
      Ok (rows ~bounds ~parent ~change)
  with
  | Error e ->
      prerr_endline ("compare: " ^ e);
      2
  | Ok rows -> print_rows rows
