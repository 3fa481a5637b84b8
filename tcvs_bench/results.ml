(* Result records: what one workload run measured, its configuration
   and its correctness verdict, written as JSON and read back by
   [compare]. *)

type metric = { name : string; value : float; unit_ : string }

type run = {
  workload : string;
  seed : string;
  traced : bool;
  attempted : int;
  failed : int;
  failures : string list;  (** the first few, for the record *)
  metrics : metric list;
  config : (string * string) list;  (** key, JSON value *)
  detail : (string * string) list;  (** key, JSON value *)
}

let correct r = r.failed = 0 && r.attempted > 0

(* ---- Writing ----------------------------------------------------------- *)

let str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 || Char.code c >= 0x7f ->
          Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Every digit as measured: the shortest form that reads back as the
   same float. *)
let num f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ v) fields) ^ "}"

let arr items = "[" ^ String.concat ", " items ^ "]"

let metrics_json metrics =
  obj (List.map (fun m -> (m.name, obj [ ("value", num m.value); ("unit", str m.unit_) ])) metrics)

let run_json r =
  obj
    [
      ("workload", str r.workload);
      ("seed", str r.seed);
      ("traced", string_of_bool r.traced);
      ("correct", string_of_bool (correct r));
      ("attempted", string_of_int r.attempted);
      ("failed", string_of_int r.failed);
      ("failures", arr (List.map str r.failures));
      ("config", obj r.config);
      ("metrics", metrics_json r.metrics);
      ("detail", obj r.detail);
    ]

let file_json runs = obj [ ("schema", str "tcvs-bench/1"); ("runs", arr (List.map run_json runs)) ]

(* The one-line summary printed last on stdout: the named metrics
   only, in the order given. *)
let summary_line ~names runs =
  let metrics =
    List.concat_map
      (fun r ->
        List.filter_map
          (fun n ->
            List.find_opt (fun m -> String.equal m.name n) r.metrics
            |> Option.map (fun m ->
                   if List.length runs = 1 then m else { m with name = r.workload ^ "." ^ n }))
          names)
      runs
  in
  obj
    [
      ("correct", string_of_bool (runs <> [] && List.for_all correct runs));
      ("attempted", string_of_int (List.fold_left (fun a r -> a + r.attempted) 0 runs));
      ("failed", string_of_int (List.fold_left (fun a r -> a + r.failed) 0 runs));
      ("metrics", metrics_json metrics);
    ]

(* ---- Reading ----------------------------------------------------------- *)

let ( let* ) = Result.bind
let member = Obs.Json.member

let to_float = function
  | Some (Obs.Json.Int i) -> Some (float_of_int i)
  | Some (Obs.Json.Float f) -> Some f
  | _ -> None

let to_int j = Option.map int_of_float (to_float j)
let to_string = function Some (Obs.Json.Str s) -> Some s | _ -> None

let run_of_json j =
  let field k f = match f (member k j) with Some v -> Ok v | None -> Error ("run lacks " ^ k) in
  let* workload = field "workload" to_string in
  let* attempted = field "attempted" to_int in
  let* failed = field "failed" to_int in
  let metrics =
    match member "metrics" j with
    | Some (Obs.Json.Obj kvs) ->
        List.filter_map
          (fun (name, m) ->
            match (to_float (member "value" m), to_string (member "unit" m)) with
            | Some value, Some unit_ -> Some { name; value; unit_ }
            | _ -> None)
          kvs
    | _ -> []
  in
  Ok
    {
      workload;
      seed = Option.value ~default:"" (to_string (member "seed" j));
      traced = member "traced" j = Some (Obs.Json.Bool true);
      attempted;
      failed;
      failures = [];
      metrics;
      config = [];
      detail = [];
    }

let read path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text -> (
      let* j = Result.map_error (fun e -> path ^ ": " ^ e) (Obs.Json.parse text) in
      match member "runs" j with
      | Some (Obs.Json.Arr runs) ->
          List.fold_right
            (fun r acc ->
              let* rest = acc in
              let* run = Result.map_error (fun e -> path ^ ": " ^ e) (run_of_json r) in
              Ok (run :: rest))
            runs (Ok [])
      | _ -> Error (path ^ ": not a tcvs-bench result (no \"runs\")"))
