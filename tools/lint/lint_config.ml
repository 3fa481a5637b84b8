(* Configuration for tcvs-lint: the `.tcvs-lint` file at the repo root.

   Line-oriented, `#` comments. Three directives:

     rule <id> off            disable a rule everywhere
     rule <id> on             re-enable a rule (the default)
     scope <id> <dir>...      replace the directories a rule audits
     allow <id> <path>        suppress a rule in one file (or under a
                              directory prefix)

   Finer-grained suppressions belong in the source itself, as
   [@tcvs.lint.allow "<id>"] attributes — those carry their
   justification next to the code they excuse. *)

type t = {
  disabled : string list;
  scopes : (string * string list) list;
  allows : (string * string) list; (* (rule id, path prefix) *)
}

let empty = { disabled = []; scopes = []; allows = [] }

let tokens line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun s -> s <> "")

let parse_line config ~line_no line =
  match tokens line with
  | [] -> Ok config
  | tok :: _ when String.length tok > 0 && tok.[0] = '#' -> Ok config
  | [ "rule"; id; "off" ] -> Ok { config with disabled = id :: config.disabled }
  | [ "rule"; id; "on" ] ->
      Ok { config with disabled = List.filter (fun d -> not (String.equal d id)) config.disabled }
  | "scope" :: id :: (_ :: _ as dirs) -> Ok { config with scopes = (id, dirs) :: config.scopes }
  | [ "allow"; id; path ] -> Ok { config with allows = (id, path) :: config.allows }
  | _ -> Error (Printf.sprintf "line %d: cannot parse %S" line_no line)

let parse_string source =
  let lines = String.split_on_char '\n' source in
  let rec go config line_no = function
    | [] -> Ok config
    | line :: rest -> (
        match parse_line config ~line_no line with
        | Ok config -> go config (line_no + 1) rest
        | Error _ as e -> e)
  in
  go empty 1 lines

let read_file path = In_channel.with_open_bin path In_channel.input_all

let load path =
  match parse_string (read_file path) with
  | Ok config -> Ok config
  | Error m -> Error (Printf.sprintf "%s: %s" path m)

let rule_disabled config id = List.exists (String.equal id) config.disabled

let scope_override config id =
  List.find_map
    (fun (rule, dirs) -> if String.equal rule id then Some dirs else None)
    config.scopes

let path_has_prefix ~prefix path =
  String.equal prefix path
  || String.starts_with ~prefix:(prefix ^ "/") path

let allowed_by_config config id path =
  List.exists
    (fun (rule, prefix) -> String.equal rule id && path_has_prefix ~prefix path)
    config.allows
