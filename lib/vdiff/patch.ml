type op = Copy of int | Insert of string list | Delete of string list

type t = { ops : op list }

let ops t = t.ops

(* Collapse a Myers script into run-length ops. Adjacent ops of the
   same kind merge, which keeps patches small for clustered edits. *)
let of_script script =
  let flush acc kind =
    match kind with
    | `None -> acc
    | `Keep n -> Copy n :: acc
    | `Add ls -> Insert (List.rev ls) :: acc
    | `Del ls -> Delete (List.rev ls) :: acc
  in
  let acc, pending =
    List.fold_left
      (fun (acc, pending) op ->
        match (op, pending) with
        | Myers.Keep _, `Keep n -> (acc, `Keep (n + 1))
        | Myers.Keep _, p -> (flush acc p, `Keep 1)
        | Myers.Add l, `Add ls -> (acc, `Add (l :: ls))
        | Myers.Add l, p -> (flush acc p, `Add [ l ])
        | Myers.Del l, `Del ls -> (acc, `Del (l :: ls))
        | Myers.Del l, p -> (flush acc p, `Del [ l ]))
      ([], `None) script
  in
  { ops = List.rev (flush acc pending) }

let make ~old_ ~new_ = of_script (Myers.diff old_ new_)

let apply t base =
  let lines = ref (Myers.split_lines base) in
  let take n =
    let rec go n acc rest =
      if n = 0 then Some (List.rev acc, rest)
      else match rest with [] -> None | l :: tl -> go (n - 1) (l :: acc) tl
    in
    match go n [] !lines with
    | None -> None
    | Some (taken, rest) ->
        lines := rest;
        Some taken
  in
  let buf = ref [] in
  let rec go = function
    | [] ->
        if !lines <> [] then Error "patch did not consume the whole base"
        else Ok (String.concat "\n" (List.concat (List.rev !buf)))
    | Copy n :: rest -> (
        match take n with
        | None -> Error "base too short for Copy"
        | Some ls ->
            buf := ls :: !buf;
            go rest)
    | Insert ls :: rest ->
        buf := ls :: !buf;
        go rest
    | Delete ls :: rest -> (
        match take (List.length ls) with
        | None -> Error "base too short for Delete"
        | Some actual ->
            if actual <> ls then Error "Delete lines do not match base"
            else go rest)
  in
  go t.ops

(* Wire format: each op on its own record, lines separated by \n and
   escaped so line content containing the separator is impossible
   (lines never contain \n by construction). Records framed by a
   leading letter and a count. *)

let encode t =
  let buf = Buffer.create 256 in
  List.iter
    (fun op ->
      match op with
      | Copy n -> Buffer.add_string buf (Printf.sprintf "C%d\n" n)
      | Insert ls ->
          Buffer.add_string buf (Printf.sprintf "I%d\n" (List.length ls));
          List.iter
            (fun l ->
              Buffer.add_string buf l;
              Buffer.add_char buf '\n')
            ls
      | Delete ls ->
          Buffer.add_string buf (Printf.sprintf "D%d\n" (List.length ls));
          List.iter
            (fun l ->
              Buffer.add_string buf l;
              Buffer.add_char buf '\n')
            ls)
    t.ops;
  Buffer.contents buf

let decode s =
  let rec split_n n acc rest =
    if n = 0 then Some (List.rev acc, rest)
    else match rest with [] -> None | l :: tl -> split_n (n - 1) (l :: acc) tl
  in
  let rec go acc = function
    | [] | [ "" ] -> Some { ops = List.rev acc }
    | header :: rest -> (
        if String.length header < 2 then None
        else
          match (header.[0], int_of_string_opt (String.sub header 1 (String.length header - 1))) with
          | _, None -> None
          | _, Some n when n < 0 -> None
          | 'C', Some n -> go (Copy n :: acc) rest
          | 'I', Some n -> (
              match split_n n [] rest with
              | None -> None
              | Some (ls, rest) -> go (Insert ls :: acc) rest)
          | 'D', Some n -> (
              match split_n n [] rest with
              | None -> None
              | Some (ls, rest) -> go (Delete ls :: acc) rest)
          | _ -> None)
  in
  go [] (String.split_on_char '\n' s)
