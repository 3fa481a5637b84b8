type revision = {
  number : int;
  author : int;
  round : int;
  log : string;
  patch : Vdiff.Patch.t;
}

(* Revisions oldest-first; the cached head content makes commit and
   checkout O(1) in chain length while keeping the full chain for
   [content_at] / [annotate]. The cache is re-derivable, and [decode]
   rebuilds it rather than trusting the wire. *)
type t = { revisions : revision list; head : string }

let empty = { revisions = []; head = "" }
let head_revision t = List.length t.revisions
let head_content t = t.head

let content_at t n =
  if n < 0 || n > head_revision t then
    Error (Printf.sprintf "revision %d out of range (head is %d)" n (head_revision t))
  else
    List.fold_left
      (fun acc r ->
        match acc with
        | Error _ as e -> e
        | Ok content ->
            if r.number > n then Ok content
            else begin
              match Vdiff.Patch.apply r.patch content with
              | Ok _ as ok -> ok
              | Error e ->
                  Error (Printf.sprintf "corrupt chain at revision %d: %s" r.number e)
            end)
      (Ok "") t.revisions

let commit t ~author ~round ~log ~content =
  let patch = Vdiff.Patch.make ~old_:t.head ~new_:content in
  let rev = { number = head_revision t + 1; author; round; log; patch } in
  { revisions = t.revisions @ [ rev ]; head = content }

let log_entries t =
  List.rev_map (fun r -> (r.number, r.author, r.round, r.log)) t.revisions

let annotate t =
  (* Replay the chain, tracking the introducing revision per line. *)
  let annotated = ref [] in
  List.iter
    (fun r ->
      let lines = ref !annotated and out = ref [] in
      let take n =
        let rec go n acc =
          if n = 0 then List.rev acc
          else
            match !lines with
            | [] -> List.rev acc
            | l :: tl ->
                lines := tl;
                go (n - 1) (l :: acc)
        in
        go n []
      in
      List.iter
        (fun op ->
          match op with
          | Vdiff.Patch.Copy n -> out := !out @ take n
          | Vdiff.Patch.Delete ls -> ignore (take (List.length ls))
          | Vdiff.Patch.Insert ls -> out := !out @ List.map (fun l -> (l, r.number)) ls)
        (Vdiff.Patch.ops r.patch);
      annotated := !out)
    t.revisions;
  !annotated

let encode t =
  let w = Wire.W.create () in
  Wire.W.list w
    (fun r ->
      Wire.W.u32 w r.number;
      Wire.W.u32 w r.author;
      Wire.W.u32 w r.round;
      Wire.W.str w r.log;
      Wire.W.str w (Vdiff.Patch.encode r.patch))
    t.revisions;
  Wire.W.contents w

let decode s =
  let decoded =
    Wire.decode s (fun r ->
        Wire.R.list r (fun r ->
            let number = Wire.R.u32 r in
            let author = Wire.R.u32 r in
            let round = Wire.R.u32 r in
            let log = Wire.R.str r in
            match Vdiff.Patch.decode (Wire.R.str r) with
            | Some patch -> { number; author; round; log; patch }
            | None -> failwith "bad patch"))
  in
  match decoded with
  | None -> None
  | Some revisions ->
      let numbered = List.mapi (fun i r -> r.number = i + 1) revisions in
      if not (List.for_all Fun.id numbered) then None
      else begin
        let candidate = { revisions; head = "" } in
        match content_at candidate (List.length revisions) with
        | Ok head -> Some { revisions; head }
        | Error _ -> None
      end
