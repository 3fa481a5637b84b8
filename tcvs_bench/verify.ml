(* Client-side verification of every reply, as the paper's users do it.

   A reply passes when its VO replays the operation the client sent to
   the answer the server claimed, and its root chain links up: the op
   the server numbered [ctr = c] must start from the root op [c - 1]
   ended at, and [ctr = 0] from M(D0), the root of the initial database
   built locally. Replies from several connections arrive out of
   counter order, so each link is checked when its second half
   arrives. *)

module Vo = Mtree.Vo
module Message = Tcvs.Message

type t = {
  initial_root : string;
  ends : (int, string) Hashtbl.t;  (** ctr -> root after that op, awaiting ctr + 1 *)
  starts : (int, string) Hashtbl.t;  (** ctr -> root that op started from, awaiting ctr - 1 *)
  mutable verified : int;
  mutable max_ctr : int;
}

let create ~initial_root =
  {
    initial_root;
    ends = Hashtbl.create 64;
    starts = Hashtbl.create 64;
    verified = 0;
    max_ctr = -1;
  }

let verified t = t.verified

let link_start t ~ctr ~old_root =
  if ctr = 0 then
    if Crypto.Ctime.equal old_root t.initial_root then Ok ()
    else Error "ctr 0 does not start from the initial root M(D0)"
  else
    match Hashtbl.find_opt t.ends (ctr - 1) with
    | Some r ->
        Hashtbl.remove t.ends (ctr - 1);
        if Crypto.Ctime.equal r old_root then Ok ()
        else Error (Printf.sprintf "ctr %d does not start where ctr %d ended" ctr (ctr - 1))
    | None ->
        if Hashtbl.mem t.starts ctr then Error (Printf.sprintf "ctr %d answered twice" ctr)
        else begin
          Hashtbl.replace t.starts ctr old_root;
          Ok ()
        end

let link_end t ~ctr ~new_root =
  match Hashtbl.find_opt t.starts (ctr + 1) with
  | Some r ->
      Hashtbl.remove t.starts (ctr + 1);
      if Crypto.Ctime.equal r new_root then Ok ()
      else Error (Printf.sprintf "ctr %d does not start where ctr %d ended" (ctr + 1) ctr)
  | None ->
      if Hashtbl.mem t.ends ctr then Error (Printf.sprintf "ctr %d answered twice" ctr)
      else begin
        Hashtbl.replace t.ends ctr new_root;
        Ok ()
      end

(* Never raises: every way a reply can be wrong is an [Error]. *)
let check t ~op (msg : Message.t) =
  match msg with
  | Message.Response { answer; vo; ctr; _ } -> (
      match Vo.apply vo op with
      | Error e -> Error (Format.asprintf "ctr %d: VO replay failed: %a" ctr Vo.pp_error e)
      | Ok (replayed, old_root, new_root) ->
          if replayed <> answer then
            Error (Printf.sprintf "ctr %d: answer differs from the VO replay" ctr)
          else if ctr < 0 then Error (Printf.sprintf "negative ctr %d" ctr)
          else
            Result.bind (link_start t ~ctr ~old_root) (fun () ->
                Result.map
                  (fun () ->
                    t.verified <- t.verified + 1;
                    t.max_ctr <- max t.max_ctr ctr)
                  (link_end t ~ctr ~new_root)))
  | m -> Error ("reply is " ^ Message.kind m ^ ", not a response")

(* After the last reply every link is checked: only the last op's end
   awaits a successor. A skipped ctr leaves its successor's start
   unlinked; a replayed one leaves a second end. *)
let finish t =
  if Hashtbl.length t.starts = 0 && Hashtbl.length t.ends <= 1 then Ok ()
  else
    Error
      (Printf.sprintf "root chain has unlinked ops (%d replies verified, ctrs up to %d)"
         t.verified t.max_ctr)
