(* Scrape-on-connect admin plane, shared by the daemon and the cluster
   router: accepting a connection sends one JSON snapshot and closes.
   Unlike the first version (which looped on a blocking write inside
   the event loop), every admin client socket is nonblocking and
   partially-written snapshots are carried across select rounds — a
   slow or stalled scraper can never stall the serving loop. *)

type writer = {
  wfd : Unix.file_descr;
  w_buf : string;
  mutable w_off : int;
  w_opened : float;
}

type t = {
  fd : Unix.file_descr;
  mutable writers : writer list;
}

(* A scraper that stops reading holds a buffer and an fd; reap it long
   before fd pressure could matter. *)
let writer_ttl = 5.0

let listen ~port =
  Sock.listen ~backlog:16 ~port ()
  |> Result.map (fun (fd, bound) -> ({ fd; writers = [] }, bound))

let fd t = t.fd
let wfds t = List.map (fun w -> w.wfd) t.writers

(* Deep-lint justification: admin client sockets are nonblocking, so
   this write returns EAGAIN instead of stalling the select loop; a
   short write leaves the tail for the next writable round. Returns
   [true] when the writer is finished (drained or dead). *)
let[@tcvs.lint.allow "event-loop-purity"] push w =
  let len = String.length w.w_buf in
  let rec go () =
    if w.w_off >= len then true
    else
      match Unix.write_substring w.wfd w.w_buf w.w_off (len - w.w_off) with
      | 0 -> true (* peer gone *)
      | n ->
          w.w_off <- w.w_off + n;
          go ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          false
      | exception Unix.Unix_error _ -> true
  in
  go ()

let drop w = try Unix.close w.wfd with Unix.Unix_error _ -> ()

let[@tcvs.lint.root "event-loop"] service t =
  let now = Unix.gettimeofday () in
  t.writers <-
    List.filter
      (fun w ->
        if push w || now -. w.w_opened > writer_ttl then begin
          drop w;
          false
        end
        else true)
      t.writers

let[@tcvs.lint.root "event-loop"] accept_pending t ~snapshot =
  let rec loop () =
    match Unix.accept t.fd with
    | cfd, _ ->
        Unix.set_nonblock cfd;
        let w =
          { wfd = cfd; w_buf = snapshot (); w_off = 0; w_opened = Unix.gettimeofday () }
        in
        if push w then drop w else t.writers <- w :: t.writers;
        loop ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
  in
  loop ()

let close t =
  List.iter drop t.writers;
  t.writers <- [];
  try Unix.close t.fd with Unix.Unix_error _ -> ()
