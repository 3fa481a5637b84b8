module Vo = Mtree.Vo

type config = {
  n : int;
  initial_root : string;
  announce_every : int;
  witness_cap : int;
}

let default_config ~n ~initial_root =
  { n; initial_root; announce_every = 4; witness_cap = 64 }

let obs_scope = Obs.Scope.v "protocol4"
let c_witnesses = Obs.counter ~scope:obs_scope "witnesses_recorded"
let c_announcements = Obs.counter ~scope:obs_scope "announcements"
let c_merged = Obs.counter ~scope:obs_scope "witnesses_merged"

(* Per-shard witness ring: the last [witness_cap] (position, root)
   observations of one shard's chain, where [position] is the global
   operation counter at which the shard had that root. A ring never
   holds two roots for one position — that contradiction IS the fork
   proof, so it terminates the user instead of being stored. Bounded
   capacity keeps memory flat under millions of operations; it also
   bounds how deep a rollback must reach to slip past a single user
   (cross-user announcements still catch it as long as anyone's ring
   remembers the overwritten suffix). *)
type ring = {
  positions : int array; (* -1 = empty slot *)
  roots : string array;
  mutable cursor : int; (* next slot to overwrite, round-robin *)
}

type t = {
  config : config;
  base : User_base.t;
  mutable gctr : int; (* highest ctr + 1 this user completed against *)
  rings : (int, ring) Hashtbl.t; (* shard -> witness ring *)
  mutable outbox : (int * int * string) list; (* newest first *)
  mutable outbox_len : int;
}

let me t = User_base.user t.base

let sorted_rings t =
  (* Fold order is immaterial: sorted by shard before use. *)
  (Hashtbl.fold [@tcvs.lint.allow "determinism"])
    (fun shard ring acc -> (shard, ring) :: acc)
    t.rings []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let fail t ~round reason = User_base.terminate t.base ~round ~reason

let ring_for t shard =
  match Hashtbl.find_opt t.rings shard with
  | Some r -> r
  | None ->
      let r =
        {
          positions = Array.make t.config.witness_cap (-1);
          roots = Array.make t.config.witness_cap "";
          cursor = 0;
        }
      in
      Hashtbl.add t.rings shard r;
      r

let ring_find ring ~position =
  let n = Array.length ring.positions in
  let rec go i =
    if i >= n then None
    else if ring.positions.(i) = position then Some ring.roots.(i)
    else go (i + 1)
  in
  go 0

let ring_insert ring ~position ~root =
  ring.positions.(ring.cursor) <- position;
  ring.roots.(ring.cursor) <- root;
  ring.cursor <- (ring.cursor + 1) mod Array.length ring.positions

(* ---- Runtime sanitizer ---------------------------------------------- *)

(* The collision rule relies on each ring being a partial function
   position -> root; a duplicated position would let a contradiction
   sit unnoticed next to the entry that should have refuted it. *)
let check_witnesses t =
  let result = ref (Ok ()) in
  List.iter
    (fun (shard, ring) ->
      let n = Array.length ring.positions in
      for i = 0 to n - 1 do
        if ring.positions.(i) >= 0 then begin
          if String.length ring.roots.(i) <> 32 then
            result :=
              Error
                (Printf.sprintf "shard %d witness for operation %d has a malformed root"
                   shard ring.positions.(i));
          for j = i + 1 to n - 1 do
            if ring.positions.(j) = ring.positions.(i) then
              result :=
                Error
                  (Printf.sprintf "shard %d ring holds duplicate witnesses for operation %d"
                     shard ring.positions.(i))
          done
        end
      done)
    (sorted_rings t);
  !result

(* test_sanitize's "protocol4: witness rings" plants a conflict through
   this *)
let[@tcvs.lint.allow "dead-code"] debug_corrupt_witness t =
  let ring = ring_for t 0 in
  ring.positions.(0) <- 7;
  ring.roots.(0) <- String.make 32 '\000';
  ring.positions.(1) <- 7;
  ring.roots.(1) <- String.make 32 '\001'

let sanitize_witnesses t ~round =
  if Sanitize.enabled () then begin
    Sanitize.count_check ();
    match check_witnesses t with
    | Ok () -> ()
    | Error reason -> fail t ~round ("sanitize: " ^ reason)
  end

(* ---- Witness chain -------------------------------------------------- *)

(* Record one (shard, position, root) observation. Two different roots
   at one (shard, position) mean the server showed two histories of
   that shard — operations on it do not commute, so this is exactly a
   fork on conflicting operations: typed alarm. Commuting suffixes
   (disjoint shards) never meet here, which is what makes the protocol
   wait-free. *)
let witness t ~round ~shard ~position ~root ~source =
  let ring = ring_for t shard in
  match ring_find ring ~position with
  | Some existing ->
      if not (Crypto.Ctime.equal existing root) then
        fail t ~round
          (match source with
          | `Local ->
              Printf.sprintf
                "protocol-4 fork detected: shard %d diverges at operation %d \
                 (replayed root contradicts witnessed chain)"
                shard position
          | `Peer reporter ->
              Printf.sprintf
                "protocol-4 fork detected: shard %d diverges at operation %d \
                 (witness from u%d contradicts local chain)"
                shard position reporter)
  | None ->
      ring_insert ring ~position ~root;
      Obs.incr c_witnesses;
      (match source with
      | `Local ->
          t.outbox <- (shard, position, root) :: t.outbox;
          t.outbox_len <- t.outbox_len + 1
      | `Peer _ -> Obs.incr c_merged)

let flush_witnesses t =
  if t.outbox_len > 0 then begin
    Obs.incr c_announcements;
    User_base.broadcast t.base
      (Message.Shard_witness { reporter = me t; entries = List.rev t.outbox });
    t.outbox <- [];
    t.outbox_len <- 0
  end

let handle_response t ~round ~(answer : Vo.answer) ~vo ~ctr =
  match User_base.in_flight_op t.base with
  | None -> ()
  | Some op -> (
      match User_base.verify t.base ~round ~answer vo op with
      | None -> ()
      | Some { old_root; new_root; transitions; _ } ->
          if ctr < t.gctr then
            fail t ~round
              (Printf.sprintf "protocol-4: counter went backwards (ctr=%d < gctr=%d)" ctr
                 t.gctr)
          else if ctr = 0 && not (Crypto.Ctime.equal old_root t.config.initial_root) then
            fail t ~round
              "protocol-4: first operation's pre-state differs from the trusted initial root"
          else begin
            (* Witness the pre- and post-roots of every shard the
               operation touched. No waiting on any global round: the
               composed root is never compared across users, only
               per-shard chains at their conflict points. *)
            List.iter
              (fun (tr : Vo.shard_transition) ->
                if not (User_base.terminated t.base) then begin
                  witness t ~round ~shard:tr.shard ~position:ctr ~root:tr.old_digest
                    ~source:`Local;
                  witness t ~round ~shard:tr.shard ~position:(ctr + 1)
                    ~root:tr.new_digest ~source:`Local
                end)
              transitions;
            sanitize_witnesses t ~round;
            if not (User_base.terminated t.base) then begin
              t.gctr <- ctr + 1;
              User_base.complete t.base ~round ~answer ~roots:(old_root, new_root) ();
              if t.outbox_len >= t.config.announce_every then flush_witnesses t
            end
          end)

let handle_witnesses t ~round ~reporter ~entries =
  List.iter
    (fun (shard, position, root) ->
      if not (User_base.terminated t.base) then
        witness t ~round ~shard ~position ~root ~source:(`Peer reporter))
    entries;
  if not (User_base.terminated t.base) then sanitize_witnesses t ~round

let create config ~user ~trace ~send ~broadcast ~alarm =
  {
    config;
    base = User_base.create ~user ~trace ~send ~broadcast ~alarm;
    gctr = 0;
    rings = Hashtbl.create 8;
    outbox = [];
    outbox_len = 0;
  }

let handle t ~round ~src msg =
  if not (User_base.terminated t.base) then
    match (src, msg) with
    | Sim.Id.Server, Message.Response { answer; vo; ctr; _ } ->
        handle_response t ~round ~answer ~vo ~ctr
    | Sim.Id.User _, Message.Shard_witness { reporter; entries } ->
        handle_witnesses t ~round ~reporter ~entries
    | _, _ -> ()

let tick t ~round =
  if not (User_base.terminated t.base) then begin
    User_base.check_timeout t.base ~round;
    (* Wait-free: a due intent is always issued — no sync session,
       token turn or pending verification ever withholds it, so
       [run.blocked_rounds] never moves for this protocol. Witnesses
       still pending when there is nothing to issue are tail-flushed
       so the announce batch never waits on more traffic. *)
    if not (User_base.issue t.base ~round ~piggyback:[]) then flush_witnesses t
  end

let agent t = { User_base.base = t.base; handle = handle t; tick = tick t }
