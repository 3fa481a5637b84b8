type 'msg handlers = {
  on_message : round:int -> src:Id.t -> 'msg -> unit;
  on_activate : round:int -> unit;
}

type 'msg envelope = { src : Id.t; dst : Id.t; payload : 'msg }
type alarm_record = { agent : Id.t; at_round : int; reason : string }

(* Run-wide wire metrics. The engine is generic in the message type, so
   per-kind breakdowns need the caller's [classify] function; the
   aggregate counters are maintained unconditionally. *)
let obs_scope = Obs.Scope.v "sim"
let c_messages = Obs.counter ~scope:obs_scope "messages"
let c_bytes = Obs.counter ~scope:obs_scope "bytes"
let c_broadcast_deliveries = Obs.counter ~scope:obs_scope "broadcast_deliveries"
let c_rounds = Obs.counter ~scope:obs_scope "rounds"
let c_alarms = Obs.counter ~scope:obs_scope "alarms"

type 'msg t = {
  mutable agents : (Id.t * 'msg handlers) list; (* registration order *)
  mutable pending : 'msg envelope list; (* sent this round, reversed *)
  mutable round : int;
  mutable messages_sent : int;
  mutable broadcasts_sent : int;
  mutable bytes_sent : int;
  measure : 'msg -> int;
  classify : ('msg -> string) option;
  (* Cached per-kind counter handles, so a send does one lookup on a
     short kind string instead of two registry get-or-creates. *)
  kind_counters : (string, Obs.counter * Obs.counter) Hashtbl.t;
  mutable alarms : alarm_record list; (* newest first *)
}

let create ?(measure = fun _ -> 0) ?classify () =
  {
    agents = [];
    pending = [];
    round = 0;
    messages_sent = 0;
    broadcasts_sent = 0;
    bytes_sent = 0;
    measure;
    classify;
    kind_counters = Hashtbl.create 16;
    alarms = [];
  }

let register t id handlers =
  if List.mem_assoc id t.agents then
    invalid_arg (Printf.sprintf "Engine.register: %s already registered" (Id.to_string id));
  t.agents <- t.agents @ [ (id, handlers) ]

(* Obs.counter (registration, a CAS loop on the registry) only runs on
   the first message of each kind — the handle is memoized in
   kind_counters, so the steady state touches nothing shared. *)
let record_kind t msg ~bytes =
  match t.classify with
  | None -> ""
  | Some classify ->
      let kind = classify msg in
      let c_n, c_b =
        match Hashtbl.find_opt t.kind_counters kind with
        | Some pair -> pair
        | None ->
            let pair =
              ( Obs.counter ~scope:obs_scope ("sent." ^ kind),
                Obs.counter ~scope:obs_scope ("sent_bytes." ^ kind) )
            in
            Hashtbl.replace t.kind_counters kind pair;
            pair
      in
      Obs.incr c_n;
      Obs.incr c_b ~by:bytes;
      kind

let send t ~src ~dst msg =
  let bytes = t.measure msg in
  t.messages_sent <- t.messages_sent + 1;
  t.bytes_sent <- t.bytes_sent + bytes;
  Obs.incr c_messages;
  Obs.incr c_bytes ~by:bytes;
  let kind = record_kind t msg ~bytes in
  if Obs.tracing () then
    Obs.Trace.emit ~scope:obs_scope ~at:t.round ~name:"send"
      (Printf.sprintf "%s -> %s %s (%dB)" (Id.to_string src) (Id.to_string dst)
         (if kind = "" then "msg" else kind)
         bytes);
  t.pending <- { src; dst; payload = msg } :: t.pending

let broadcast t ~src msg =
  let bytes = t.measure msg in
  if Obs.tracing () then
    Obs.Trace.emit ~scope:obs_scope ~at:t.round ~name:"broadcast"
      (Printf.sprintf "%s -> * %s (%dB each)" (Id.to_string src)
         (match t.classify with None -> "msg" | Some f -> f msg)
         bytes);
  List.iter
    (fun (id, _) ->
      match id with
      | Id.User _ when not (Id.equal id src) ->
          t.broadcasts_sent <- t.broadcasts_sent + 1;
          t.bytes_sent <- t.bytes_sent + bytes;
          Obs.incr c_broadcast_deliveries;
          Obs.incr c_bytes ~by:bytes;
          ignore (record_kind t msg ~bytes);
          t.pending <- { src; dst = id; payload = msg } :: t.pending
      | Id.User _ | Id.Server -> ())
    t.agents

let round t = t.round

let step t =
  let due = List.rev t.pending in
  t.pending <- [];
  t.round <- t.round + 1;
  Obs.record_max c_rounds t.round;
  let round = t.round in
  List.iter
    (fun { src; dst; payload } ->
      match List.assoc_opt dst t.agents with
      | None -> ()
      | Some h -> h.on_message ~round ~src payload)
    due;
  List.iter (fun (_, h) -> h.on_activate ~round) t.agents

let run_until t ?(max_rounds = 100_000) predicate =
  let rec go steps =
    if predicate () then true
    else if steps >= max_rounds then false
    else begin
      step t;
      go (steps + 1)
    end
  in
  go 0

let messages_sent t = t.messages_sent
let bytes_sent t = t.bytes_sent
let broadcasts_sent t = t.broadcasts_sent

let alarm t ~agent ~reason =
  Obs.incr c_alarms;
  Obs.Trace.emit ~scope:obs_scope ~at:t.round ~name:"alarm"
    (Printf.sprintf "%s: %s" (Id.to_string agent) reason);
  t.alarms <- { agent; at_round = t.round; reason } :: t.alarms

let alarms t = List.rev t.alarms

let first_alarm t =
  match List.rev t.alarms with [] -> None | first :: _ -> Some first
