let obs_scope = Obs.Scope.v "run"
let c_ops_issued = Obs.counter ~scope:obs_scope "ops_issued"
let c_ops_completed = Obs.counter ~scope:obs_scope "ops_completed"
let c_blocked = Obs.counter ~scope:obs_scope "blocked_rounds"

type t = {
  user : int;
  engine : Message.t Sim.Engine.t;
  trace : Sim.Trace.t;
  mutable intents : (int * Mtree.Vo.op) list; (* sorted by round *)
  mutable in_flight : (int * Mtree.Vo.op) option; (* (trace seq, op) *)
  mutable in_flight_since : int;
  mutable response_timeout : int option;
  mutable terminated : bool;
}

let create ~user ~engine ~trace =
  {
    user;
    engine;
    trace;
    intents = [];
    in_flight = None;
    in_flight_since = 0;
    response_timeout = None;
    terminated = false;
  }

let user t = t.user
let engine t = t.engine
let trace t = t.trace

let enqueue_intent t ~round ~op =
  t.intents <-
    List.merge
      (fun (r1, _) (r2, _) -> Int.compare r1 r2)
      t.intents [ (round, op) ]

let pending_intents t = List.length t.intents

let due_intent t ~round =
  if t.terminated || t.in_flight <> None then None
  else begin
    match t.intents with
    | (due, op) :: _ when due <= round -> Some op
    | _ -> None
  end

let issue t ~round ~piggyback =
  match due_intent t ~round with
  | None -> false
  | Some op ->
      t.intents <- List.tl t.intents;
      Obs.incr c_ops_issued;
      let seq = Sim.Trace.issue t.trace ~user:t.user ~op ~round in
      t.in_flight <- Some (seq, op);
      t.in_flight_since <- round;
      Sim.Engine.send t.engine ~src:(Sim.Id.User t.user) ~dst:Sim.Id.Server
        (Message.Query { op; piggyback });
      true

let in_flight_op t = Option.map snd t.in_flight

(* A protocol calls this when a due intent exists but protocol state
   (a sync session, a token turn, a pending verification) withholds
   the issue — the serialization cost Protocol IV's wait-free design
   eliminates. One count = one user-round spent waiting. *)
let note_blocked t ~round =
  match due_intent t ~round with Some _ -> Obs.incr c_blocked | None -> ()

let complete t ~round ~answer ?roots () =
  match t.in_flight with
  | None -> invalid_arg "User_base.complete: no transaction in flight"
  | Some (seq, _) ->
      Sim.Trace.complete t.trace ~seq ~round ~answer ?roots ();
      t.in_flight <- None;
      Obs.incr c_ops_completed

let terminated t = t.terminated

let terminate t ~round:_ ~reason =
  if not t.terminated then begin
    t.terminated <- true;
    Sim.Engine.alarm t.engine ~agent:(Sim.Id.User t.user) ~reason
  end

type verified = {
  replayed : Mtree.Vo.answer;
  old_root : string;
  new_root : string;
  transitions : Mtree.Vo.shard_transition list;
}

let replay ?answer vo op =
  match Mtree.Vo.apply_detail vo op with
  | Error e -> Error (Format.asprintf "bad verification object: %a" Mtree.Vo.pp_error e)
  | Ok (replayed, old_root, new_root, transitions) -> (
      match answer with
      | Some claimed when not (Sim.Oracle.answers_equal replayed claimed) ->
          Error "answer does not match verification object replay"
      | Some _ | None -> Ok { replayed; old_root; new_root; transitions })

let verify t ~round ?answer vo op =
  match replay ?answer vo op with
  | Ok v -> Some v
  | Error reason ->
      terminate t ~round ~reason;
      None

let set_response_timeout t ~rounds = t.response_timeout <- rounds

let check_timeout t ~round =
  match (t.terminated, t.in_flight, t.response_timeout) with
  | false, Some _, Some bound when round - t.in_flight_since > bound ->
      terminate t ~round
        ~reason:
          (Printf.sprintf
             "availability violation: no response within %d rounds (b* bound exceeded)" bound)
  | _ -> ()
