module Vo = Mtree.Vo

type config = { n : int; slot_len : int; initial_root : string }

type phase =
  | Idle
  | Awaiting_state of { slot : int; op : Vo.op option }

type t = {
  config : config;
  base : User_base.t;
  keyring : Pki.Keyring.t;
  signer : Pki.Signer.t;
  mutable phase : phase;
  mutable last_slot_handled : int;
}

let base t = t.base
let me t = User_base.user t.base
let fail t ~round reason = User_base.terminate t.base ~round ~reason

let null_op_digest = Crypto.Sha256.digest "tcvs-null-op"

let op_digest (op : Vo.op) =
  let parts =
    match op with
    | Vo.Get k -> [ "get"; k ]
    | Vo.Set (k, v) -> [ "set"; k; v ]
    | Vo.Set_many entries ->
        "set-many" :: List.concat_map (fun (k, v) -> [ k; v ]) entries
    | Vo.Remove k -> [ "remove"; k ]
    | Vo.Range (lo, hi) -> [ "range"; lo; hi ]
  in
  Crypto.Sha256.digest_list ("tcvs-op" :: parts)

let genesis_digest t = Crypto.Sha256.digest_list [ "tcvs-token-genesis"; t.config.initial_root ]

(* The digest chaining records together is the signed message itself. *)
let record_digest (r : Message.token_record) =
  State_tag.token_record_message ~prev_digest:r.prev_digest ~root:r.root ~ctr:r.token_ctr
    ~user:r.token_user ~op_digest:r.op_digest

let record_signature_valid t (r : Message.token_record) =
  Pki.Keyring.verify t.keyring r.token_user (record_digest r) ~signature:r.token_signature

(* Start-of-slot: ask the server for the chain head (and a VO for the
   operation we intend to perform — a trivial read when idle). *)
let take_slot t ~round ~slot =
  t.last_slot_handled <- slot;
  let op = User_base.due_intent t.base ~round in
  (match op with
  | Some _ -> ignore (User_base.issue t.base ~round ~piggyback:[])
  | None ->
      Sim.Engine.send (User_base.engine t.base) ~src:(Sim.Id.User (me t)) ~dst:Sim.Id.Server
        (Message.Query { op = Vo.Get ""; piggyback = [] }));
  t.phase <- Awaiting_state { slot; op }

let handle_token_state t ~round ~record ~vo =
  match t.phase with
  | Idle -> ()
  | Awaiting_state { slot; op } ->
      t.phase <- Idle;
      let expected_ctr = slot - 1 in
      let prev_root, prev_digest, chain_ok =
        match record with
        | None ->
            (t.config.initial_root, genesis_digest t, expected_ctr < 0)
        | Some (r : Message.token_record) ->
            (r.root, record_digest r, r.token_ctr = expected_ctr && record_signature_valid t r)
      in
      if not chain_ok then
        fail t ~round
          (Printf.sprintf "token log head is stale, missing or forged at slot %d" slot)
      else begin
        let effective_op = match op with Some o -> o | None -> Vo.Get "" in
        match User_base.verify t.base ~round vo effective_op with
        | None -> ()
        | Some { replayed; old_root; new_root; _ } ->
            if not (Crypto.Ctime.equal old_root prev_root) then
              fail t ~round "server state does not match the signed log head"
            else begin
              let root, op_dig =
                match op with
                | Some o -> (new_root, op_digest o)
                | None -> (prev_root, null_op_digest)
              in
              let message =
                State_tag.token_record_message ~prev_digest ~root ~ctr:slot ~user:(me t)
                  ~op_digest:op_dig
              in
              let new_record =
                {
                  Message.token_user = me t;
                  token_ctr = slot;
                  root;
                  op_digest = op_dig;
                  prev_digest;
                  token_signature = Pki.Signer.sign t.signer message;
                }
              in
              Sim.Engine.send (User_base.engine t.base) ~src:(Sim.Id.User (me t))
                ~dst:Sim.Id.Server
                (Message.Token_take_turn { op; record = new_record });
              if Option.is_some op then
                User_base.complete t.base ~round ~answer:replayed ~roots:(old_root, new_root) ()
            end
      end

let create config ~user ~engine ~trace ~keyring ~signer =
  let t =
    {
      config;
      base = User_base.create ~user ~engine ~trace;
      keyring;
      signer;
      phase = Idle;
      last_slot_handled = -1;
    }
  in
  let on_message ~round ~src msg =
    if not (User_base.terminated t.base) then begin
      match (src, msg) with
      | Sim.Id.Server, Message.Token_state { record; vo } ->
          handle_token_state t ~round ~record ~vo
      | _, _ -> ()
    end
  in
  let on_activate ~round =
    if not (User_base.terminated t.base) then begin
      User_base.check_timeout t.base ~round;
      let slot = round / config.slot_len in
      if slot mod config.n = me t && slot > t.last_slot_handled && t.phase = Idle then
        take_slot t ~round ~slot
      else User_base.note_blocked t.base ~round
    end
  in
  Sim.Engine.register engine (Sim.Id.User user) { on_message; on_activate };
  t
