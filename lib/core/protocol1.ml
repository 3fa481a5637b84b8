module Vo = Mtree.Vo

type config = {
  n : int;
  k : int;
  initial_root : string;
  elected_signer : int;
}

type t = {
  config : config;
  base : User_base.t;
  keyring : Pki.Keyring.t;
  signer : Pki.Signer.t;
  mutable lctr : int;
  mutable gctr : int;
  sync : int Sync_session.t; (* reports carry lctr *)
}

let initial_signature ~signer ~root =
  Pki.Signer.sign signer (State_tag.root_sig_message ~root ~ctr:0)

let sync t = t.sync
let me t = User_base.user t.base

let handle_response t ~round ~(answer : Vo.answer) ~vo ~ctr ~last_user ~root_sig =
  match User_base.in_flight_op t.base with
  | None -> () (* stray response *)
  | Some op -> (
      match User_base.verify t.base ~round ~answer vo op with
      | None -> ()
      | Some { old_root; new_root; _ } ->
          let signer_id = if last_user < 0 then t.config.elected_signer else last_user in
          let message = State_tag.root_sig_message ~root:old_root ~ctr in
          let legitimate =
            match root_sig with
            | None -> false
            | Some signature -> Pki.Keyring.verify t.keyring signer_id message ~signature
          in
          if not legitimate then
            User_base.terminate t.base ~round
              ~reason:"illegitimate root signature (server cannot prove its state)"
          else begin
            t.lctr <- t.lctr + 1;
            t.gctr <- ctr + 1;
            let new_message = State_tag.root_sig_message ~root:new_root ~ctr:(ctr + 1) in
            User_base.send t.base
              (Message.Root_signature
                 {
                   signer = me t;
                   ctr = ctr + 1;
                   signature = Pki.Signer.sign t.signer new_message;
                 });
            User_base.complete t.base ~round ~answer ~roots:(old_root, new_root) ();
            Sync_session.op_completed t.sync ~round ~gctr:t.gctr
          end)

let total reports = List.fold_left (fun acc (_, lctr) -> acc + lctr) 0 reports

let create config ~user ~trace ~keyring ~signer ~send ~broadcast ~alarm =
  let base = User_base.create ~user ~trace ~send ~broadcast ~alarm in
  {
    config;
    base;
    keyring;
    signer;
    lctr = 0;
    gctr = 0;
    sync =
      Sync_session.create base ~n:config.n ~k:config.k ~trigger:`Per_user
        ~scope:(Obs.Scope.v "protocol1") ~name:"protocol-1";
  }

let agent t =
  Sync_session.agent t.sync
    {
      Sync_session.report = (fun () -> t.lctr);
      message = (fun ~session lctr -> Message.Sync_count { session; reporter = me t; lctr });
      read =
        (function
        | Message.Sync_count { session; reporter; lctr } -> Some (session, reporter, lctr)
        | _ -> None);
      (* user i reports success iff gctrᵢ = Σ lctrₖ *)
      success = (fun reports -> t.gctr = total reports);
      confirmed = total;
      failure = "no user's gctr matches the total";
      on_server =
        (fun ~round -> function
          | Message.Response { answer; vo; ctr; last_user; root_sig; _ } ->
              handle_response t ~round ~answer ~vo ~ctr ~last_user ~root_sig
          | _ -> ());
    }
