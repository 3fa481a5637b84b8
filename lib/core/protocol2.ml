module Vo = Mtree.Vo

type config = {
  n : int;
  k : int;
  initial_root : string;
  tag_mode : [ `Tagged | `Untagged ];
  check_gctr : bool;
  sync_trigger : [ `Per_user | `Global ];
}

let default_config ~n ~k ~initial_root =
  { n; k; initial_root; tag_mode = `Tagged; check_gctr = true; sync_trigger = `Per_user }

type t = {
  config : config;
  base : User_base.t;
  mutable regs : State_tag.registers;
  sync : State_tag.registers Sync_session.t;
  (* Every transition contribution ⟨old_tag ⊕ new_tag⟩ ever folded into
     σ, newest first. σ must always equal the XOR-fold of this ledger —
     the algebra Lemma 4.1 rests on — which is what the sanitizer
     recomputes from scratch to catch a silently corrupted register. *)
  mutable tag_ledger : string list;
}

let base t = t.base
let sync t = t.sync
let me t = User_base.user t.base
let fail t ~round reason = User_base.terminate t.base ~round ~reason

let state_tag t ~root ~ctr ~user =
  match t.config.tag_mode with
  | `Tagged -> State_tag.tagged ~root ~ctr ~user
  | `Untagged -> State_tag.untagged ~root ~ctr

(* ---- Runtime sanitizer ---------------------------------------------- *)

let check_registers t =
  let expected = List.fold_left State_tag.xor State_tag.zero t.tag_ledger in
  if Crypto.Ctime.equal expected t.regs.sigma then Ok ()
  else
    Error
      (Printf.sprintf
         "sigma register diverged from the XOR-fold of its %d recorded transitions"
         (List.length t.tag_ledger))

(* test_sanitize's "protocol2: register ledger" corrupts σ through this *)
let[@tcvs.lint.allow "dead-code"] debug_corrupt_sigma t =
  t.regs <-
    { t.regs with sigma = State_tag.xor t.regs.sigma (State_tag.initial ~root:"bitflip") }

let sanitize_registers t ~round =
  if Sanitize.enabled () then begin
    Sanitize.count_check ();
    match check_registers t with
    | Ok () -> ()
    | Error reason -> fail t ~round ("sanitize: " ^ reason)
  end

(* The check of the synchronisation step: some user's ⟨init ⊕ last⟩
   must equal the XOR of everyone's σ. *)
let evaluate_check t reports =
  let x =
    List.fold_left
      (fun acc (_, (r : State_tag.registers)) -> State_tag.xor acc r.sigma)
      State_tag.zero reports
  in
  match t.regs.last with
  | None -> false
  | Some last ->
      Crypto.Ctime.equal (State_tag.xor (State_tag.initial ~root:t.config.initial_root) last) x

let handle_response t ~round ~(answer : Vo.answer) ~vo ~ctr ~last_user =
  match User_base.in_flight_op t.base with
  | None -> ()
  | Some op -> (
      match User_base.verify t.base ~round ~answer vo op with
      | None -> ()
      | Some { old_root; new_root; _ } ->
          if t.config.check_gctr && ctr < t.regs.gctr then
            fail t ~round
              (Printf.sprintf "counter went backwards (ctr=%d < gctr=%d)" ctr t.regs.gctr)
          else begin
            let regs =
              State_tag.fold ~tag:(state_tag t) t.regs ~old_root ~new_root ~ctr ~last_user
                ~user:(me t)
            in
            (* σ' ⊕ σ is the contribution ⟨old_tag ⊕ new_tag⟩ the fold added *)
            t.tag_ledger <- State_tag.xor t.regs.sigma regs.sigma :: t.tag_ledger;
            t.regs <- regs;
            sanitize_registers t ~round;
            User_base.complete t.base ~round ~answer ~roots:(old_root, new_root) ();
            Sync_session.op_completed t.sync ~round ~gctr:regs.gctr
          end)

let create config ~user ~engine ~trace =
  let base = User_base.create ~user ~engine ~trace in
  let t =
    {
      config;
      base;
      regs = State_tag.no_registers;
      sync =
        Sync_session.create base ~n:config.n ~k:config.k ~trigger:config.sync_trigger
          ~scope:(Obs.Scope.v "protocol2") ~name:"protocol-2";
      tag_ledger = [];
    }
  in
  Sync_session.register t.sync
    {
      Sync_session.report = (fun () -> t.regs);
      message =
        (fun ~session registers -> Message.Sync_registers { session; reporter = user; registers });
      read =
        (function
        | Message.Sync_registers { session; reporter; registers } ->
            Some (session, reporter, registers)
        | _ -> None);
      success = evaluate_check t;
      confirmed =
        List.fold_left (fun acc (_, (r : State_tag.registers)) -> max acc r.gctr) 0;
      failure = "XOR registers do not form a single path";
      on_server =
        (fun ~round -> function
          | Message.Response { answer; vo; ctr; last_user; _ } ->
              handle_response t ~round ~answer ~vo ~ctr ~last_user
          | _ -> ());
    };
  t
