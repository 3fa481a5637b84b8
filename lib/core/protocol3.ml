module Vo = Mtree.Vo

type config = {
  n : int;
  epoch_len : int;
  initial_root : string;
}

let obs_scope = Obs.Scope.v "protocol3"
let c_epochs_verified = Obs.counter ~scope:obs_scope "epochs_verified"
let c_backups_signed = Obs.counter ~scope:obs_scope "backups_signed"
let c_activity_skips = Obs.counter ~scope:obs_scope "activity_skips"

type t = {
  config : config;
  base : User_base.t;
  keyring : Pki.Keyring.t;
  signer : Pki.Signer.t;
  mutable regs : State_tag.registers;
  mutable known_epoch : int;
  mutable pending_backup : Message.epoch_backup option;
  mutable next_assigned : int; (* next epoch index this user must verify *)
  mutable awaiting_states : bool;
  mutable epochs_verified : int;
}

let me t = User_base.user t.base
let fail t ~round reason = User_base.terminate t.base ~round ~reason

let sign_backup t ~epoch ~(regs : State_tag.registers) =
  Obs.incr c_backups_signed;
  let last = Option.value regs.last ~default:State_tag.zero in
  let message =
    State_tag.backup_message ~epoch ~sigma:regs.sigma ~last ~gctr:regs.gctr
  in
  {
    Message.backup_user = me t;
    backup_epoch = epoch;
    sigma = regs.sigma;
    last;
    backup_gctr = regs.gctr;
    backup_signature = Pki.Signer.sign t.signer message;
  }

let backup_signature_valid t (b : Message.epoch_backup) =
  let message =
    State_tag.backup_message ~epoch:b.backup_epoch ~sigma:b.sigma ~last:b.last
      ~gctr:b.backup_gctr
  in
  Pki.Keyring.verify t.keyring b.backup_user message ~signature:b.backup_signature

(* ---- Runtime sanitizer ---------------------------------------------- *)

(* Internal epoch bookkeeping the protocol logic assumes but never
   re-derives: the verifier assignment walks the arithmetic progression
   user, user+n, user+2n, ... in lockstep with the verified count, and
   the registers stay well-formed 32-byte quantities. *)
let check_epochs t =
  if t.known_epoch < 0 then Error (Printf.sprintf "known epoch is negative (%d)" t.known_epoch)
  else if t.next_assigned <> me t + (t.epochs_verified * t.config.n) then
    Error
      (Printf.sprintf
         "verifier assignment drifted: next assigned epoch %d, but user %d of %d has \
          verified %d"
         t.next_assigned (me t) t.config.n t.epochs_verified)
  else if String.length t.regs.sigma <> String.length State_tag.zero then
    Error "sigma register is not a 32-byte quantity"
  else begin
    match t.regs.last with
    | Some last when String.length last <> String.length State_tag.zero ->
        Error "last register is not a 32-byte quantity"
    | Some _ | None -> Ok ()
  end

(* test_sanitize's "protocol3: epoch assignment" drifts the assignment
   through this *)
let[@tcvs.lint.allow "dead-code"] debug_corrupt_assignment t = t.next_assigned <- t.next_assigned + 1

let sanitize_epochs t ~round =
  if Sanitize.enabled () then begin
    Sanitize.count_check ();
    match check_epochs t with
    | Ok () -> ()
    | Error reason -> fail t ~round ("sanitize: " ^ reason)
  end

(* Cross the epoch boundary: snapshot the finished epoch's registers
   for storage, then reset for the new epoch. *)
let roll_epoch t ~new_epoch =
  if Sanitize.enabled () then begin
    Sanitize.count_check ();
    if new_epoch <= t.known_epoch then
      Sanitize.violation "epoch roll not monotone (%d -> %d)" t.known_epoch new_epoch
  end;
  t.pending_backup <- Some (sign_backup t ~epoch:t.known_epoch ~regs:t.regs);
  t.regs <- { State_tag.no_registers with gctr = t.regs.gctr };
  t.known_epoch <- new_epoch

(* The Protocol II path check over one epoch's stored states. *)
let verify_epoch t ~round ~epoch ~(prev_states : Message.epoch_backup list)
    ~(states : Message.epoch_backup list) =
  let complete =
    List.length states = t.config.n
    && List.for_all
         (fun u -> List.exists (fun (b : Message.epoch_backup) -> b.backup_user = u) states)
         (List.init t.config.n Fun.id)
  in
  if not complete then
    fail t ~round
      (Printf.sprintf "epoch %d: server is missing stored states (workload guarantees all %d)"
         epoch t.config.n)
  else if
    not (List.for_all (backup_signature_valid t) states
        && List.for_all (backup_signature_valid t) prev_states)
  then fail t ~round (Printf.sprintf "epoch %d: forged register backup" epoch)
  else begin
    let active = List.filter (fun (b : Message.epoch_backup) -> not (String.equal b.last State_tag.zero)) states in
    if List.length active < List.length states then begin
      (* A user without operations in the epoch breaks the activity
         assumption; the theorem's bound does not apply, so skip the
         path check rather than raise a false alarm. *)
      Logs.warn (fun m ->
          m "epoch %d: activity assumption violated; skipping path check" epoch);
      Obs.incr c_activity_skips;
      t.epochs_verified <- t.epochs_verified + 1;
      Obs.incr c_epochs_verified
    end
    else begin
      let init =
        if epoch = 0 then Some (State_tag.initial ~root:t.config.initial_root)
        else begin
          match
            List.filter
              (fun (b : Message.epoch_backup) -> not (String.equal b.last State_tag.zero))
              prev_states
          with
          | [] -> None
          | candidates ->
              let final =
                List.fold_left
                  (fun (acc : Message.epoch_backup) (b : Message.epoch_backup) ->
                    if b.backup_gctr > acc.backup_gctr then b else acc)
                  (List.hd candidates) (List.tl candidates)
              in
              Some final.last
        end
      in
      match init with
      | None ->
          fail t ~round
            (Printf.sprintf "epoch %d: cannot reconstruct initial state from epoch %d" epoch
               (epoch - 1))
      | Some init ->
          let x =
            List.fold_left
              (fun acc (b : Message.epoch_backup) -> State_tag.xor acc b.sigma)
              State_tag.zero states
          in
          let path_ok =
            List.exists
              (fun (b : Message.epoch_backup) -> Crypto.Ctime.equal (State_tag.xor init b.last) x)
              active
          in
          if not path_ok then
            fail t ~round
              (Printf.sprintf
                 "epoch %d check failed: stored registers do not form a single path" epoch)
          else begin
            t.epochs_verified <- t.epochs_verified + 1;
            Obs.incr c_epochs_verified;
            if Obs.tracing () then
              Obs.Trace.emit ~scope:obs_scope ~at:round ~name:"epoch_verified"
                (Printf.sprintf "u%d verified epoch %d" (me t) epoch)
          end
    end
  end

let handle_epoch_states t ~round states =
  t.awaiting_states <- false;
  if not (User_base.terminated t.base) then begin
    let epoch = t.next_assigned in
    let find e =
      match List.find_opt (fun (e', _) -> Int.equal e' e) states with
      | Some (_, backups) -> backups
      | None -> []
    in
    let prev_states = if epoch = 0 then [] else find (epoch - 1) in
    verify_epoch t ~round ~epoch ~prev_states ~states:(find epoch);
    if not (User_base.terminated t.base) then t.next_assigned <- t.next_assigned + t.config.n
  end

let handle_response t ~round ~(answer : Vo.answer) ~vo ~ctr ~last_user ~epoch ~epoch_states =
  if epoch_states <> [] then handle_epoch_states t ~round epoch_states;
  if User_base.terminated t.base then ()
  else begin
    match User_base.in_flight_op t.base with
    | None -> ()
    | Some op -> (
        if epoch + 1 < round / t.config.epoch_len then
          fail t ~round
            (Printf.sprintf "server epoch %d lags local clock epoch %d" epoch
               (round / t.config.epoch_len))
        else if epoch < t.known_epoch then
          fail t ~round (Printf.sprintf "server epoch went backwards (%d < %d)" epoch t.known_epoch)
        else begin
          if epoch > t.known_epoch then roll_epoch t ~new_epoch:epoch;
          match User_base.verify t.base ~round ~answer vo op with
          | None -> ()
          | Some { old_root; new_root; _ } ->
              if ctr < t.regs.gctr then
                fail t ~round
                  (Printf.sprintf "counter went backwards (ctr=%d < gctr=%d)" ctr t.regs.gctr)
              else begin
                t.regs <-
                  State_tag.fold ~tag:State_tag.tagged t.regs ~old_root ~new_root ~ctr ~last_user
                    ~user:(me t);
                sanitize_epochs t ~round;
                User_base.complete t.base ~round ~answer ~roots:(old_root, new_root) ()
              end
        end)
  end

(* Attach everything that is due: the previous epoch's backup and, if
   this user is the assigned verifier of an epoch now old enough, the
   stored-state request. Shipping both on one query is what lets a user
   with exactly two operations per epoch meet the two-epoch bound. *)
let next_piggyback t =
  let backup =
    match t.pending_backup with
    | Some backup ->
        t.pending_backup <- None;
        [ Message.Backup backup ]
    | None -> []
  in
  let request =
    if (not t.awaiting_states) && t.next_assigned + 2 <= t.known_epoch then begin
      t.awaiting_states <- true;
      let epochs =
        if t.next_assigned = 0 then [ 0 ] else [ t.next_assigned - 1; t.next_assigned ]
      in
      [ Message.Request_states { epochs } ]
    end
    else []
  in
  backup @ request

let create config ~user ~trace ~keyring ~signer ~send ~broadcast ~alarm =
  {
    config;
    base = User_base.create ~user ~trace ~send ~broadcast ~alarm;
    keyring;
    signer;
    regs = State_tag.no_registers;
    known_epoch = 0;
    pending_backup = None;
    next_assigned = user;
    awaiting_states = false;
    epochs_verified = 0;
  }

let handle t ~round ~src msg =
  match (src, msg) with
  | Sim.Id.Server, Message.Response { answer; vo; ctr; last_user; epoch; epoch_states; _ }
    when not (User_base.terminated t.base) ->
      handle_response t ~round ~answer ~vo ~ctr ~last_user ~epoch ~epoch_states
  | _, _ -> ()

let tick t ~round =
  if not (User_base.terminated t.base) then begin
    User_base.check_timeout t.base ~round;
    let piggyback = if User_base.due_intent t.base ~round <> None then next_piggyback t else [] in
    ignore (User_base.issue t.base ~round ~piggyback)
  end

let agent t = { User_base.base = t.base; handle = handle t; tick = tick t }
